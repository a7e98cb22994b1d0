import random
import sys

import pytest

from hppcrypt.cipher import CipherParams, encrypt_block
from hppcrypt.errors import FormatError
from hppcrypt.imaging import (
    GrayImage,
    image_to_lattice,
    lattice_to_image,
    read_pgm,
    write_pgm,
)
from hppcrypt.lattice import Lattice, block_size, from_bytes, to_bytes


def random_image(rnd, side):
    return GrayImage(side, side, bytes(rnd.randrange(16) for _ in range(side * side)))


def test_lattice_image_round_trip():
    rnd = random.Random(1)
    lat = Lattice(6, bytes(rnd.randrange(16) for _ in range(4096)))
    image = lattice_to_image(lat)
    assert image.width == image.height == 64
    assert image_to_lattice(image) == lat
    # pixel x,y is cell (row y, col x)
    assert image.pixels[9 * image.width + 5] == lat.cell(9, 5)


def test_full_cell_is_brightest_pixel():
    lat = Lattice(1, bytes([0xF, 0, 0, 0]))
    assert lattice_to_image(lat).pixels[0] == 15


def test_image_to_lattice_rejects_bad_shapes():
    with pytest.raises(FormatError):
        image_to_lattice(GrayImage(4, 2, bytes(8)))
    with pytest.raises(FormatError):
        image_to_lattice(GrayImage(6, 6, bytes(36)))
    with pytest.raises(FormatError):
        image_to_lattice(GrayImage(1, 1, bytes(1)))


def test_gray_image_validation():
    with pytest.raises(FormatError):
        GrayImage(2, 2, bytes([0, 1, 2, 16]))
    with pytest.raises(FormatError):
        GrayImage(2, 2, bytes(3))
    with pytest.raises(FormatError):
        GrayImage(0, 2, b"")


@pytest.mark.parametrize("bad", [16, 255])
@pytest.mark.parametrize("where", [0, 7, 15])
def test_gray_image_rejects_any_pixel_above_15(bad, where):
    pixels = bytearray(16)
    pixels[where] = bad
    for raw in (bytes(pixels), pixels):
        with pytest.raises(FormatError, match="pixel values must be 0..15"):
            GrayImage(4, 4, raw)


def test_gray_image_accepts_every_level():
    for raw in (bytes(range(16)), bytearray(range(16))):
        assert GrayImage(4, 4, raw).pixels == raw


def test_black_image_encrypts_to_black():
    image = GrayImage(16, 16, bytes(256))
    lat = image_to_lattice(image)
    params = CipherParams(4, 32, frozenset({(3, 3), (10, 12)}))
    ct = encrypt_block(to_bytes(lat), params)
    assert lattice_to_image(from_bytes(ct, 4)).pixels == bytes(256)


def test_write_read_round_trip(tmp_path):
    rnd = random.Random(2)
    image = random_image(rnd, 32)
    path = tmp_path / "img.pgm"
    write_pgm(image, path)
    assert read_pgm(path) == image
    # write-read is idempotent at maxval 15
    write_pgm(read_pgm(path), path)
    assert read_pgm(path) == image


def test_read_p5_minimal_header(tmp_path):
    path = tmp_path / "min.pgm"
    raster = bytes(range(16)) * 256
    path.write_bytes(b"P5 64 64 15\n" + raster)
    image = read_pgm(path)
    assert (image.width, image.height) == (64, 64)
    assert image.pixels == raster


def test_read_p5_quantizes_deep_input(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
    image = read_pgm(path)
    # 128 * 15 / 255 = 7.53 rounds to 8
    assert image.pixels == bytes([0, 8, 15])


def test_read_p2_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2 # plain text\n# a comment line\n2 2\n15\n0 5\n10 15\n")
    image = read_pgm(path)
    assert image.pixels == bytes([0, 5, 10, 15])


def pgm(magic, width, maxval, samples):
    header = b"%s %d 1 %d\n" % (magic, width, maxval)
    if magic == b"P5":
        return header + bytes(samples)
    return header + b" ".join(b"%d" % v for v in samples) + b"\n"


def test_read_pgm_errors(tmp_path):
    cases = {
        "bad_magic.pgm": (b"P6 2 2 15\n" + bytes(12), "not a PGM file"),
        "maxval_zero.pgm": (b"P5 2 2 0\n" + bytes(4), "unsupported PGM maxval 0"),
        "maxval_deep.pgm": (b"P5 2 2 4095\n" + bytes(8), "unsupported PGM maxval"),
        "truncated.pgm": (b"P5 4 4 15\n" + bytes(3), "raster shorter"),
        "truncated_header.pgm": (b"P5 4 4", "truncated PGM header"),
        "sample_above_maxval.pgm": (b"P2 1 1 10\n12\n", "sample 12 exceeds maxval 10"),
        # The message names the first sample above maxval in raster order.
        "first_above_maxval_p5.pgm": (
            pgm(b"P5", 3, 10, [3, 12, 11]), "^sample 12 exceeds maxval 10$"),
        "first_above_maxval_p2.pgm": (
            pgm(b"P2", 3, 10, [3, 12, 11]), "^sample 12 exceeds maxval 10$"),
        "negative_sample.pgm": (b"P2 2 2 15\n-3 0 0 0\n", "negative sample -3"),
        "junk_token.pgm": (b"P5 x 2 15\n" + bytes(4), "bad PGM header token"),
        # Tokens are plain ASCII decimal: int() would take these too.
        "signed_width.pgm": (b"P5 +2 2 15\n" + bytes(4), "bad PGM header token"),
        "underscore_maxval.pgm": (b"P5 2 2 1_5\n" + bytes(4), "bad PGM header token"),
        "signed_sample.pgm": (b"P2 1 1 15\n+3\n", "bad sample in ASCII PGM"),
        "underscore_sample.pgm": (b"P2 1 1 15\n1_0\n", "bad sample in ASCII PGM"),
        "negative_zero_sample.pgm": (b"P2 1 1 15\n-0\n", "bad sample in ASCII PGM"),
    }
    for name, (payload, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(FormatError, match=message):
            read_pgm(path)


@pytest.mark.parametrize("magic", [b"P5", b"P2"])
def test_read_pgm_quantizes_every_sample_of_every_maxval(tmp_path, magic):
    path = tmp_path / "levels.pgm"
    for maxval in range(1, 256):
        samples = range(maxval + 1)
        path.write_bytes(pgm(magic, maxval + 1, maxval, samples))
        expected = bytes((v * 30 + maxval) // (2 * maxval) for v in samples)
        assert read_pgm(path).pixels == expected, maxval


def python_calls(action):
    """Count the Python function calls (not C calls) made by action()."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def test_image_bridge_makes_no_per_pixel_python_calls(tmp_path):
    # Timing-free guard: the whole bridge, PGM to block and back, makes as
    # many Python calls on a 512x512 image as on a 64x64 one.
    def bridge(side):
        src, dst = tmp_path / f"in{side}.pgm", tmp_path / f"out{side}.pgm"
        src.write_bytes(b"P5 %d %d 255\n" % (side, side)
                        + random.Random(side).randbytes(side * side))

        def run():
            block = to_bytes(image_to_lattice(read_pgm(src)))
            write_pgm(lattice_to_image(from_bytes(block, side.bit_length() - 1)), dst)

        return python_calls(run)

    assert bridge(512) == bridge(64)


def test_written_file_shape(tmp_path):
    image = GrayImage(4, 2, bytes([0, 1, 2, 3, 4, 5, 6, 7]))
    path = tmp_path / "shape.pgm"
    write_pgm(image, path)
    assert path.read_bytes() == b"P5 4 2 15\n" + image.pixels
