import random

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
    assert image.pixel(5, 9) == lat.cell(9, 5)


def test_full_cell_is_brightest_pixel():
    lat = Lattice(1, bytes([0xF, 0, 0, 0]))
    assert lattice_to_image(lat).pixel(0, 0) == 15


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


def test_read_pgm_errors(tmp_path):
    cases = {
        "bad_magic.pgm": b"P6 2 2 15\n" + bytes(12),
        "maxval_zero.pgm": b"P5 2 2 0\n" + bytes(4),
        "maxval_deep.pgm": b"P5 2 2 4095\n" + bytes(8),
        "truncated.pgm": b"P5 4 4 15\n" + bytes(3),
        "truncated_header.pgm": b"P5 4 4",
        "sample_above_maxval.pgm": b"P2 1 1 10\n12\n",
        "negative_sample.pgm": b"P2 2 2 15\n-3 0 0 0\n",
        "junk_token.pgm": b"P5 x 2 15\n" + bytes(4),
    }
    for name, payload in cases.items():
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_pgm(path)


def test_written_file_shape(tmp_path):
    image = GrayImage(4, 2, bytes([0, 1, 2, 3, 4, 5, 6, 7]))
    path = tmp_path / "shape.pgm"
    write_pgm(image, path)
    assert path.read_bytes() == b"P5 4 2 15\n" + image.pixels
