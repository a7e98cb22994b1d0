"""Bridge between lattices and 16-gray-level images.

Each 4-bit cell value doubles as a gray level, so a 2^n lattice is a
2^n x 2^n image with 16 shades. Files are netpbm PGM: both P2 (ASCII)
and P5 (binary) are read, deeper inputs are quantized down to 0..15 on
read, and files are always written as P5 with maxval 15.

Apart from parsing ASCII (P2) samples, no step of the bridge loops over
pixels in Python: a raster is checked against its maxval by deleting the
legal sample values with ``bytes.translate`` (whatever is left is out of
range) and quantized by one ``translate`` through a 256-entry table
built from :func:`_quantize` once per file. Header tokens and ASCII samples must be plain decimal
digits, so a sign or an underscore that :func:`int` would take is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError
from .lattice import _NIBBLES, Lattice


@dataclass(frozen=True)
class GrayImage:
    """Row-major pixels, one byte each, values 0..15."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise FormatError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise FormatError(
                f"expected {self.width * self.height} pixels, got {len(self.pixels)}"
            )
        if self.pixels.translate(None, _NIBBLES):
            raise FormatError("pixel values must be 0..15")


def lattice_to_image(lat: Lattice) -> GrayImage:
    """Cell (row, col) becomes pixel (x=col, y=row), same byte layout."""
    return GrayImage(lat.side, lat.side, lat.cells)


def image_to_lattice(image: GrayImage) -> Lattice:
    if image.width != image.height:
        raise FormatError(
            f"lattice image must be square, got {image.width}x{image.height}"
        )
    n = image.width.bit_length() - 1
    if image.width != 1 << n or n < 1:
        raise FormatError(
            f"lattice image side must be a power of two >= 2, got {image.width}"
        )
    return Lattice(n, image.pixels)


def _quantize(value: int, maxval: int) -> int:
    # Nearest level in 0..15, ties rounding up; identity when maxval is 15.
    return (value * 30 + maxval) // (2 * maxval)


def _parse_header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """Return (magic, width, height, maxval, raster offset) of a PGM."""
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in b"25":
        raise FormatError("not a PGM file (expected P2 or P5)")
    magic = data[:2]
    fields = []
    i = 2
    while len(fields) < 3:
        # Skip whitespace and # comments between header tokens.
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i] == ord("#"):
            end = data.find(b"\n", i)
            i = len(data) if end < 0 else end + 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("truncated PGM header")
        token = data[start:i]
        try:
            # Plain ASCII decimal only: int() would also take a sign or "_".
            if not token.isdigit():
                raise ValueError
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"bad PGM header token {token!r}") from None
    if i >= len(data):
        raise FormatError("truncated PGM header")
    i += 1  # single whitespace byte separates the header from the raster
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError("PGM dimensions must be positive")
    if maxval < 1 or maxval > 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    return magic, width, height, maxval, i


def read_pgm(path: str | Path) -> GrayImage:
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _parse_header(data)
    count = width * height
    if magic == b"P5":
        raster = data[offset:offset + count]
        if len(raster) < count:
            raise FormatError("PGM raster shorter than header promises")
        # What survives deleting 0..maxval is out of range, in raster order.
        over = raster.translate(None, bytes(range(maxval + 1)))
        if over:
            raise FormatError(f"sample {over[0]} exceeds maxval {maxval}")
    else:
        samples = data[offset - 1:].split()[:count]
        if len(samples) < count:
            raise FormatError("PGM raster shorter than header promises")
        try:
            values = [int(t) for t in samples]
        except ValueError:
            raise FormatError("bad sample in ASCII PGM") from None
        if min(values) < 0:
            raise FormatError(f"negative sample {min(values)} in ASCII PGM")
        # split() leaves no empty token, so the join is all digits exactly
        # when every sample is; this refuses "+3", "1_0" and "-0".
        if not b"".join(samples).isdigit():
            raise FormatError("bad sample in ASCII PGM")
        if max(values) > maxval:
            first = next(v for v in values if v > maxval)
            raise FormatError(f"sample {first} exceeds maxval {maxval}")
        raster = bytes(values)
    # Samples above maxval were refused, so clamping their entries is moot.
    table = bytes(_quantize(min(v, maxval), maxval) for v in range(256))
    return GrayImage(width, height, raster.translate(table))


def write_pgm(image: GrayImage, path: str | Path) -> None:
    header = f"P5 {image.width} {image.height} 15\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels)
