"""Word-parallel HPP engine on direction bit planes.

Each direction (E, S, W, N) gets one plane holding one bit per cell. The
2^n rows are packed back to back into a single arbitrary-precision
integer, 2^n bits per row, so bit r*2^n + c is cell (row r, col c) and
the machine operates on whole rows of packed words at once:

* collision is one bitwise expression over the four planes,
* E/W propagation is a masked shift that rotates every row by one bit,
* N/S propagation is a shift by a whole row (with the edge row wrapped),
* velocity inversion just swaps plane references.

A lattice is the bare tuple (e, s, w, n) of its four planes:
:func:`planes_from_block` and :func:`planes_to_block` convert to and from
the cipher's block serialization, and the ``*_planes`` kernels take and
return plane tuples, so the cipher's round loop builds no objects.

Results are bit-identical to the per-cell engine in
:mod:`hppcrypt.lattice`; the test suite proves it primitive by primitive.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ParameterError
from .lattice import check_walls


@lru_cache(maxsize=None)
def geometry(n: int) -> tuple[int, ...]:
    """Plane masks of a 2^n lattice, as the tuple (side, size, full, row0,
    col_first, col_last, not_col_first, not_col_last): size = side^2 bits
    per plane, full has all of them set, row0 the top row, col_first and
    col_last column 0 and column side-1 of every row, and the not_ masks
    their complements within full."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    side = 1 << n
    size = side * side
    full = (1 << size) - 1
    row0 = (1 << side) - 1
    col_first = sum(1 << (r * side) for r in range(side))
    col_last = col_first << (side - 1)
    return (
        side, size, full, row0,
        col_first, col_last,
        full ^ col_first, full ^ col_last,
    )


def _pack_plane(bits: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def planes_from_block(block: bytes, n: int) -> tuple[int, int, int, int]:
    """Straight from the two-cells-per-byte serialization to planes."""
    pairs = np.frombuffer(block, dtype=np.uint8)
    cells = np.empty(pairs.size * 2, dtype=np.uint8)
    cells[0::2] = pairs >> 4
    cells[1::2] = pairs & 0xF
    return tuple(_pack_plane((cells >> shift) & 1) for shift in (3, 2, 1, 0))


# _SPREAD[b] holds the eight cells of one plane byte b (cell i at bit i)
# as four little-endian block bytes: byte j gets cell 2j at bit 4 and cell
# 2j+1 at bit 0, i.e. the bit of that plane's direction before it is
# shifted to its place in the cell nibble.
_SPREAD = np.array(
    [
        sum(
            (((b >> (2 * j)) & 1) << 4 | ((b >> (2 * j + 1)) & 1)) << (8 * j)
            for j in range(4)
        )
        for b in range(256)
    ],
    dtype="<u4",
)


def planes_to_block(planes: tuple[int, int, int, int], n: int) -> bytes:
    """Inverse of :func:`planes_from_block`."""
    size = 1 << (2 * n)
    # One table lookup for the four planes laid end to end, one row per
    # plane; E, S, W, N are then shifted into nibble bits 3 to 0 in place,
    # which keeps the peak memory at a few copies of the block.
    raw = b"".join(plane.to_bytes((size + 7) // 8, "little") for plane in planes)
    spread = _SPREAD[np.frombuffer(raw, dtype=np.uint8).reshape(4, -1)]
    cells = spread[0]
    cells <<= 1
    cells |= spread[1]
    cells <<= 1
    cells |= spread[2]
    cells <<= 1
    cells |= spread[3]
    return cells.tobytes()[: size // 2]


def wall_mask(walls: Iterable[tuple[int, int]], n: int) -> int:
    """Plane mask with one bit set per wall cell."""
    walls = check_walls(walls, n)
    side = 1 << n
    mask = 0
    for row, col in walls:
        mask |= 1 << (row * side + col)
    return mask


def collide_planes(e: int, s: int, w: int, n: int) -> tuple[int, int, int, int]:
    # A colliding cell (exactly E+W or exactly S+N) toggles all four bits.
    flip = (e & w & ~(s | n)) | (s & n & ~(e | w))
    return e ^ flip, s ^ flip, w ^ flip, n ^ flip


def propagate_planes(
    e: int, s: int, w: int, n: int, geom: tuple
) -> tuple[int, int, int, int]:
    side, size, full, row0, col_first, col_last, not_col_first, not_col_last = geom
    tail = size - side
    e = ((e & not_col_last) << 1) | ((e & col_last) >> (side - 1))
    w = ((w & not_col_first) >> 1) | ((w & col_first) << (side - 1))
    s = ((s << side) & full) | (s >> tail)
    n = (n >> side) | ((n & row0) << tail)
    return e, s, w, n


def reflect_planes(
    e: int, s: int, w: int, n: int, mask: int
) -> tuple[int, int, int, int]:
    keep = ~mask
    return (
        (e & keep) | (w & mask),
        (s & keep) | (n & mask),
        (w & keep) | (e & mask),
        (n & keep) | (s & mask),
    )


def invert_planes(e: int, s: int, w: int, n: int) -> tuple[int, int, int, int]:
    return w, n, e, s

