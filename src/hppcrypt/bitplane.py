"""Word-parallel HPP engine on direction bit planes, B lattices at once.

Each direction (E, S, W, N) gets one plane holding one bit per cell. The
2^n rows of a lattice are packed back to back into a single
arbitrary-precision integer, 2^n bits per row, so bit r*2^n + c is cell
(row r, col c). A batch of B lattices of the same n lies back to back in
the same four integers: lattice b occupies bits [b*4^n, (b+1)*4^n) of
every plane, which is exactly the cell order of B blocks laid end to end
in the cipher's serialization. One bitwise operation then advances every
row of every lattice at once (bit-slicing, as in Biham's DES):

* the cell-local step M (collision, then reflection on wall cells) is
  one fused kernel, :func:`collide_planes`: with f the collision flip
  and `mask` the wall cells, d = f ^ ((e ^ w) & mask) toggles E and W,
  and likewise for S and N,
* E/W propagation is a masked shift that rotates every row by one bit,
* N/S propagation is a shift by a whole row, with the edge row of each
  lattice wrapped to the other edge of the same lattice,
* velocity inversion just swaps plane references.

A batch is the bare tuple (e, s, w, n) of its four planes:
:func:`planes_from_block` and :func:`planes_to_block` convert to and from
the cipher's block serialization, :func:`wall_mask` builds the wall plane
of a batch from one wall set per lattice, and the ``*_planes`` kernels
take and return plane tuples, so the cipher's round loop builds no
objects. :func:`reflect_planes` is reflection alone, the half of M that
:func:`collide_planes` fuses in.

Results are bit-identical to the per-cell engine in
:mod:`hppcrypt.lattice`; the test suite proves it primitive by primitive
and lattice by lattice within a batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .lattice import check_walls


def _tile(pattern: int, width: int, count: int) -> int:
    """`count` copies of a `width`-bit pattern laid back to back."""
    return pattern * (((1 << (width * count)) - 1) // ((1 << width) - 1))


@lru_cache(maxsize=8)
def geometry(n: int, lattices: int = 1) -> tuple[int, ...]:
    """Plane masks of a batch of `lattices` 2^n lattices, as the tuple
    (side, tail, col_first, col_last, row_first, row_last): side = 2^n
    bits per row, tail = 4^n - side the shift from a lattice's first row
    to its last, col_first and col_last column 0 and column side-1 of
    every row, row_first and row_last row 0 and row side-1 of every
    lattice."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    if lattices < 1:
        raise ParameterError(f"a batch holds at least 1 lattice, got {lattices}")
    side = 1 << n
    size = side * side
    tail = size - side
    col_first = _tile(1, side, side * lattices)
    row_first = _tile((1 << side) - 1, size, lattices)
    return (
        side, tail,
        col_first, col_first << (side - 1),
        row_first, row_first << tail,
    )


def _pack_plane(bits: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def planes_from_block(block: bytes) -> tuple[int, int, int, int]:
    """Straight from the two-cells-per-byte serialization to planes; a
    run of B blocks gives the planes of a batch of B lattices."""
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


def planes_to_block(planes: tuple[int, int, int, int], cells: int) -> bytes:
    """Inverse of :func:`planes_from_block` for planes of `cells` cells
    (4^n per lattice, times the lattices of a batch)."""
    # One table lookup for the four planes laid end to end, one row per
    # plane; E, S, W, N are then shifted into nibble bits 3 to 0 in place,
    # which keeps the peak memory at a few copies of the block.
    raw = b"".join(plane.to_bytes((cells + 7) // 8, "little") for plane in planes)
    spread = _SPREAD[np.frombuffer(raw, dtype=np.uint8).reshape(4, -1)]
    out = spread[0]
    out <<= 1
    out |= spread[1]
    out <<= 1
    out |= spread[2]
    out <<= 1
    out |= spread[3]
    return out.tobytes()[: cells // 2]


def wall_mask(wall_sets: Sequence[Iterable[tuple[int, int]]], n: int) -> int:
    """Wall plane of a batch: one bit set per wall cell, lattice b's walls
    taken from wall_sets[b]."""
    side = 1 << n
    size = side * side
    bits = np.zeros(len(wall_sets) * size, dtype=np.uint8)
    bits[[
        b * size + row * side + col
        for b, walls in enumerate(wall_sets)
        for row, col in check_walls(walls, n)
    ]] = 1
    return _pack_plane(bits)


def collide_planes(
    e: int, s: int, w: int, n: int, mask: int
) -> tuple[int, int, int, int]:
    """The cell-local step M: collide every cell, then reflect the wall
    cells in `mask` (0 for collision alone)."""
    # A colliding cell (exactly E+W or exactly S+N) toggles all four bits;
    # a wall cell then swaps E with W and S with N, i.e. toggles both
    # where the two differ. d is the toggle of both steps together.
    flip = (e & w & ~(s | n)) | (s & n & ~(e | w))
    d = flip ^ ((e ^ w) & mask)
    e ^= d
    w ^= d
    d = flip ^ ((s ^ n) & mask)
    return e, s ^ d, w, n ^ d


def propagate_planes(
    e: int, s: int, w: int, n: int, geom: tuple
) -> tuple[int, int, int, int]:
    side, tail, col_first, col_last, row_first, row_last = geom
    # Each plane's edge bits x wrap to the opposite edge of the same row
    # (E, W) or of the same lattice (S, N); the others shift by one cell.
    x = e & col_last
    e = ((e ^ x) << 1) | (x >> (side - 1))
    x = w & col_first
    w = ((w ^ x) >> 1) | (x << (side - 1))
    x = s & row_last
    s = ((s ^ x) << side) | (x >> tail)
    x = n & row_first
    n = ((n ^ x) >> side) | (x << tail)
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
