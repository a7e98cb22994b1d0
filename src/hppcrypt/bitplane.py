"""Word-parallel HPP engine on direction bit planes, B lattices at once.

Each direction (E, S, W, N) gets one plane holding one bit per cell, an
arbitrary-precision integer. A batch of B lattices of the same n is laid
out row-interleaved: row r of lattice b occupies the 2^n bits starting at
(r*B + b)*2^n of every plane, so cell (r, c) of lattice b is bit
(r*B + b)*2^n + c. Row r of every lattice thus forms one contiguous row
block of B*2^n bits, and one bitwise operation advances every row of every
lattice at once (bit-slicing, as in Biham's DES):

* the cell-local step M (collision, then reflection on wall cells) is
  one fused kernel, :func:`collide_planes`, of 14 bitwise operations on
  non-negative integers,
* E/W propagation is a masked shift that rotates every row by one bit,
* N/S propagation is a shift by one row block, with only the top or the
  bottom row block of the whole batch wrapped to the other end: row
  side-1 of every lattice wraps to row 0 of the same lattice at once,
* velocity inversion just swaps plane references.

A batch is the bare tuple (e, s, w, n) of its four planes:
:func:`planes_from_block` and :func:`planes_to_block` convert to and from
B blocks of the cipher's serialization laid end to end (transposing
lattice-major rows into the row-interleaved order and back),
:func:`wall_mask` builds the wall plane of a batch from one wall set per
lattice (:func:`coordinate_mask` from an array of coordinates),
:func:`plane_bits` unpacks one plane into a (side, B, side) array of bits
(:func:`pack_plane` packs it back), :func:`plane_rows` reads all four
planes as one array of row lanes, each lattice row in words of up to 64
bits, :func:`tile_plane` repeats each lattice of a batch in place, and
the ``*_planes`` kernels take and return plane tuples, so the cipher's
round loop builds no objects. :func:`reflect_planes` is reflection
alone, the half of M that :func:`collide_planes` fuses in.

Results are bit-identical to the per-cell engine in
:mod:`hppcrypt.lattice`; the test suite proves it primitive by primitive
and lattice by lattice within a batch.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ParameterError
from .lattice import check_walls


def _tile(pattern: int, width: int, count: int) -> int:
    """`count` copies of a `width`-bit pattern laid back to back."""
    return pattern * (((1 << (width * count)) - 1) // ((1 << width) - 1))


@lru_cache(maxsize=8)
def geometry(n: int, lattices: int = 1) -> tuple[int, ...]:
    """Shifts and plane masks of a row-interleaved batch of `lattices`
    2^n lattices, as the tuple
    (side, row, top, col_first, col_last, first_row, below_top):
    side = 2^n bits per lattice row, row = lattices*side bits per row
    block (row r of every lattice), top = row*(side-1) the offset of the
    last row block, col_first and col_last column 0 and column side-1 of
    every lattice row, first_row the first row block and below_top every
    row block but the last."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    if lattices < 1:
        raise ParameterError(f"a batch holds at least 1 lattice, got {lattices}")
    side = 1 << n
    row = side * lattices
    top = row * (side - 1)
    col_first = _tile(1, side, side * lattices)
    return (
        side, row, top,
        col_first, col_first << (side - 1),
        (1 << row) - 1, (1 << top) - 1,
    )


def pack_plane(bits: np.ndarray) -> int:
    """The plane whose bit i is bits.flat[i] (nonzero means set): the
    inverse of :func:`plane_bits`."""
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def plane_bits(plane: int, n: int, lattices: int = 1) -> np.ndarray:
    """The cells of one plane of a batch of `lattices` 2^n lattices as 0/1
    bytes of shape (side, lattices, side): [r, b, c] is cell (r, c) of
    lattice b, so the array in C order is the row-interleaved layout."""
    side = 1 << n
    cells = lattices * side * side
    raw = np.frombuffer(plane.to_bytes((cells + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=cells, bitorder="little").reshape(
        side, lattices, side)


def tile_plane(plane: int, n: int, copies: int, lattices: int = 1) -> int:
    """The plane of a batch of lattices*copies 2^n lattices made from the
    plane of a batch of `lattices`: lattice b repeated `copies` times in
    place, as lattices b*copies to (b+1)*copies - 1. Each lattice row is
    repeated within its row block."""
    side = 1 << n
    if side < 8:  # rows narrower than a byte
        return pack_plane(np.repeat(plane_bits(plane, n, lattices), copies, axis=1))
    rows = np.frombuffer(
        plane.to_bytes(lattices * side * side // 8, "little"), dtype=np.uint8)
    return int.from_bytes(
        np.repeat(rows.reshape(side * lattices, 1, -1), copies, axis=1).tobytes(),
        "little")


def plane_rows(planes: Sequence[int], n: int, lattices: int = 1) -> np.ndarray:
    """The four planes of a batch of `lattices` 2^n lattices as row lanes:
    an array of shape (4, side, lattices, words) whose [k, r, b] holds row
    r of lattice b in plane k, column c at bit c, in little-endian words
    of min(side, 64) bits (words = side // 64 from n = 7 on, else 1).
    Rows narrower than a byte (n < 3) are uint8 with the high bits 0."""
    side = 1 << n
    if side < 8:
        return np.packbits(
            [plane_bits(p, n, lattices) for p in planes], axis=-1, bitorder="little")
    width = min(side, 64)
    raw = b"".join(p.to_bytes(lattices * side * side // 8, "little") for p in planes)
    return np.frombuffer(raw, dtype=f"<u{width // 8}").reshape(
        4, side, lattices, side // width)


def _swap_rows(data: np.ndarray, side: int, outer: int) -> np.ndarray:
    """The serialized lattice rows in `data` (side/2 >= 1 whole bytes
    each), read as an (outer, -1) grid and transposed: lattice-major
    blocks to row-interleaved order with outer = lattices, and back with
    outer = side. Rows move as words of up to 8 bytes."""
    unit = min(side // 2, 8)
    return data.view(f"<u{unit}").reshape(
        outer, -1, side // 2 // unit).transpose(1, 0, 2)


def planes_from_block(blocks: bytes, n: int) -> tuple[int, int, int, int]:
    """Straight from the two-cells-per-byte serialization to planes: a run
    of B blocks of a 2^n lattice gives the planes of a batch of B."""
    side = 1 << n
    pairs = np.frombuffer(blocks, dtype=np.uint8)
    pairs = _swap_rows(pairs, side, 2 * pairs.size >> (2 * n)).ravel().view(np.uint8)
    cells = np.empty(pairs.size * 2, dtype=np.uint8)
    cells[0::2] = pairs >> 4
    cells[1::2] = pairs & 0xF
    return tuple(pack_plane((cells >> shift) & 1) for shift in (3, 2, 1, 0))


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


def planes_to_block(
    planes: tuple[int, int, int, int], n: int, lattices: int = 1
) -> bytes:
    """Inverse of :func:`planes_from_block` for a batch of `lattices`
    2^n lattices: their blocks laid end to end."""
    side = 1 << n
    cells = lattices * side * side
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
    return _swap_rows(out.view(np.uint8)[: cells // 2], side, side).tobytes()


def wall_mask(wall_sets: Sequence[Collection[tuple[int, int]]], n: int) -> int:
    """Wall plane of a batch: one bit set per wall cell, lattice b's walls
    taken from wall_sets[b], checked as in :func:`coordinate_mask`."""
    counts = [len(walls) for walls in wall_sets]
    try:
        coords = np.fromiter(
            chain.from_iterable(chain.from_iterable(wall_sets)),
            dtype=np.int64, count=2 * sum(counts),
        ).reshape(-1, 2)
    except OverflowError:  # a coordinate beyond int64 is outside any lattice
        check_walls(chain.from_iterable(wall_sets), n)
        raise
    lattice_of = np.repeat(np.arange(len(wall_sets)), counts)
    return coordinate_mask(coords, lattice_of, len(wall_sets), n)


def coordinate_mask(
    coords: np.ndarray, lattice_of: np.ndarray, lattices: int, n: int,
    odd: bool = False,
) -> int:
    """Plane of a batch of `lattices` lattices with a bit set at each
    (row, col) of the int64 array `coords` (shape (k, 2)), coordinate i
    in lattice lattice_of[i]. A cell listed more than once is set once,
    or with `odd` only if it is listed an odd number of times. Every
    coordinate is bounds-checked in one pass; the first one outside the
    lattice raises the ParameterError of
    :func:`hppcrypt.lattice.check_walls`."""
    side = 1 << n
    # Read as unsigned, a negative coordinate is as far outside as any.
    outside = np.flatnonzero(coords.view(np.uint64) >= side)
    if outside.size:
        check_walls([tuple(coords[outside[0] // 2].tolist())], n)
    index = (coords[:, 0] * lattices + lattice_of) * side + coords[:, 1]
    if odd:  # a cell listed an even number of times cancels
        index, times = np.unique(index, return_counts=True)
        index = index[times & 1 == 1]
    bits = np.zeros(lattices * side * side, dtype=np.uint8)
    bits[index] = 1
    return pack_plane(bits)


def collide_planes(
    e: int, s: int, w: int, n: int, mask: int
) -> tuple[int, int, int, int]:
    """The cell-local step M: collide every cell, then reflect the wall
    cells in `mask` (0 for collision alone)."""
    # A colliding cell (exactly E+W or exactly S+N) toggles all four bits;
    # a wall cell then swaps E with W and S with N, i.e. toggles both
    # where the two differ. d is the toggle of both steps together.
    #
    # The collision flip (e & w & ~(s | n)) | (s & n & ~(e | w)) holds
    # exactly where e == w, s == n and e != s. With a = e ^ w, b = s ^ n
    # and x = e ^ s that is x & ~(a | b), written x ^ (x & (a | b)) so no
    # operand is ever negative: & on a negative int takes CPython's slow
    # two's-complement path. a and b are also the E/W and S/N differences
    # reflection toggles, so M is 14 operations.
    a = e ^ w
    b = s ^ n
    x = e ^ s
    flip = x ^ (x & (a | b))
    d = flip ^ (a & mask)
    e ^= d
    w ^= d
    d = flip ^ (b & mask)
    return e, s ^ d, w, n ^ d


def propagate_planes(
    e: int, s: int, w: int, n: int, geom: tuple
) -> tuple[int, int, int, int]:
    side, row, top, col_first, col_last, first_row, below_top = geom
    # E and W: each plane's edge bits x wrap to the opposite edge of the
    # same lattice row; the others shift by one cell.
    x = e & col_last
    e = ((e ^ x) << 1) | (x >> (side - 1))
    x = w & col_first
    w = ((w ^ x) >> 1) | (x << (side - 1))
    # S and N: every row block shifts by one; the last row block (row
    # side-1 of every lattice) wraps to the first and vice versa.
    s = ((s & below_top) << row) | (s >> top)
    n = (n >> row) | ((n & first_row) << top)
    return e, s, w, n


def reflect_planes(
    e: int, s: int, w: int, n: int, mask: int
) -> tuple[int, int, int, int]:
    # Swapping two bits toggles both where they differ.
    d = (e ^ w) & mask
    t = (s ^ n) & mask
    return e ^ d, s ^ t, w ^ d, n ^ t


def invert_planes(e: int, s: int, w: int, n: int) -> tuple[int, int, int, int]:
    return w, n, e, s
