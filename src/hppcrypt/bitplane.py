"""Word-parallel HPP engine on direction bit planes, B lattices at once.

Each direction (E, S, W, N) gets one plane holding one bit per cell. The
plane of a batch of B lattices of side 2^n is a numpy array of row lanes
of shape (side, B, words): lane [r, b] is row r of lattice b, column c
at bit c. A lane is one uint{side} word for 3 <= n <= 6, one uint8 with
the bits from `side` up kept 0 for n <= 2, and side/64 little-endian
uint64 words from n = 7 on, column c at bit c % 64 of word c // 64. From
n = 3 on the bytes of a plane in C order are the row-interleaved bit
string: cell (r, c) of lattice b is bit (r*B + b)*side + c. One numpy
operation on a plane advances every row of every lattice at once
(bit-slicing, as in Biham's DES):

* the cell-local step M (collision, then reflection on wall cells) is
  one fused kernel, :func:`collide_planes`, of 14 bitwise operations
  that write the four planes in place,
* E/W propagation rotates every lane by one bit: a shift and the bit
  that wraps, in three operations on one-word lanes. The shift toward
  higher columns is an add, x + x, and on uint8 and uint16 lanes
  (n <= 4) the wrapping bit's shift the other way is a multiply: the
  same bits modulo the lane width, which numpy runs faster; below
  n = 3 the row width is masked. From n = 7 on the plane's words are
  shifted as one run, each word taking the carry of its neighbour in
  one pass, and two strided passes at the ends of the lanes take out
  the carries that crossed into the next lane and put in those that
  wrap,
* N/S propagation moves whole rows: two slice copies into another
  array, row side-1 of every lattice wrapping to its row 0 at once,
* velocity inversion just swaps plane references.

A batch is its four planes, one (4, side, B, words) array (which
unpacks like a tuple) or a tuple (e, s, w, n); every plane is
C-contiguous, as all builders here make them. :func:`planes_from_block`
reads B blocks of the cipher's serialization laid end to end into
planes, and is the one step that takes n: every later one, from
:func:`planes_to_block` back to blocks to the kernels, reads the side
and the lattice count from the planes' shape. Both converters take the
whole batch at once, one transpose of row words and one pass through
256-entry tables, with temporaries of at most five block sizes from
n = 3 on (see cipher.BATCH_CELLS). :func:`coordinate_mask` builds wall
planes from int64 (row, col) arrays, as the protocols do from keys, and
:func:`wall_mask` from a wall set, as streams do. Block bit 4c + k (MSB
first) is plane k at cell c = row*side + col: :func:`toggle_bits` flips
such bits in place and :func:`add_bit_counts` counts them over a batch
laid out group-major, so no caller works on a lane itself.

Results are bit-identical to the per-cell engine in
:mod:`hppcrypt.lattice`; the test suite proves it primitive by primitive
and lattice by lattice within a batch.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from itertools import product

import numpy as np

from .errors import ParameterError
from .lattice import check_walls

def lane_layout(n: int) -> tuple[np.dtype, int]:
    """The lane dtype and the words per lane of a 2^n lattice's planes."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    side = 1 << n
    if side > 64:
        return np.dtype("<u8"), side // 64
    return np.dtype(f"<u{max(1, side // 8)}"), 1


# A block byte holds two cells, 2j in the high nibble and 2j+1 in the low
# one, each with E, S, W, N at bits 3 to 0; a plane byte holds the eight
# cells of four block bytes. _GATHER[j][v] holds the two cells of block
# byte v for every plane, byte k of the word for plane k, at bits 2j and
# 2j+1: where they go when v is the j-th of those four block bytes.
_BYTE = np.arange(256, dtype="<u4")
_GATHER = sum(
    (((_BYTE >> (7 - k)) & 1) | ((_BYTE >> (3 - k)) & 1) << 1) << (8 * k)
    for k in range(4)
) << np.arange(0, 8, 2, dtype="<u4")[:, None]

# _SPREAD[k][b] holds the eight cells of byte b of plane k (cell i at bit
# i) as four little-endian block bytes: byte j gets cell 2j at bit 4 and
# cell 2j+1 at bit 0, shifted up to the nibble bit 3-k of plane k.
_SPREAD = sum(
    (((_BYTE >> (2 * j)) & 1) << 4 | ((_BYTE >> (2 * j + 1)) & 1)) << (8 * j)
    for j in range(4)
) << np.arange(3, -1, -1, dtype="<u4")[:, None]


def _row_words(data: np.ndarray, side: int) -> np.ndarray:
    """Lattice rows of side `side`, bytes on the last axis, viewed as
    words of up to 8 bytes, so that a transpose moves whole words."""
    return data.view(f"<u{min(side // 2, 8)}")


def planes_from_block(blocks: bytes, n: int) -> np.ndarray:
    """Straight from the two-cells-per-byte serialization to planes: a run
    of B blocks of a 2^n lattice gives the (4, side, B, words) planes of a
    batch of B."""
    side = 1 << n
    dtype, _ = lane_layout(n)
    data = np.frombuffer(blocks, dtype=np.uint8)
    rows = _row_words(data.reshape(-1, side, side // 2), side)
    lattices = rows.shape[0]
    # every lattice's rows, row-interleaved, as runs of the block bytes
    # of one plane byte
    src = np.ascontiguousarray(rows.swapaxes(0, 1))
    src = src.view(np.uint8).reshape(-1, min(4, side // 2))
    acc = _GATHER[0].take(src[:, 0])
    for j in range(1, src.shape[1]):
        acc |= _GATHER[j].take(src[:, j])
    # byte k of each acc word is plane k's
    planes = np.moveaxis(acc.view(np.uint8).reshape(side, lattices, -1, 4), -1, 0)
    return np.ascontiguousarray(planes).view(dtype)


def planes_to_block(planes: Sequence[np.ndarray]) -> bytes:
    """Inverse of :func:`planes_from_block`: the blocks of a batch's
    planes laid end to end."""
    lanes = np.asarray(planes).view(np.uint8)
    side = lanes.shape[1]
    acc = _SPREAD[0].take(lanes[0])
    for k in range(1, 4):
        acc |= _SPREAD[k].take(lanes[k])
    # four block bytes per plane byte; below n = 3 a row is fewer
    cells = acc.view(np.uint8).reshape(acc.shape[:2] + (-1,))[..., :side // 2]
    return _row_words(cells, side).swapaxes(0, 1).tobytes()


def wall_mask(walls: Collection[tuple[int, int]], n: int) -> np.ndarray:
    """Wall plane (side, 1, words) of one lattice with the wall set
    `walls`, checked by :func:`hppcrypt.lattice.check_walls`."""
    coords = np.array(list(check_walls(walls, n)), dtype=np.int64).reshape(1, -1, 2)
    return coordinate_mask(coords, n)


def coordinate_mask(coords: np.ndarray, n: int, odd: bool = False) -> np.ndarray:
    """Plane of a batch with a bit set at each (row, col) of the int64
    array `coords` of shape (lattices, k, 2), row b holding lattice b's
    coordinates. A cell listed more than once is set once, or with `odd`
    only if it is listed an odd number of times. Every coordinate is
    bounds-checked in one pass; the first one outside the lattice raises
    the ParameterError of :func:`hppcrypt.lattice.check_walls`."""
    side = 1 << n
    # Read as unsigned, a negative coordinate is as far outside as any.
    outside = np.flatnonzero(coords.view(np.uint64) >= side)
    if outside.size:
        check_walls([tuple(coords.reshape(-1, 2)[outside[0] // 2].tolist())], n)
    dtype, words = lane_layout(n)
    lane_bytes = dtype.itemsize * words
    lattices = len(coords)
    row, col = coords[..., 0], coords[..., 1]
    index = (row * lattices + np.arange(lattices)[:, None]) * lane_bytes + (col >> 3)
    raw = np.zeros(side * lattices * lane_bytes, dtype=np.uint8)
    # XOR leaves a cell set iff it is listed an odd number of times
    (np.bitwise_xor if odd else np.bitwise_or).at(
        raw, index, np.left_shift(1, col & 7).astype(np.uint8))
    return raw.view(dtype).reshape(side, lattices, words)


def _check_indices(name: str, values, stop: int) -> None:
    """Raise a ParameterError naming the first of `values` outside [0, stop)."""
    # Read as unsigned, a negative index is as far outside as any.
    values = np.asarray(values, dtype=np.int64).reshape(-1).view(np.uint64)
    if values.size and values.max() >= stop:
        bad = values[values >= stop][0].astype(np.int64)
        raise ParameterError(f"{name} {bad} outside [0, {stop})")


def toggle_bits(planes: np.ndarray, bits, lattice_of) -> None:
    """Toggle, in place, block bit bits[i] of lattice lattice_of[i] of the
    (4, side, B, words) planes of a batch, the two arrays broadcast
    against each other; a bit listed twice is toggled twice. A bit
    outside the block or a lattice outside the batch raises a
    ParameterError before any bit is toggled. One plane of shape (side,
    B, words), as plane[None], toggles at cell c for block bit 4c."""
    _, side, lattices, words = planes.shape
    _check_indices("block bit", bits, 4 * side * side)
    _check_indices("lattice", lattice_of, lattices)
    # the indices are checked non-negative: shifts divide by powers of two
    cell, k = np.right_shift(bits, 2), np.bitwise_and(bits, 3)
    row, col = cell >> side.bit_length() - 1, cell & side - 1
    index = ((k * side + row) * lattices + lattice_of) * (planes.itemsize * words)
    np.bitwise_xor.at(planes.view(np.uint8).reshape(-1), index + (col >> 3),
                      np.left_shift(1, col & 7).astype(np.uint8))


def add_bit_counts(lanes: np.ndarray, counts: np.ndarray) -> None:
    """Add to counts[4c + k, t] the number of lattices l whose block bit
    4c + k is set in lanes[t, :, :, l], the planes of T groups of L
    lattices, group-major: (T, 4, side, L, words). counts, (block bits,
    T), may be a column slice; it is added to in place. Lattices are
    summed 255 at a time, copied lattice axis first: for j < min(8,
    side), (lanes >> j) & 0x0101...01 leaves in byte q of a word the bit
    of column 8q + j, and the sum of these fields in the lane dtype
    counts each such column in its byte, which 255 lattices cannot carry
    past 255. Temporaries: two chunk copies and a byte per cell and
    group."""
    groups, _, side = lanes.shape[:3]
    fields = min(8, side)
    # [r, q, j, k, t]: plane k at cell (r, 8q + j) of group t, a view
    counts = counts.reshape(side, -1, fields, 4, groups)
    ones = lanes.dtype.type(np.iinfo(lanes.dtype).max // 255)  # 0x0101...01
    # [j, t, r, w]: the field sums of word w of row r
    sums = np.empty((fields, groups, side) + lanes.shape[4:], lanes.dtype)
    for k, a in product(range(4), range(0, lanes.shape[3], 255)):
        # [b, t, r, w]: plane k of lattice a + b of each group, b first
        chunk = np.ascontiguousarray(np.moveaxis(lanes[:, k, :, a:a + 255], 2, 0))
        field = np.empty_like(chunk)
        for j in range(fields):
            np.bitwise_and(np.right_shift(chunk, j, out=field), ones, out=field)
            field.sum(axis=0, dtype=field.dtype, out=sums[j])
        # byte q of a summed word: [j, t, r, q] -> [r, q, j, t]
        counts[..., k, :] += sums.view(np.uint8).transpose(2, 3, 0, 1)


def collide_planes(e, s, w, n, mask):
    """The cell-local step M, in place on the four planes: collide every
    cell, then reflect the wall cells in `mask` (0 for collision alone)."""
    # A colliding cell (exactly E+W or exactly S+N) toggles all four bits;
    # a wall cell then swaps E with W and S with N, i.e. toggles both
    # where the two differ. The collision flip
    # (e & w & ~(s | n)) | (s & n & ~(e | w)) holds exactly where e == w,
    # s == n and e != s: with a = e ^ w, b = s ^ n and x = e ^ s that is
    # x & ~(a | b). a and b are also the E/W and S/N differences
    # reflection toggles, so M is 14 operations.
    a = e ^ w
    b = s ^ n
    x = e ^ s
    flip = np.bitwise_or(a, b)
    np.invert(flip, out=flip)
    flip &= x
    a &= mask
    a ^= flip
    b &= mask
    b ^= flip
    e ^= a
    s ^= b
    w ^= a
    n ^= b


def _rotate(lanes, up: bool, out, top: int):
    """Every lane of a plane rotated by one column, toward higher columns
    if `up`, written into `out`: each word shifted by one bit, and the
    bit it shifts out entering the next word of its lane, the last
    word's wrapping to the first. Bit `top` of a lane's last word holds
    its last column."""
    # Modulo the lane width x + x is x << 1 and x * 2^top is x << top.
    # numpy's add is faster than its left shift on every lane dtype, its
    # multiply only on uint8 and uint16.
    if up:
        carry = lanes >> top
        np.add(lanes, lanes, out=out)
    else:
        carry = lanes * (1 << top) if lanes.itemsize < 4 else lanes << top
        np.right_shift(lanes, 1, out=out)
    words = lanes.shape[-1]
    if words == 1:
        out |= carry
    else:
        # The lanes as one run of words, each taking the carry of its
        # neighbour; then, at the ends of each lane, the carry that crossed
        # into the next lane is taken out again (the bit was 0 before the
        # OR) and the one that wraps is put in.
        flat, carry = out.reshape(-1), carry.reshape(-1)
        if up:
            flat[1:] |= carry[:-1]
            flat[words::words] ^= carry[words - 1:-1:words]
            flat[::words] |= carry[words - 1::words]
        else:
            flat[:-1] |= carry[1:]
            flat[words - 1:-1:words] ^= carry[words::words]
            flat[words - 1::words] |= carry[::words]
    if top < 7:  # a row of fewer than 8 columns keeps the bits above it 0
        out &= (2 << top) - 1


def propagate_planes(e, s, w, n, out):
    """The propagation step P: E and W rotate every row by one column, S
    and N move every row by one row. Writes the planes into the four
    arrays of `out`; E and W may be written in place, S and N must go to
    other arrays."""
    oe, os_, ow, on = out
    # row r moves to r+1 (S) or r-1 (N); the edge row wraps
    os_[1:] = s[:-1]
    os_[0] = s[-1]
    on[:-1] = n[1:]
    on[-1] = n[0]
    top = min(len(e), 64) - 1
    _rotate(e, True, oe, top)
    _rotate(w, False, ow, top)


def reflect_planes(e, s, w, n, mask):
    """Reflection alone, the half of M that :func:`collide_planes` fuses
    in: swap E with W and S with N on the wall cells in `mask`. No longer
    called by the program; it stays for perfbench's TARGETS and the tests."""
    # Swapping two bits toggles both where they differ.
    d = (e ^ w) & mask
    t = (s ^ n) & mask
    return e ^ d, s ^ t, w ^ d, n ^ t


def invert_planes(e, s, w, n):
    return w, n, e, s
