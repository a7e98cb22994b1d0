"""Word-parallel HPP engine on direction bit planes, B lattices at once.

Each direction (E, S, W, N) gets one plane holding one bit per cell. The
plane of a batch of B lattices of side 2^n is a numpy array of shape
(words, side, B): [w, r, b] is word w of row r of lattice b, and column
c of a row sits at bit c // words of its word c % words. For n <= 6 a
row is one word, column c at bit c: one uint{side} for 3 <= n <= 6, and
one uint8 with the bits from `side` up kept 0 for n <= 2. From n = 7 on
a row is side/64 little-endian uint64 words, column-interleaved:
columns c and c + 1 sit at the same bit of words next to each other, and
the words are the outermost axis. For 3 <= n <= 6 the bytes of a plane
in C order are the row-interleaved bit string, cell (r, c) of lattice b
at bit (r*B + b)*side + c; from n = 7 on a plane is word-major, and that
no longer holds. One numpy operation on a plane advances every row of
every lattice at once (bit-slicing, as in Biham's DES):

* each step of a round is built once as a list of (ufunc, args) calls,
  every output given and every view, wrapping word row and shift
  constant fixed at build time: :func:`collide_calls` for M and
  :func:`propagate_calls` for P. The calls write only into the planes,
  the arrays given for output and a scratch of four planes, so
  replaying a list (:func:`run_calls`) allocates nothing; the cipher's
  round loop builds its two round plans once, by :func:`round_plans`,
  and replays them. A round is 24 calls from n = 3 to 6, 26 below n = 3
  and from n = 7 on.
  :func:`collide_planes` and :func:`propagate_planes` build and run one
  list once, the steps' one-step entry points,
* the cell-local step M (collision, then reflection on wall cells) is
  one fused kernel of 14 bitwise operations that write the four planes
  in place,
* E/W propagation rotates every row by one column. On one-word rows it
  is a shift and the bit that wraps, in three operations. The shift
  toward higher columns is an add, x + x, and on uint8 and uint16 rows
  (n <= 4) the wrapping bit's shift the other way is a multiply: the
  same bits modulo the word width, which numpy runs faster; below
  n = 3 the row width is masked, one operation more. From n = 7 on,
  word w of every row moves to word w + 1 (or w - 1) in one contiguous
  copy of words - 1 word rows, and only the word that wraps from one
  end of the row to the other rotates by one bit, in the same three
  operations,
* N/S propagation moves whole rows: two slice copies into another
  array, row side-1 of every lattice wrapping to its row 0 at once,
* velocity inversion just swaps plane references.

A batch is its four planes, one (4, words, side, B) array (which
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
    """The word dtype and the words per row of a 2^n lattice's planes."""
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

# From n = 7 on, block byte q*words/2 + i of a row holds column
# q*words + 2i in its high nibble and the next column in its low one: bit
# q of words 2i and 2i+1 of the row. Byte p = 4h + k of _WIDE_GATHER[v] is
# bit 7 - p of block byte v at bit 0, plane k of nibble h (0 high, 1 low);
# shifted up by j, the bits of eight block bytes q = 8g + j gather into
# byte g of every plane's two words. Byte j of _WIDE_SPREAD[v] is bit j
# of v at bit 0; shifted up by 7 - p, plane byte g of word 2i + h of plane
# k spreads over the nibble bits of its eight block bytes q = 8g + j.
_BITS = np.arange(256, dtype=np.uint8)[:, None]
_WIDE_GATHER = np.unpackbits(_BITS, axis=1).view("<u8")[:, 0]
_WIDE_SPREAD = np.unpackbits(_BITS, axis=1, bitorder="little").view("<u8")[:, 0]


def _row_words(data: np.ndarray, side: int) -> np.ndarray:
    """Lattice rows of side `side`, bytes on the last axis, viewed as
    words of up to 8 bytes, so that a transpose moves whole words."""
    return data.view(f"<u{min(side // 2, 8)}")


def planes_from_block(blocks: bytes, n: int) -> np.ndarray:
    """Straight from the two-cells-per-byte serialization to planes: a run
    of B blocks of a 2^n lattice gives the (4, words, side, B) planes of
    a batch of B."""
    side = 1 << n
    dtype, words = lane_layout(n)
    data = np.frombuffer(blocks, dtype=np.uint8)
    rows = _row_words(data.reshape(-1, side, side // 2), side)
    lattices = rows.shape[0]
    # every lattice's rows, row-interleaved, as runs of the block bytes
    # of one plane byte
    src = np.ascontiguousarray(rows.swapaxes(0, 1))
    if words > 1:
        return _wide_planes(src.view(np.uint8), words)
    src = src.view(np.uint8).reshape(-1, min(4, side // 2))
    acc = _GATHER[0].take(src[:, 0])
    for j in range(1, src.shape[1]):
        acc |= _GATHER[j].take(src[:, j])
    # byte k of each acc word is plane k's
    planes = np.moveaxis(acc.view(np.uint8).reshape(side, lattices, -1, 4), -1, 0)
    return np.ascontiguousarray(planes).view(dtype).reshape(4, 1, side, lattices)


def _wide_planes(rows: np.ndarray, words: int) -> np.ndarray:
    """planes_from_block from n = 7 on, of the (side, B, side/2) block
    bytes of a batch, rows row-interleaved: eight lookups, each over one
    block byte in eight, gather every plane byte into a uint64 word, and
    one transposing copy moves each byte of those words to its plane."""
    side, lattices = rows.shape[:2]
    # [t, j, i]: block byte (8g + j)*words/2 + i of row t // 8, for g = t % 8
    src = rows.reshape(-1, 8, words // 2)
    acc = _WIDE_GATHER.take(src[:, 0].T)
    for j in range(1, 8):
        acc |= (_WIDE_GATHER << np.uint64(j)).take(src[:, j].T)
    # [i, t, h, k]: byte g of word 2i + h of plane k
    cells = acc.view(np.uint8).reshape(words // 2, -1, 2, 4)
    planes = np.ascontiguousarray(cells.transpose(3, 0, 2, 1))
    return planes.view("<u8").reshape(4, words, side, lattices)


def planes_to_block(planes: Sequence[np.ndarray]) -> bytes:
    """Inverse of :func:`planes_from_block`: the blocks of a batch's
    planes laid end to end."""
    lanes = np.asarray(planes)
    _, words, side, lattices = lanes.shape
    if words > 1:
        rows = _wide_rows(lanes)
    else:
        lanes = lanes.reshape(4, side, lattices, 1).view(np.uint8)
        acc = _SPREAD[0].take(lanes[0])
        for k in range(1, 4):
            acc |= _SPREAD[k].take(lanes[k])
        # four block bytes per plane byte; below n = 3 a row is fewer
        rows = acc.view(np.uint8).reshape(side, lattices, -1)[..., :side // 2]
    return _row_words(rows, side).swapaxes(0, 1).tobytes()


def _wide_rows(lanes: np.ndarray) -> np.ndarray:
    """The (side, B, side/2) block bytes of the (4, words, side, B) planes
    of a batch from n = 7 on, rows row-interleaved: the inverse of
    _wide_planes, eight lookups, each over the bytes of one nibble bit of
    every block byte, and for words > 2 copies that interleave the bytes
    of words 2i and 2i + 1 for each i."""
    _, words, side, lattices = lanes.shape
    # [k, i, h, t]: byte g = t % 8 of word 2i + h of plane k
    src = lanes.view(np.uint8).reshape(4, words // 2, 2, -1)
    acc = (_WIDE_SPREAD << np.uint64(7)).take(src[0, :, 0])
    for p in range(1, 8):
        h, k = divmod(p, 4)
        acc |= (_WIDE_SPREAD << np.uint64(7 - p)).take(src[k, :, h])
    # [i, t, j]: block byte (8g + j)*words/2 + i of row t // 8
    cells = acc.view(np.uint8).reshape(words // 2, -1, 8)
    if words == 2:
        return cells.reshape(side, lattices, -1)
    # one strided copy per i: numpy runs these 1.5 to 5 times faster
    # than one transposing copy of cells
    rows = np.empty(cells.shape[1:] + (words // 2,), np.uint8)
    for i in range(words // 2):
        rows[..., i] = cells[i]
    return rows.reshape(side, lattices, -1)


def wall_mask(walls: Collection[tuple[int, int]], n: int) -> np.ndarray:
    """Wall plane (words, side, 1) of one lattice with the wall set
    `walls`, checked by :func:`hppcrypt.lattice.check_walls`."""
    coords = np.array(list(check_walls(walls, n)), dtype=np.int64).reshape(1, -1, 2)
    return coordinate_mask(coords, n)


def _cell_bytes(plane, row, col, lattice, shape, itemsize: int):
    """The byte offsets into C-ordered planes of `shape` (planes, words,
    side, lattices) of words of `itemsize` bytes, and the bit masks in
    those bytes, of cell (row, col) of lattice `lattice` in plane `plane`:
    column c is bit c // words of word c % words."""
    _, words, side, lattices = shape
    if words > 1:  # row r of word w is word row w*side + r of the plane
        row = (col & words - 1) * side + row
        col = col >> words.bit_length() - 1
    index = ((plane * (words * side) + row) * lattices + lattice) * itemsize
    return index + (col >> 3), np.left_shift(1, col & 7).astype(np.uint8)


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
    shape = (1, words, side, len(coords))
    lattice = np.arange(len(coords))[:, None]
    index, bit = _cell_bytes(0, coords[..., 0], coords[..., 1], lattice, shape,
                             dtype.itemsize)
    raw = np.zeros(words * side * len(coords) * dtype.itemsize, dtype=np.uint8)
    # XOR leaves a cell set iff it is listed an odd number of times
    (np.bitwise_xor if odd else np.bitwise_or).at(raw, index, bit)
    return raw.view(dtype).reshape(shape[1:])


def _check_indices(name: str, values, stop: int) -> None:
    """Raise a ParameterError naming the first of `values` outside [0, stop)."""
    # Read as unsigned, a negative index is as far outside as any.
    values = np.asarray(values, dtype=np.int64).reshape(-1).view(np.uint64)
    if values.size and values.max() >= stop:
        bad = values[values >= stop][0].astype(np.int64)
        raise ParameterError(f"{name} {bad} outside [0, {stop})")


def toggle_bits(planes: np.ndarray, bits, lattice_of) -> None:
    """Toggle, in place, block bit bits[i] of lattice lattice_of[i] of the
    (4, words, side, B) planes of a batch, the two arrays broadcast
    against each other; a bit listed twice is toggled twice. A bit
    outside the block or a lattice outside the batch raises a
    ParameterError before any bit is toggled. One plane of shape (words,
    side, B), as plane[None], toggles at cell c for block bit 4c."""
    side, lattices = planes.shape[2:]
    _check_indices("block bit", bits, 4 * side * side)
    _check_indices("lattice", lattice_of, lattices)
    # the indices are checked non-negative: shifts divide by powers of two
    cell, k = np.right_shift(bits, 2), np.bitwise_and(bits, 3)
    row, col = cell >> side.bit_length() - 1, cell & side - 1
    index, bit = _cell_bytes(k, row, col, lattice_of, planes.shape, planes.itemsize)
    np.bitwise_xor.at(planes.view(np.uint8).reshape(-1), index, bit)


def add_bit_counts(lanes: np.ndarray, counts: np.ndarray) -> None:
    """Add to counts[4c + k, t] the number of lattices l whose block bit
    4c + k is set in lanes[t, :, :, :, l], the planes of T groups of L
    lattices, group-major: (T, 4, words, side, L). counts, (block bits,
    T), may be a column slice; it is added to in place. Lattices are
    summed 255 at a time, copied lattice axis first: for j < min(8,
    side), (lanes >> j) & 0x0101...01 leaves in byte q of word w the bit
    of column (8q + j)*words + w, and the sum of these fields in the word
    dtype counts each such column in its byte, which 255 lattices cannot
    carry past 255. Temporaries: two chunk copies and a byte per cell and
    group."""
    groups, _, words, side = lanes.shape[:4]
    fields = min(8, side)
    # [r, q, j, w, k, t]: plane k at cell (r, (8q + j)*words + w) of group t,
    # a view
    counts = counts.reshape(side, -1, fields, words, 4, groups)
    ones = lanes.dtype.type(np.iinfo(lanes.dtype).max // 255)  # 0x0101...01
    # [j, t, w, r]: the field sums of word w of row r
    sums = np.empty((fields, groups, words, side), lanes.dtype)
    for k, a in product(range(4), range(0, lanes.shape[4], 255)):
        # [b, t, w, r]: plane k of lattice a + b of each group, b first
        chunk = np.ascontiguousarray(np.moveaxis(lanes[:, k, ..., a:a + 255], -1, 0))
        field = np.empty_like(chunk)
        for j in range(fields):
            np.bitwise_and(np.right_shift(chunk, j, out=field), ones, out=field)
            field.sum(axis=0, dtype=field.dtype, out=sums[j])
        # byte q of a summed word: [j, t, w, r, q] -> [r, q, j, w, t]
        counts[..., k, :] += sums.view(np.uint8).reshape(
            sums.shape + (-1,)).transpose(3, 4, 0, 2, 1)


def run_calls(calls) -> None:
    """Make each (function, args) call of a list built by
    :func:`collide_calls` or :func:`propagate_calls`, in order."""
    for fn, args in calls:
        fn(*args)


def collide_calls(e, s, w, n, mask, scratch) -> list:
    """The cell-local step M on the four planes, in place, as a list of
    (ufunc, args) calls for :func:`run_calls`: collide every cell, then
    reflect the wall cells in `mask` (0 for collision alone). Every call
    writes its output into the planes or into scratch[0:4], four planes
    of the planes' shape, so running the list allocates nothing."""
    # A colliding cell (exactly E+W or exactly S+N) toggles all four bits;
    # a wall cell then swaps E with W and S with N, i.e. toggles both
    # where the two differ. The collision flip
    # (e & w & ~(s | n)) | (s & n & ~(e | w)) holds exactly where e == w,
    # s == n and e != s: with a = e ^ w, b = s ^ n and x = e ^ s that is
    # x & ~(a | b). a and b are also the E/W and S/N differences
    # reflection toggles, so M is 14 operations.
    a, b, x, flip = scratch[:4]
    return [
        (np.bitwise_xor, (e, w, a)),
        (np.bitwise_xor, (s, n, b)),
        (np.bitwise_xor, (e, s, x)),
        (np.bitwise_or, (a, b, flip)),
        (np.invert, (flip, flip)),
        (np.bitwise_and, (flip, x, flip)),
        (np.bitwise_and, (a, mask, a)),
        (np.bitwise_xor, (a, flip, a)),
        (np.bitwise_and, (b, mask, b)),
        (np.bitwise_xor, (b, flip, b)),
        (np.bitwise_xor, (e, a, e)),
        (np.bitwise_xor, (s, b, s)),
        (np.bitwise_xor, (w, a, w)),
        (np.bitwise_xor, (n, b, n)),
    ]


def collide_planes(e, s, w, n, mask):
    """M in place on the four planes: :func:`collide_calls` run once."""
    run_calls(collide_calls(e, s, w, n, mask, np.empty((4,) + e.shape, e.dtype)))


def _rotate_calls(lanes, up: bool, out, scratch) -> list:
    """Every row of a plane rotated by one column, toward higher columns
    if `up`, written into `out`, as calls. On one-word rows that is each
    word shifted by one bit, and the bit it shifts out wrapping to its
    other end. On rows of several words, column c at bit c // words of
    word c % words, word w moves to word w + 1 (w - 1), and only the word
    that wraps round the row, the last (first), is shifted by one bit,
    its wrapping bit entering the first (last) word. The carry, and on
    rows of several words the shifted word row, go to word row 0 of
    scratch[0] and scratch[1]."""
    # Modulo the word width x + x is x << 1 and x * 2^top is x << top.
    # numpy's add is faster than its left shift on every dtype, its
    # multiply only on uint8 and uint16. Constants are 0-d arrays of the
    # plane's dtype, which numpy takes faster than Python ints.
    words, side = lanes.shape[:2]
    top = min(side, 64) - 1  # the highest bit of a word that holds a column
    # the last (first) word row wraps round into the first (last); one-word
    # rows are one word row, shifted straight into out
    wrap, end = (lanes[-1:], out[:1]) if up else (lanes[:1], out[-1:])
    carry, shifted = scratch[0][:1], end if words == 1 else scratch[1][:1]
    if up:
        calls = [(np.right_shift, (wrap, np.array(top, lanes.dtype), carry)),
                 (np.add, (wrap, wrap, shifted))]
    else:
        calls = [(np.multiply, (wrap, np.array(1 << top, lanes.dtype), carry))
                 if lanes.itemsize < 4 else
                 (np.left_shift, (wrap, np.array(top, lanes.dtype), carry)),
                 (np.right_shift, (wrap, np.array(1, lanes.dtype), shifted))]
    if words > 1:
        # every other word row moves in one flat copy, which numpy runs in
        # place, with no temporary, when out is lanes
        step, flat, run = wrap.size, out.reshape(-1), lanes.reshape(-1)
        to, frm = (flat[step:], run[:-step]) if up else (flat[:-step], run[step:])
        calls.append((to.__setitem__, (Ellipsis, frm)))
    calls.append((np.bitwise_or, (shifted, carry, end)))
    if top < 7:  # a row of fewer than 8 columns keeps the bits above it 0
        calls.append((np.bitwise_and, (out, np.array((2 << top) - 1, lanes.dtype), out)))
    return calls


def propagate_calls(e, s, w, n, out, scratch) -> list:
    """The propagation step P as a list of calls for :func:`run_calls`: E
    and W rotate every row by one column, S and N move every row by one
    row. The calls write the planes into the four arrays of `out`, and
    into word row 0 of scratch[0] and scratch[1], each at least a word
    row of a plane; E and W may be written in place, S and N must go to
    other arrays."""
    oe, os_, ow, on = out
    # row r moves to r+1 (S) or r-1 (N); the edge row wraps. A slice copy
    # is a call of the view's __setitem__, which numpy makes faster than
    # np.copyto.
    return [
        (os_[:, 1:].__setitem__, (Ellipsis, s[:, :-1])),
        (os_[:, 0].__setitem__, (Ellipsis, s[:, -1])),
        (on[:, :-1].__setitem__, (Ellipsis, n[:, 1:])),
        (on[:, -1].__setitem__, (Ellipsis, n[:, 0])),
        *_rotate_calls(e, True, oe, scratch),
        *_rotate_calls(w, False, ow, scratch),
    ]


def propagate_planes(e, s, w, n, out):
    """P into the four arrays of `out`: :func:`propagate_calls` run once."""
    scratch = np.empty((2, 1) + e.shape[1:], e.dtype)
    run_calls(propagate_calls(e, s, w, n, out, scratch))


def round_plans(planes, mask) -> tuple[list, list]:
    """The two plans of a round of the cipher's loop on the (4, words,
    side, B) `planes` under the wall plane `mask`, and the two sets of
    planes they run on: sets[0] the four planes, sets[1] E and W of them
    with S and N in two spare planes made here. Plan k is P from sets[k]
    into sets[1 - k], then M there, so round i runs plan i & 1 and the
    batch is sets[r & 1] after r rounds. Both plans share a scratch of
    four planes, also made here; every array they write exists before
    they first run."""
    e, s, w, n = planes
    spare, scratch = np.empty_like(planes[:2]), np.empty_like(planes)
    sets = [(e, s, w, n), (e, spare[0], w, spare[1])]
    plans = [propagate_calls(*sets[k], sets[1 - k], scratch)
             + collide_calls(*sets[1 - k], mask, scratch)
             for k in (0, 1)]
    return plans, sets


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
