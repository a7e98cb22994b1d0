"""The bit-plane engine against its references:

* the block <-> planes layout against unpacked_planes, the block bits
  unpacked by numpy and transposed to [plane, row, lattice, column], a
  route that shares no table with the converters, and against
  cell_bits, the same bits read cell by cell from the per-cell engine's
  lattices;
* each kernel (collide, M, P, J and reflection) against the per-cell
  engine in hppcrypt.lattice, lattice by lattice, on one lattice and on
  batches of two to five, and on batches of two or three with rows
  that fill their words: one uint8, or 2 to 8 uint64 words;
* from n = 7 on, where a row is several words, column c at bit
  c // words of word c % words, the kernels, the converters,
  coordinate_mask and toggle_bits at the columns where a rotation
  crosses from the last word of a row into the first;
* M, rounds of P and M, then J, run by hand on the lanes of a batch,
  against the per-cell engine, with the oracle's work per example
  bounded by ORACLE_CELL_ROUNDS.

The round schedule of the cipher's one round loop is checked against
the per-cell engine in test_cipher.py, and acceptance criterion 4
repeats the kernel check at n = 6 on 1000 lattices.
"""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hppcrypt import bitplane as bp
from hppcrypt import lattice as ref
from hppcrypt.cipher import batch_size
from hppcrypt.errors import ParameterError
from hppcrypt.experiments import flip_bit
from hppcrypt.lattice import Lattice

from helpers import (
    ORACLE_CELL_ROUNDS, batch_mask, collided, lattices, plane_bits, propagated,
    random_lattice, random_walls)


def to_planes(lat):
    return bp.planes_from_block(ref.to_bytes(lat), lat.n)


def to_lattices(planes, n):
    """Each lattice of a batch's planes, read back by the oracle."""
    block, size = bp.planes_to_block(planes), ref.block_size(n)
    return [ref.from_bytes(block[i:i + size], n) for i in range(0, len(block), size)]


def same(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def unpacked_planes(blocks, n):
    """The planes of a batch of blocks by an independent route, as 0/1
    bytes [plane, row, lattice, column]: every cell's four direction bits
    unpacked (cell 2j of a block byte in its high nibble, E, S, W, N from
    bit 3 down) and moved to that order."""
    side = 1 << n
    bits = np.unpackbits(np.frombuffer(blocks, dtype=np.uint8))
    return bits.reshape(-1, side, side, 4).transpose(3, 1, 0, 2)


def cell_bits(lats):
    """The planes of a batch read from the per-cell engine's lattices, as
    0/1 bytes [plane, row, lattice, column]: plane k holds bit
    (E, S, W, N)[k] of cell (r, c) of lattice b."""
    side = lats[0].side
    cells = np.frombuffer(b"".join(lat.cells for lat in lats), dtype=np.uint8)
    cells = cells.reshape(len(lats), side, side).transpose(1, 0, 2)
    return np.stack([(cells & bit) != 0 for bit in
                     (ref.E_BIT, ref.S_BIT, ref.W_BIT, ref.N_BIT)]).astype(np.uint8)


@given(lattices())
@settings(deadline=None)
def test_round_trip_identity(lat):
    assert to_lattices(to_planes(lat), lat.n) == [lat]


def test_round_trip_large():
    rnd = random.Random(11)
    for n in (5, 6):
        lat = random_lattice(rnd, n)
        assert to_lattices(to_planes(lat), n) == [lat]


def test_block_conversion_agrees_with_serialization():
    # Column c of row r of plane k is direction k of cell (r, c) of the
    # lattice the per-cell engine reads from the block.
    rnd = random.Random(5)
    for n in (1, 2, 4, 6, 7):
        block = rnd.randbytes(ref.block_size(n))
        planes = bp.planes_from_block(block, n)
        assert np.array_equal(plane_bits(planes, n), cell_bits([ref.from_bytes(block, n)]))
        assert bp.planes_to_block(planes) == block


def packed_planes(blocks, n, words):
    """The unpacked bits of a batch packed again as (4, words, side, B,
    bytes) planes, column c at bit c // words of word c % words, the
    word's bits little-endian and padded with zero bits to whole bytes
    (one uint8 below n = 3)."""
    bits = unpacked_planes(blocks, n)
    # [k, r, b, c] with c = q*words + w -> [k, w, r, b, q]
    bits = bits.reshape(bits.shape[:3] + (-1, words)).transpose(0, 4, 1, 2, 3)
    return np.packbits(bits, axis=-1, bitorder="little")


def test_full_batch_conversion_matches_unpacked_bits():
    # B = 1 to 5 lattices and one full batch of the round loop at every n
    # the converters take whole: the planes are the unpacked bits packed
    # again, one word a row up to n = 6 and 2 to 16 uint64 words from
    # n = 7 on, and planes_to_block gives the blocks back.
    rnd = np.random.default_rng(61)
    for n in range(1, 11):
        side, size = 1 << n, ref.block_size(n)
        dtype, words = bp.lane_layout(n)
        for lattices in sorted({1, 2, 3, 4, 5, batch_size(n)}):
            blocks = rnd.bytes(lattices * size)
            planes = bp.planes_from_block(blocks, n)
            assert planes.shape == (4, words, side, lattices)
            assert planes.dtype == dtype
            assert words == max(1, side // 64)
            want = packed_planes(blocks, n, words)
            assert np.array_equal(planes.view(np.uint8).reshape(want.shape), want)
            assert bp.planes_to_block(planes) == blocks


def test_batch_layout_is_row_interleaved():
    # Word w of row r of lattice b in plane k holds direction k of the
    # row's columns c with c % words == w, column c at bit c // words of
    # the word's little-endian bytes. Up to n = 6 a row is one word, and
    # from n = 3 on the plane's bytes are the row-interleaved bit string,
    # cell (r, c) of lattice b at bit (r*B + b)*side + c; n = 1, where a
    # lattice row is a single byte, and n = 7 and 8, two and four words a
    # row, are the edges.
    rnd = random.Random(41)
    for n in range(1, 9):
        side = 1 << n
        for count in range(1, 6 if n < 6 else 3):
            lats = [random_lattice(rnd, n) for _ in range(count)]
            blocks = b"".join(map(ref.to_bytes, lats))
            planes = bp.planes_from_block(blocks, n)
            dtype, words = bp.lane_layout(n)
            assert planes.shape == (4, words, side, count)
            assert planes.dtype == dtype
            want = cell_bits(lats)
            assert np.array_equal(plane_bits(planes, n), want), (n, count)
            k, r, b = rnd.randrange(4), rnd.randrange(side), rnd.randrange(count)
            row = want[k, r, b]
            for w in range(words):
                word = int.from_bytes(planes[k, w, r, b].tobytes(), "little")
                assert word == sum(int(bit) << c // words
                                   for c, bit in enumerate(row) if c % words == w)
            if 3 <= n <= 6:
                string = int.from_bytes(planes[k].tobytes(), "little")
                assert all((string >> ((r * count + b) * side + c)) & 1 == bit
                           for c, bit in enumerate(row))
            assert bp.planes_to_block(planes) == blocks


def test_plane_bits_and_repeat_follow_the_lane_layout():
    # B = 1 to 5 lattices at every n: plane_bits reads the unpacked bits
    # back; planes_to_block takes a tuple of four planes as it takes the
    # array; np.repeat on the lattice axis repeats each lattice in place,
    # as planes_from_block gives for each block repeated, and every
    # second lattice of that is the batch again.
    rnd = np.random.default_rng(43)
    for n in range(1, 11):
        size = ref.block_size(n)
        for lattices in range(1, 6):
            blocks = rnd.bytes(lattices * size)
            planes = bp.planes_from_block(blocks, n)
            assert np.array_equal(plane_bits(planes, n), unpacked_planes(blocks, n))
            assert bp.planes_to_block(tuple(planes)) == blocks
            twice = b"".join(2 * blocks[i:i + size] for i in range(0, len(blocks), size))
            tiled = np.repeat(planes, 2, axis=-1)
            assert np.array_equal(tiled, bp.planes_from_block(twice, n))
            assert np.array_equal(tiled[..., ::2], planes)


def check_kernels(lats, walls):
    """Every kernel on the batch of lats, lattice b under walls[b], acts
    on each lattice as the per-cell engine does; M and P run on copies, and
    no other kernel writes its input."""
    n = lats[0].n
    blocks = b"".join(map(ref.to_bytes, lats))
    planes = bp.planes_from_block(blocks, n)
    mask = batch_mask(walls, n)
    for got, want in (
        (collided(planes, 0), [ref.collide(lat) for lat in lats]),
        (collided(planes, mask),
         [ref.reflect(ref.collide(lat), w) for lat, w in zip(lats, walls)]),
        (propagated(planes), [ref.propagate(lat) for lat in lats]),
        (bp.invert_planes(*planes), [ref.invert_all(lat) for lat in lats]),
        (bp.reflect_planes(*planes, mask),
         [ref.reflect(lat, w) for lat, w in zip(lats, walls)]),
    ):
        assert to_lattices(got, n) == want, (n, len(lats))
    assert bp.planes_to_block(planes) == blocks


def test_matches_reference_engine_per_primitive():
    # The per-cell engine is the oracle for every primitive.
    rnd = random.Random(23)
    for case in range(40):
        n = rnd.randint(1, 5)
        check_kernels([random_lattice(rnd, n)], [random_walls(rnd, n, rnd.randint(0, 5))])


def test_batch_kernels_match_reference_lattice_by_lattice():
    # B lattices in one set of planes, each with its own walls: every
    # kernel must act on each lattice as the oracle does, with
    # propagation wrapping inside each lattice, not into the next.
    rnd = random.Random(31)
    for case in range(30):
        n, count = rnd.randint(1, 5), rnd.randint(2, 5)
        check_kernels([random_lattice(rnd, n) for _ in range(count)],
                      [random_walls(rnd, n, rnd.randint(0, 5)) for _ in range(count)])


@pytest.mark.parametrize("n, count", [(3, 2), (3, 3), (7, 2), (7, 3), (8, 2), (9, 2)])
def test_kernels_match_reference_on_full_and_multiword_lanes(n, count):
    # Lanes that fill their words: one uint8 at n = 3, two, four and
    # eight uint64 words at n = 7, 8 and 9, two or three lattices a batch,
    # with walls on the last row and column. A carry lost or misplaced at a
    # word or lane boundary, or a bit that wraps wrongly modulo the lane
    # width, fails one kernel call here.
    rnd = random.Random(41 * n + count)
    side = 1 << n
    edges = [{(side - 1, rnd.randrange(side)), (rnd.randrange(side), side - 1),
              (side - 1, side - 1)} for _ in range(count)]
    check_kernels([random_lattice(rnd, n) for _ in range(count)],
                  [random_walls(rnd, n, 3) | edge for edge in edges])


def seam_columns(n):
    """The columns at which a row of several words carries, with their
    neighbours: words - 1 to words, bit 0 of the last word to bit 1 of
    the first, and side - 1 round to 0, bit 63 of the last word to bit
    0 of the first."""
    side, words = 1 << n, bp.lane_layout(n)[1]
    return sorted({c % side for c in (words - 2, words - 1, words, words + 1,
                                      side - 2, side - 1, 0, 1)})


@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_word_seams_match_reference(n, count):
    # Rows of 2, 4 and 8 uint64 words, 1 to 3 lattices a batch. Every
    # cell of the seam columns holds a random state, so particles cross
    # each seam both ways, the rest of the lattice is empty, and the walls
    # stand on seam columns. The converters and every kernel, P also in
    # place as the round loop runs it, act on each lattice as the
    # per-cell engine does.
    rnd = random.Random(7 * n + count)
    side, cols = 1 << n, seam_columns(n)
    lats, walls = [], []
    for _ in range(count):
        cells = bytearray(side * side)
        for r, c in product(range(side), cols):
            cells[r * side + c] = rnd.randrange(16)
        lats.append(Lattice(n, bytes(cells)))
        walls.append({(rnd.randrange(side), rnd.choice(cols)) for _ in range(6)})
    check_kernels(lats, walls)
    planes = bp.planes_from_block(b"".join(map(ref.to_bytes, lats)), n)
    e, s, w, nn = planes
    s_to, n_to = np.empty_like(planes[:2])
    bp.propagate_planes(e, s, w, nn, out=(e, s_to, w, n_to))
    assert to_lattices((e, s_to, w, n_to), n) == [ref.propagate(lat) for lat in lats]


@pytest.mark.parametrize("n", [7, 8, 9])
def test_masks_and_toggles_at_word_seams(n):
    # On a batch of three lattices with rows of several words,
    # coordinate_mask sets the cells at seam columns that plane_bits reads
    # back, and toggle_bits flips the block bits of those cells that
    # flip_bit flips in the blocks.
    side, size, cols = 1 << n, ref.block_size(n), seam_columns(n)
    rnd = np.random.default_rng(70 + n)
    coords = np.stack((rnd.integers(0, side, (3, 6)), rnd.choice(cols, (3, 6))), axis=-1)
    want = np.zeros((side, 3, side), dtype=np.uint8)
    for b, i in product(range(3), range(6)):
        want[coords[b, i, 0], b, coords[b, i, 1]] = 1
    assert np.array_equal(plane_bits(bp.coordinate_mask(coords, n), n), want)
    blocks = [rnd.bytes(size) for _ in range(3)]
    planes = bp.planes_from_block(b"".join(blocks), n)
    bits = 4 * (coords[..., 0] * side + coords[..., 1]) + rnd.integers(0, 4, (3, 6))
    bp.toggle_bits(planes, bits, np.arange(3)[:, None])
    for b, i in product(range(3), range(6)):
        blocks[b] = flip_bit(blocks[b], int(bits[b, i]))
    assert np.array_equal(planes, bp.planes_from_block(b"".join(blocks), n))


def test_gold_vector_on_bitplanes():
    planes = bp.planes_from_block(bytes.fromhex("90A2F5155D100000"), 2)
    for _ in range(2):
        planes = propagated(collided(planes, 0))
    assert bp.planes_to_block(planes) == bytes.fromhex("179002A850F85010")


def test_empty_lattice_fixed_point():
    planes = np.zeros((4, 1, 8, 4), dtype=np.uint8)  # four empty 8x8 lattices
    mask = batch_mask([{(1, 1)}] * 4, 3)
    assert same(collided(planes, mask), planes)
    assert same(propagated(planes), planes)
    assert same(bp.invert_planes(*planes), planes)
    assert same(bp.reflect_planes(*planes, mask), planes)


def test_invert_is_plane_swap():
    # J swaps E with W and S with N by reference, the arrays themselves.
    assert bp.invert_planes(1, 2, 4, 8) == (4, 8, 1, 2)
    four = tuple(bp.planes_from_block(bytes(range(8)), 2))
    assert all(a is b for a, b in zip(bp.invert_planes(*four), four[2:] + four[:2]))


def test_wall_mask_positions():
    # wall (r, c) of lattice b is bit c of word [0, r, b]
    mask = bp.wall_mask({(0, 0), (3, 3)}, 2)
    assert mask.shape == (1, 4, 1)
    assert np.argwhere(plane_bits(mask, 2)).tolist() == [[0, 0, 0], [3, 0, 3]]
    assert not bp.wall_mask(set(), 2).any()
    batch = batch_mask([{(3, 3)}, set(), {(0, 0), (1, 2)}], 2)
    assert batch.shape == (1, 4, 3)
    assert np.argwhere(plane_bits(batch, 2)).tolist() == [[0, 2, 0], [1, 2, 2], [3, 0, 3]]
    assert (batch[0, 3, 0], batch[0, 0, 2], batch[0, 1, 2]) == (8, 1, 4)
    with pytest.raises(ParameterError, match=r"wall \(4, 0\) outside 4x4"):
        bp.wall_mask({(4, 0)}, 2)
    with pytest.raises(ParameterError, match=r"wall \(0, -1\) outside 4x4"):
        bp.wall_mask({(2, 2), (0, -1)}, 2)
    with pytest.raises(ParameterError, match=r"wall \(4, 0\) outside 4x4"):
        batch_mask([set(), {(4, 0)}], 2)
    with pytest.raises(ParameterError, match=r"wall \(0, -1\) outside 4x4"):
        batch_mask([{(1, 1)}, {(2, 2), (0, -1)}], 2)
    with pytest.raises(ParameterError, match=r"wall \(-1, 0\) outside 2x2"):
        bp.wall_mask({(-1, 0)}, 1)
    with pytest.raises(ParameterError, match=r"outside 4x4"):
        bp.wall_mask({(1 << 70, 0)}, 2)


def test_coordinate_mask_counts_and_bounds():
    # row b holds lattice b's coordinates
    coords = np.array([[[1, 2], [1, 2], [3, 0]], [[1, 2], [0, 1], [0, 1]]])

    def side_by_side(*wall_sets):
        return np.concatenate([bp.wall_mask(walls, 2) for walls in wall_sets], axis=-1)

    # Plain: a cell listed at all is set, however often.
    assert np.array_equal(bp.coordinate_mask(coords, 2),
                          side_by_side({(1, 2), (3, 0)}, {(1, 2), (0, 1)}))
    # Odd: a cell listed an even number of times cancels.
    assert np.array_equal(bp.coordinate_mask(coords, 2, odd=True),
                          side_by_side({(3, 0)}, {(1, 2)}))
    with pytest.raises(ParameterError, match=r"wall \(0, 4\) outside 4x4"):
        bp.coordinate_mask(np.array([[[1, 1]], [[0, 4]]]), 2)
    with pytest.raises(ParameterError, match=r"wall \(-1, 0\) outside 4x4"):
        bp.coordinate_mask(np.array([[[-1, 0]]]), 2, odd=True)


@pytest.mark.parametrize("n", range(1, 10))
def test_toggle_bits_matches_flip_bit(n):
    # Block bits toggled in place as flip_bit flips them in the blocks,
    # lattice_of broadcast three ways: a column against rows of bits per
    # lattice, a column against one row for every lattice, and a scalar.
    # A bit listed twice toggles twice, and toggling again restores.
    rnd = np.random.default_rng(44 + n)
    size, lattices = ref.block_size(n), 3
    column = np.arange(lattices)[:, None]
    blocks = [rnd.bytes(size) for _ in range(lattices)]
    flips = [(np.stack([rnd.choice(8 * size, 6, replace=False)
                        for _ in range(lattices)]), column),
             (rnd.choice(8 * size, 6, replace=False), column),
             (rnd.integers(0, 8 * size, 9), 1)]
    planes = bp.planes_from_block(b"".join(blocks), n)
    original = planes.copy()
    for bits, lattice_of in flips:
        bp.toggle_bits(planes, bits, lattice_of)
        for i, b in zip(*(a.ravel() for a in np.broadcast_arrays(bits, lattice_of))):
            blocks[b] = flip_bit(blocks[b], int(i))
    assert np.array_equal(planes, bp.planes_from_block(b"".join(blocks), n))
    for bits, lattice_of in flips:
        bp.toggle_bits(planes, bits, lattice_of)
    assert np.array_equal(planes, original)


@pytest.mark.parametrize("bits, lattice_of, message", [
    (-1, 0, r"block bit -1 outside \[0, 64\)"),
    (64, 1, r"block bit 64 outside \[0, 64\)"),
    (np.array([3, 0]), np.array([1, 2]), r"lattice 2 outside \[0, 2\)"),
], ids=["bit-1", "bit-64", "lattice-2"])
def test_toggle_bits_bounds(bits, lattice_of, message):
    # On the planes of two n=2 lattices, a bit outside the block or a
    # lattice outside the batch is refused by name and nothing toggles.
    planes = bp.planes_from_block(bytes(16), 2)
    with pytest.raises(ParameterError, match=message):
        bp.toggle_bits(planes, bits, lattice_of)
    assert not planes.any()


@pytest.mark.parametrize("n", range(1, 10))
def test_add_bit_counts_matches_plane_bits(n):
    # counts[4c + k, t] gains the number of group t's lattices with plane
    # k set at cell c, added in place to columns 2 and 3 of a wider
    # array. Group 0 is all ones, so its counts reach the lattice count
    # across the 255-lattice chunks. Lanes are kept to 4 MiB, so 600
    # lattices run up to n = 6, 255 and 256 up to n = 7, one at every n.
    side = 1 << n
    dtype, words = bp.lane_layout(n)
    rnd = np.random.default_rng(45 + n)
    for count in (1, 255, 256, 600):
        if side * side * count > 1 << 22:
            continue
        # group-major, as the protocols' differences: (T, 4, words, side, L)
        lanes = rnd.integers(0, np.iinfo(dtype).max, (2, 4, words, side, count),
                             dtype=dtype, endpoint=True)
        lanes[0] = np.iinfo(dtype).max
        if n <= 2:  # the bits above the row stay 0
            lanes &= (1 << side) - 1
        counts = np.ones((8 * ref.block_size(n), 5))
        bp.add_bit_counts(lanes, counts[:, 2:4])
        # [t, k, r, c] -> block bit 4(r*side + c) + k
        want = plane_bits(lanes, n).sum(axis=3).transpose(2, 3, 1, 0).reshape(-1, 2)
        assert np.array_equal(counts[:, 2:4], want + 1), count
        assert (want[:, 0] == count).all()
        assert (counts[:, [0, 1, 4]] == 1).all()


def test_collide_exhaustive_and_never_negative():
    # All 16 cell states, each without and with a wall: cell 2v of an 8x8
    # lattice holds state v on a plain cell, cell 2v+1 on a wall cell.
    walls = {divmod(2 * v + 1, 8) for v in range(16)}
    lat = Lattice(3, bytes(v for v in range(16) for _ in range(2)) + bytes(32))
    planes = to_planes(lat)
    mask = bp.wall_mask(walls, 3)
    assert to_lattices(collided(planes, mask), 3) == [
        ref.reflect(ref.collide(lat), walls)]
    assert to_lattices(collided(planes, 0), 3) == [ref.collide(lat)]
    # Lanes stay unsigned words of their own dtype, never a negative
    # value, and below n = 3 every kernel keeps the bits above the row
    # 0, even where collide inverts a whole lane and a rotate shifts
    # bits past the row.
    rnd = np.random.default_rng(53)
    for n in (1, 2, 3, 7):
        dtype, words = bp.lane_layout(n)
        assert dtype.kind == "u"
        side = 1 << n
        full = np.uint64(min(1 << side, 1 << 63) - 1) if side < 64 else ~np.uint64(0)
        for _ in range(5):
            planes = (rnd.integers(0, 2**63, (4, words, side, 9), dtype=np.uint64)
                      & full).astype(dtype)
            mask = (rnd.integers(0, 2**63, (words, side, 9), dtype=np.uint64)
                    & full).astype(dtype)
            for out in (collided(planes, mask), collided(planes, 0), propagated(planes),
                        bp.reflect_planes(*planes, mask)):
                for plane in out:
                    assert plane.dtype == dtype
                    if side < 8:
                        assert not (plane >> side).any()


def test_kernels_write_out_in_place():
    # M writes the four planes it is given, P the four arrays of out=,
    # as the round loop calls them: E and W in place, read back from the
    # input arrays themselves, S and N into two spare planes. Each acts on
    # every lattice of the batch as the per-cell engine does.
    rnd = random.Random(59)
    for n in (1, 3, 4, 7):
        lats = [random_lattice(rnd, n) for _ in range(3)]
        walls = [random_walls(rnd, n, 4) for _ in lats]
        planes = bp.planes_from_block(b"".join(map(ref.to_bytes, lats)), n)
        e, s, w, nn = planes
        assert bp.collide_planes(e, s, w, nn, batch_mask(walls, n)) is None
        lats = [ref.reflect(ref.collide(lat), ws) for lat, ws in zip(lats, walls)]
        assert to_lattices(planes, n) == lats
        s_to, n_to = np.empty_like(planes[:2])
        assert bp.propagate_planes(e, s, w, nn, out=(e, s_to, w, n_to)) is None
        assert to_lattices((e, s_to, w, n_to), n) == [ref.propagate(lat) for lat in lats]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8])
def test_round_plans_allocate_nothing(n):
    # A round is 24 calls from n = 3 to 6 and 26 below and from n = 7 on.
    # Run in turn, the two plans act on each lattice as the per-cell
    # engine does, and on a full batch replaying them allocates nothing:
    # tracemalloc, which sees numpy's buffers, finds no temporary as
    # large as a quarter of a word row of a plane, so every call writes
    # into an array made before.
    rnd = random.Random(61 + n)
    count = max(1, min(3, ORACLE_CELL_ROUNDS >> 2 * n + 2))  # 4 rounds
    lats = [random_lattice(rnd, n) for _ in range(count)]
    walls = [random_walls(rnd, n, 4) for _ in lats]
    state = bp.planes_from_block(b"".join(map(ref.to_bytes, lats)), n)
    plans, sets = bp.round_plans(state, batch_mask(walls, n))
    assert [len(plan) for plan in plans] == [24 if 3 <= n <= 6 else 26] * 2
    for i in range(4):
        bp.run_calls(plans[i & 1])
        lats = [ref.reflect(ref.collide(ref.propagate(lat)), ws)
                for lat, ws in zip(lats, walls)]
    assert all(a is b for a, b in zip(sets[0][::2], sets[1][::2]))  # E and W shared
    assert to_lattices(state, n) == lats

    lattices = batch_size(n)
    blocks = np.random.default_rng(n).bytes(lattices * ref.block_size(n))
    state = bp.planes_from_block(blocks, n)
    coords = np.random.default_rng(n).integers(0, 1 << n, (lattices, 4, 2))
    plans, _ = bp.round_plans(state, bp.coordinate_mask(coords, n))
    row_bytes = state[0, 0].nbytes
    tracemalloc.start()
    try:
        for i in range(4):
            bp.run_calls(plans[i & 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row_bytes >= 8192 and peak < row_bytes // 4


@st.composite
def lane_batches(draw):
    """A batch of 1 to 4 random lattices at n = 1 to 9, walls of their own
    (some on the last row or column) and a round count from 0 to
    2*side+3, so that particles wrap the torus more than twice. From
    n = 7 on the count stays at most 3, and at most
    ORACLE_CELL_ROUNDS / cells of the batch: every round runs the same
    kernels, and the carries cross every word boundary and every edge
    from round 1 on."""
    n = draw(st.integers(1, 9))
    side = 1 << n
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    coord = st.integers(0, side - 1)
    edge = st.one_of(st.tuples(st.just(side - 1), coord),
                     st.tuples(coord, st.just(side - 1)))
    walls = [draw(st.frozensets(st.tuples(coord, coord), max_size=5))
             | draw(st.frozensets(edge, max_size=2))
             for _ in range(count)]
    top = min(2 * side + 3 if n < 7 else 3, ORACLE_CELL_ROUNDS // (count * side * side))
    rounds = draw(st.integers(0, top))
    return n, random.Random(seed).randbytes(count * ref.block_size(n)), walls, rounds


@given(lane_batches())
@settings(deadline=None, max_examples=30)
def test_lane_kernels_match_reference_lattice_by_lattice(batch):
    # M, then rounds of P and M, then J, on the lanes of the whole batch,
    # each lattice against the per-cell engine; and the blocks survive
    # the trip through lanes at every shape.
    n, blocks, walls, rounds = batch
    planes = bp.planes_from_block(blocks, n)
    assert bp.planes_to_block(planes) == blocks
    lats = to_lattices(planes, n)
    mask = batch_mask(walls, n)
    planes = collided(planes, mask)
    for _ in range(rounds):
        planes = collided(propagated(planes), mask)
    want = []
    for lat, w in zip(lats, walls):
        lat = ref.reflect(ref.collide(lat), w)
        for _ in range(rounds):
            lat = ref.reflect(ref.collide(ref.propagate(lat)), w)
        want.append(ref.invert_all(lat))
    assert to_lattices(bp.invert_planes(*planes), n) == want
