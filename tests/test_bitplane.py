import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hppcrypt import bitplane as bp
from hppcrypt import lattice as ref
from hppcrypt.cipher import batch_size
from hppcrypt.errors import ParameterError
from hppcrypt.lattice import Lattice

from helpers import batch_mask, lattices, plane_bits, random_lattice, random_walls


def to_planes(lat):
    return bp.planes_from_block(ref.to_bytes(lat), lat.n)


def to_lattice(planes, n):
    return ref.from_bytes(bp.planes_to_block(planes), n)


def plane_int(lanes, n):
    """A plane's lanes as the row-interleaved bit string, an int: lane
    [r, b] of a batch of B holds bits (r*B + b)*2^n to (r*B + b + 1)*2^n
    - 1, column c at bit c."""
    side = 1 << n
    value = 0
    for i, lane in enumerate(lanes.reshape(-1, lanes.shape[-1])):
        value |= int.from_bytes(lane.tobytes(), "little") << (i * side)
    return value


def lanes_of(value, n, lattices=1):
    """Inverse of plane_int."""
    dtype, words = bp.lane_layout(n)
    side = 1 << n
    size = dtype.itemsize * words
    raw = b"".join(
        (value >> (i * side) & ((1 << side) - 1)).to_bytes(size, "little")
        for i in range(side * lattices))
    return np.frombuffer(raw, dtype=dtype).reshape(side, lattices, words).copy()


def cell_planes(lat):
    """The (E, S, W, N) planes built cell by cell: bit i of a plane is the
    direction bit of cell i, counted row-major."""
    planes = [0, 0, 0, 0]
    for i, value in enumerate(lat.cells):
        for p, bit in enumerate((ref.E_BIT, ref.S_BIT, ref.W_BIT, ref.N_BIT)):
            if value & bit:
                planes[p] |= 1 << i
    return tuple(planes)


def hpp_step(planes):
    return bp.propagate_planes(*bp.collide_planes(*planes, 0))


def same(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@given(lattices())
@settings(deadline=None)
def test_round_trip_identity(lat):
    assert to_lattice(to_planes(lat), lat.n) == lat


def test_round_trip_large():
    rnd = random.Random(11)
    for n in (5, 6):
        lat = random_lattice(rnd, n)
        assert to_lattice(to_planes(lat), n) == lat


def test_matches_reference_engine_per_primitive():
    # The per-cell engine is the oracle for every primitive.
    rnd = random.Random(23)
    for case in range(40):
        n = rnd.randint(1, 5)
        lat = random_lattice(rnd, n)
        walls = random_walls(rnd, n, rnd.randint(0, 5))
        planes = to_planes(lat)
        mask = bp.wall_mask(walls, n)
        assert to_lattice(bp.collide_planes(*planes, 0), n) == ref.collide(lat)
        assert to_lattice(bp.collide_planes(*planes, mask), n) == ref.reflect(
            ref.collide(lat), walls)
        assert to_lattice(bp.propagate_planes(*planes), n) == ref.propagate(lat)
        assert to_lattice(bp.invert_planes(*planes), n) == ref.invert_all(lat)
        assert to_lattice(bp.reflect_planes(*planes, mask), n) == ref.reflect(lat, walls)
        assert to_lattice(hpp_step(planes), n) == ref.hpp_step(lat)
        assert to_lattice(planes, n) == lat  # without out, no kernel writes its input


def test_gold_vector_on_bitplanes():
    planes = bp.planes_from_block(bytes.fromhex("90A2F5155D100000"), 2)
    planes = hpp_step(hpp_step(planes))
    assert bp.planes_to_block(planes) == bytes.fromhex("179002A850F85010")


def test_empty_lattice_fixed_point():
    planes = np.zeros((4, 8, 4, 1), dtype=np.uint8)  # four empty 8x8 lattices
    mask = batch_mask([{(1, 1)}] * 4, 3)
    assert same(bp.collide_planes(*planes, mask), planes)
    assert same(bp.propagate_planes(*planes), planes)
    assert same(bp.invert_planes(*planes), planes)
    assert same(bp.reflect_planes(*planes, mask), planes)


def test_invert_is_plane_swap():
    assert bp.invert_planes(1, 2, 4, 8) == (4, 8, 1, 2)


def test_wall_mask_positions():
    mask = bp.wall_mask({(0, 0), (3, 3)}, 2)
    assert plane_int(mask, 2) == (1 << 0) | (1 << 15)
    assert mask.shape == (4, 1, 1)
    assert not bp.wall_mask(set(), 2).any()
    # wall (r, c) of lattice b sits at bit (r * B + b) * 4 + c of a batch
    # of B = 3 lattices of side 4: bit c of lane [r, b]
    batch = batch_mask([{(3, 3)}, set(), {(0, 0), (1, 2)}], 2)
    assert plane_int(batch, 2) == (1 << 39) | (1 << 8) | (1 << 22)
    assert batch.shape == (4, 3, 1)
    assert (batch[3, 0, 0], batch[0, 2, 0], batch[1, 2, 0]) == (8, 1, 4)
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


def test_block_conversion_agrees_with_serialization():
    rnd = random.Random(5)
    for n in (1, 2, 4, 6, 7):
        block = rnd.randbytes(ref.block_size(n))
        planes = bp.planes_from_block(block, n)
        assert tuple(plane_int(p, n) for p in planes) == cell_planes(
            ref.from_bytes(block, n))
        assert bp.planes_to_block(planes) == block


def unpacked_planes(blocks, n):
    """The planes of a batch by an independent route: every cell's four
    direction bits unpacked (cell 2j of a block byte in its high nibble,
    E, S, W, N from bit 3 down), moved to [plane, row, lattice, column]
    and packed again, column c at bit c of its lane's bytes and the row
    padded with zeros to whole bytes."""
    side = 1 << n
    bits = np.unpackbits(np.frombuffer(blocks, dtype=np.uint8))
    bits = bits.reshape(-1, side, side, 4).transpose(3, 1, 0, 2)
    pad = -side % 8
    bits = np.pad(bits, [(0, 0)] * 3 + [(0, pad)])
    return np.packbits(bits, axis=-1, bitorder="little")


def test_full_batch_conversion_matches_unpacked_bits():
    # One full batch of the round loop and one of three lattices at
    # every n the converters take whole: the planes equal an unpacked
    # transposition of the bits, and planes_to_block gives the blocks
    # back.
    rnd = np.random.default_rng(61)
    for n in range(1, 11):
        dtype, words = bp.lane_layout(n)
        for lattices in (batch_size(n), 3):
            blocks = rnd.bytes(lattices * ref.block_size(n))
            planes = bp.planes_from_block(blocks, n)
            assert planes.shape == (4, 1 << n, lattices, words)
            assert planes.dtype == dtype
            assert np.array_equal(planes.view(np.uint8), unpacked_planes(blocks, n))
            assert bp.planes_to_block(planes) == blocks


def test_batch_kernels_match_reference_lattice_by_lattice():
    # B lattices in one set of planes, each with its own walls: every
    # kernel must act on each lattice as the oracle does, with
    # propagation wrapping inside each lattice, not into the next.
    rnd = random.Random(31)
    for case in range(30):
        n = rnd.randint(1, 5)
        count = rnd.randint(2, 5)
        lats = [random_lattice(rnd, n) for _ in range(count)]
        walls = [random_walls(rnd, n, rnd.randint(0, 5)) for _ in range(count)]
        planes = bp.planes_from_block(
            b"".join(ref.to_bytes(lat) for lat in lats), n)
        mask = batch_mask(walls, n)
        size = ref.block_size(n)
        for got, want in (
            (bp.propagate_planes(*planes),
             [ref.propagate(lat) for lat in lats]),
            (bp.collide_planes(*planes, 0), [ref.collide(lat) for lat in lats]),
            (bp.collide_planes(*planes, mask),
             [ref.reflect(ref.collide(lat), w) for lat, w in zip(lats, walls)]),
            (bp.reflect_planes(*planes, mask),
             [ref.reflect(lat, w) for lat, w in zip(lats, walls)]),
        ):
            block = bp.planes_to_block(got)
            assert [ref.from_bytes(block[b * size:(b + 1) * size], n)
                    for b in range(count)] == want


def test_batch_layout_is_row_interleaved():
    # Bit (r*B + b)*2^n + c of plane k is direction k of cell (r, c) of
    # lattice b, i.e. bit c of lane [r, b]; n = 1, where a lattice row is
    # a single byte, and n = 7, two words a row, are the edges.
    rnd = random.Random(41)
    dirs = (ref.E_BIT, ref.S_BIT, ref.W_BIT, ref.N_BIT)
    for n in range(1, 8):
        side = 1 << n
        for count in range(1, 6 if n < 6 else 3):
            lats = [random_lattice(rnd, n) for _ in range(count)]
            blocks = b"".join(ref.to_bytes(lat) for lat in lats)
            planes = bp.planes_from_block(blocks, n)
            dtype, words = bp.lane_layout(n)
            assert planes.shape == (4, side, count, words)
            assert planes.dtype == dtype
            for k, bit in enumerate(dirs):
                want = 0
                for b, lat in enumerate(lats):
                    for r in range(side):
                        for c in range(side):
                            if lat.cell(r, c) & bit:
                                want |= 1 << ((r * count + b) * side + c)
                assert plane_int(planes[k], n) == want, (n, count, k)
                r, b = rnd.randrange(side), rnd.randrange(count)
                lane = int.from_bytes(planes[k, r, b].tobytes(), "little")
                assert lane == sum(
                    1 << c for c in range(side) if lats[b].cell(r, c) & bit)
            assert bp.planes_to_block(planes) == blocks


def test_plane_bits_and_repeat_follow_the_lane_layout():
    # plane_bits(P, n)[r, b, c] is bit (r*B + b)*2^n + c of P and packing
    # it back gives P's lanes; np.repeat on the lattice axis repeats each
    # lattice in place, as planes_from_block gives for the blocks
    # repeated: of one lattice, the plane of B copies of it, and of a
    # batch of two, each lattice B times. np.asarray stacks a tuple of
    # four planes into one (4, side, B, words) array of row lanes, two
    # uint64 words at n = 7.
    rnd = random.Random(43)
    for n in range(1, 6):
        side = 1 << n
        for count in (1, 2, 3, 7):
            plane = lanes_of(rnd.getrandbits(count * side * side), n, count)
            value = plane_int(plane, n)
            bits = plane_bits(plane, n)
            assert bits.shape == (side, count, side)
            r, b, c = (rnd.randrange(side), rnd.randrange(count), rnd.randrange(side))
            assert bits[r, b, c] == value >> ((r * count + b) * side + c) & 1
            assert np.array_equal(
                np.packbits(bits, axis=-1, bitorder="little"), plane.view(np.uint8))
            block = rnd.randbytes(ref.block_size(n))
            one = bp.planes_from_block(block, n)
            assert np.array_equal(np.repeat(one, count, axis=2),
                                  bp.planes_from_block(block * count, n))
            other = rnd.randbytes(ref.block_size(n))
            two = bp.planes_from_block(block + other, n)
            tiled = np.repeat(two, count, axis=2)
            assert np.array_equal(
                tiled, bp.planes_from_block(block * count + other * count, n))
            assert np.array_equal(tiled[:, :, ::count], two)
    for n in range(1, 8):
        side = 1 << n
        for count in (1, 2, 3, 7):
            values = [rnd.getrandbits(count * side * side) for _ in range(4)]
            planes = tuple(lanes_of(v, n, count) for v in values)
            rows = np.asarray(planes)
            assert rows.shape[:3] == (4, side, count)
            assert rows.shape[3] == (2 if n == 7 else 1)
            for k, value in enumerate(values):
                for r in range(side):
                    for b in range(count):
                        word = int.from_bytes(rows[k, r, b].tobytes(), "little")
                        assert word == value >> ((r * count + b) << n) & ((1 << side) - 1)


def test_coordinate_mask_counts_and_bounds():
    coords = np.array([[1, 2], [1, 2], [3, 0], [1, 2], [0, 1], [0, 1]])
    lattice_of = np.array([0, 0, 0, 1, 1, 1])

    def side_by_side(*wall_sets):
        return np.concatenate([bp.wall_mask(walls, 2) for walls in wall_sets], axis=1)

    # Plain: a cell listed at all is set, however often.
    assert np.array_equal(bp.coordinate_mask(coords, lattice_of, 2, 2),
                          side_by_side({(1, 2), (3, 0)}, {(1, 2), (0, 1)}))
    # Odd: a cell listed an even number of times cancels.
    assert np.array_equal(bp.coordinate_mask(coords, lattice_of, 2, 2, odd=True),
                          side_by_side({(3, 0)}, {(1, 2)}))
    with pytest.raises(ParameterError, match=r"wall \(0, 4\) outside 4x4"):
        bp.coordinate_mask(np.array([[1, 1], [0, 4]]), np.array([0, 1]), 2, 2)
    with pytest.raises(ParameterError, match=r"wall \(-1, 0\) outside 4x4"):
        bp.coordinate_mask(np.array([[-1, 0]]), np.array([0]), 1, 2, odd=True)


def test_collide_exhaustive_and_never_negative():
    # All 16 cell states, each without and with a wall: cell 2v of an 8x8
    # lattice holds state v on a plain cell, cell 2v+1 on a wall cell.
    walls = {divmod(2 * v + 1, 8) for v in range(16)}
    lat = Lattice(3, bytes(v for v in range(16) for _ in range(2)) + bytes(32))
    planes = to_planes(lat)
    mask = bp.wall_mask(walls, 3)
    assert to_lattice(bp.collide_planes(*planes, mask), 3) == ref.reflect(
        ref.collide(lat), walls)
    assert to_lattice(bp.collide_planes(*planes, 0), 3) == ref.collide(lat)
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
            planes = (rnd.integers(0, 2**63, (4, side, 9, words), dtype=np.uint64)
                      & full).astype(dtype)
            mask = (rnd.integers(0, 2**63, (side, 9, words), dtype=np.uint64)
                    & full).astype(dtype)
            for out in (bp.collide_planes(*planes, mask), bp.collide_planes(*planes, 0),
                        bp.propagate_planes(*planes),
                        bp.reflect_planes(*planes, mask)):
                for plane in out:
                    assert plane.dtype == dtype
                    if side < 8:
                        assert not (plane >> side).any()


def test_kernels_write_out_in_place():
    # With out= M and P write into the arrays given, the inputs
    # themselves for M and for E and W of P, and give what they give
    # without it.
    rnd = random.Random(59)
    for n in (1, 3, 4, 7):
        count = 3
        blocks = rnd.randbytes(count * ref.block_size(n))
        mask = batch_mask([random_walls(rnd, n, 4) for _ in range(count)], n)
        planes = tuple(bp.planes_from_block(blocks, n))
        want = bp.collide_planes(*planes, mask)
        got = bp.collide_planes(*planes, mask, out=planes)
        assert all(g is p for g, p in zip(got, planes))
        assert same(got, want)
        planes = bp.planes_from_block(blocks, n)
        want = bp.propagate_planes(*planes)
        e, s, w, nn = planes
        s_to, n_to = np.empty_like(planes[:2])
        got = bp.propagate_planes(e, s, w, nn, out=(e, s_to, w, n_to))
        assert all(g is o for g, o in zip(got, (e, s_to, w, n_to)))
        assert same(got, want)


@st.composite
def lane_batches(draw):
    """A batch of 1 to 4 random lattices at n = 1 to 9, walls of their own
    (some on the last row or column) and a round count from 0 to
    2*side+3, so that particles wrap the torus more than twice. From
    n = 7 on the per-cell oracle costs about 10 ms a round, so there the
    count stays at most 3: every round runs the same kernels, and the
    carries cross every word boundary and every edge from round 1 on."""
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
    rounds = draw(st.integers(0, 2 * side + 3 if n < 7 else 3))
    return n, random.Random(seed).randbytes(count * ref.block_size(n)), walls, rounds


@given(lane_batches())
@settings(deadline=None, max_examples=30)
def test_lane_kernels_match_reference_lattice_by_lattice(batch):
    # M, then rounds of P and M, then J, on the lanes of the whole batch,
    # each lattice against the per-cell engine; and the blocks survive
    # the trip through lanes at every shape.
    n, blocks, walls, rounds = batch
    size = ref.block_size(n)
    planes = bp.planes_from_block(blocks, n)
    assert bp.planes_to_block(planes) == blocks
    mask = batch_mask(walls, n)
    planes = bp.collide_planes(*planes, mask)
    for _ in range(rounds):
        planes = bp.collide_planes(*bp.propagate_planes(*planes), mask)
    got = bp.planes_to_block(bp.invert_planes(*planes))
    for b, w in enumerate(walls):
        lat = ref.from_bytes(blocks[b * size:(b + 1) * size], n)
        lat = ref.reflect(ref.collide(lat), w)
        for _ in range(rounds):
            lat = ref.reflect(ref.collide(ref.propagate(lat)), w)
        assert ref.from_bytes(got[b * size:(b + 1) * size], n) == ref.invert_all(lat)
