import dis
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hppcrypt import bitplane as bp
from hppcrypt import lattice as ref
from hppcrypt.errors import ParameterError
from hppcrypt.lattice import Lattice


@st.composite
def lattices(draw, min_n=1, max_n=3):
    n = draw(st.integers(min_n, max_n))
    size = (1 << n) ** 2
    raw = draw(st.binary(min_size=size, max_size=size))
    return Lattice(n, bytes(b & 0xF for b in raw))


def random_lattice(rnd, n):
    return Lattice(n, bytes(rnd.randrange(16) for _ in range((1 << n) ** 2)))


def random_walls(rnd, n, count):
    side = 1 << n
    return frozenset(
        (rnd.randrange(side), rnd.randrange(side)) for _ in range(count)
    )


def to_planes(lat):
    return bp.planes_from_block(ref.to_bytes(lat), lat.n)


def to_lattice(planes, n):
    return ref.from_bytes(bp.planes_to_block(planes, n), n)


def cell_planes(lat):
    """The (E, S, W, N) planes built cell by cell: bit i of a plane is the
    direction bit of cell i, counted row-major."""
    planes = [0, 0, 0, 0]
    for i, value in enumerate(lat.cells):
        for p, bit in enumerate((ref.E_BIT, ref.S_BIT, ref.W_BIT, ref.N_BIT)):
            if value & bit:
                planes[p] |= 1 << i
    return tuple(planes)


def hpp_step(planes, n):
    return bp.propagate_planes(*bp.collide_planes(*planes, 0), bp.geometry(n))


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
        geom = bp.geometry(n)
        mask = bp.wall_mask([walls], n)
        assert to_lattice(bp.collide_planes(*planes, 0), n) == ref.collide(lat)
        assert to_lattice(bp.collide_planes(*planes, mask), n) == ref.reflect(
            ref.collide(lat), walls)
        assert to_lattice(bp.propagate_planes(*planes, geom), n) == ref.propagate(lat)
        assert to_lattice(bp.invert_planes(*planes), n) == ref.invert_all(lat)
        assert to_lattice(bp.reflect_planes(*planes, mask), n) == ref.reflect(lat, walls)
        assert to_lattice(hpp_step(planes, n), n) == ref.hpp_step(lat)


def test_gold_vector_on_bitplanes():
    planes = bp.planes_from_block(bytes.fromhex("90A2F5155D100000"), 2)
    planes = hpp_step(hpp_step(planes, 2), 2)
    assert bp.planes_to_block(planes, 2) == bytes.fromhex("179002A850F85010")


def test_empty_lattice_fixed_point():
    planes = (0, 0, 0, 0)
    mask = bp.wall_mask([{(1, 1)}], 3)
    assert bp.collide_planes(*planes, mask) == planes
    assert bp.propagate_planes(*planes, bp.geometry(3, 4)) == planes
    assert bp.invert_planes(*planes) == planes
    assert bp.reflect_planes(*planes, mask) == planes


def test_invert_is_plane_swap():
    assert bp.invert_planes(1, 2, 4, 8) == (4, 8, 1, 2)


def test_wall_mask_positions():
    mask = bp.wall_mask([{(0, 0), (3, 3)}], 2)
    assert mask == (1 << 0) | (1 << 15)
    # wall (r, c) of lattice b sits at bit (r * B + b) * 4 + c of a batch
    # of B = 3 lattices of side 4
    batch = bp.wall_mask([{(3, 3)}, set(), {(0, 0), (1, 2)}], 2)
    assert batch == (1 << 39) | (1 << 8) | (1 << 22)
    with pytest.raises(ParameterError, match=r"wall \(4, 0\) outside 4x4"):
        bp.wall_mask([set(), {(4, 0)}], 2)
    with pytest.raises(ParameterError, match=r"wall \(0, -1\) outside 4x4"):
        bp.wall_mask([{(1, 1)}, {(2, 2), (0, -1)}], 2)
    with pytest.raises(ParameterError, match=r"wall \(-1, 0\) outside 2x2"):
        bp.wall_mask([{(-1, 0)}], 1)
    with pytest.raises(ParameterError, match=r"outside 4x4"):
        bp.wall_mask([{(1 << 70, 0)}], 2)


def test_block_conversion_agrees_with_serialization():
    rnd = random.Random(5)
    for n in (1, 2, 4, 6):
        block = rnd.randbytes(ref.block_size(n))
        planes = bp.planes_from_block(block, n)
        assert planes == cell_planes(ref.from_bytes(block, n))
        assert bp.planes_to_block(planes, n) == block


def test_batch_kernels_match_reference_lattice_by_lattice():
    # B lattices row-interleaved in one set of planes, each with its own
    # walls: every kernel must act on each lattice as the oracle does,
    # with propagation wrapping inside each lattice, not into the next.
    rnd = random.Random(31)
    for case in range(30):
        n = rnd.randint(1, 5)
        count = rnd.randint(2, 5)
        lats = [random_lattice(rnd, n) for _ in range(count)]
        walls = [random_walls(rnd, n, rnd.randint(0, 5)) for _ in range(count)]
        planes = bp.planes_from_block(
            b"".join(ref.to_bytes(lat) for lat in lats), n)
        mask = bp.wall_mask(walls, n)
        size = ref.block_size(n)
        for got, want in (
            (bp.propagate_planes(*planes, bp.geometry(n, count)),
             [ref.propagate(lat) for lat in lats]),
            (bp.collide_planes(*planes, 0), [ref.collide(lat) for lat in lats]),
            (bp.collide_planes(*planes, mask),
             [ref.reflect(ref.collide(lat), w) for lat, w in zip(lats, walls)]),
            (bp.reflect_planes(*planes, mask),
             [ref.reflect(lat, w) for lat, w in zip(lats, walls)]),
        ):
            block = bp.planes_to_block(got, n, count)
            assert [ref.from_bytes(block[b * size:(b + 1) * size], n)
                    for b in range(count)] == want


def test_batch_layout_is_row_interleaved():
    # Bit (r*B + b)*2^n + c of plane k is direction k of cell (r, c) of
    # lattice b; n = 1, where a lattice row is a single byte, is the edge.
    rnd = random.Random(41)
    dirs = (ref.E_BIT, ref.S_BIT, ref.W_BIT, ref.N_BIT)
    for n in range(1, 6):
        side = 1 << n
        for count in range(1, 6):
            lats = [random_lattice(rnd, n) for _ in range(count)]
            blocks = b"".join(ref.to_bytes(lat) for lat in lats)
            planes = bp.planes_from_block(blocks, n)
            for k, bit in enumerate(dirs):
                want = 0
                for b, lat in enumerate(lats):
                    for r in range(side):
                        for c in range(side):
                            if lat.cell(r, c) & bit:
                                want |= 1 << ((r * count + b) * side + c)
                assert planes[k] == want, (n, count, k)
            assert bp.planes_to_block(planes, n, count) == blocks


def test_plane_bits_and_tile_plane_follow_the_batch_layout():
    # plane_bits(P, n, B)[r, b, c] is bit (r*B + b)*2^n + c of P, and
    # tile_plane of one lattice's bits is the plane of B copies of it, as
    # planes_from_block gives for the block repeated B times; of a batch
    # of two, each lattice is repeated B times in place. plane_rows word
    # [k, r, b] is row r of lattice b in plane k, zero-padded below a
    # byte, two uint64 words at n = 7.
    rnd = random.Random(43)
    for n in range(1, 6):
        side = 1 << n
        for count in (1, 2, 3, 7):
            plane = rnd.getrandbits(count * side * side)
            bits = bp.plane_bits(plane, n, count)
            assert bits.shape == (side, count, side)
            r, b, c = (rnd.randrange(side), rnd.randrange(count), rnd.randrange(side))
            assert bits[r, b, c] == plane >> ((r * count + b) * side + c) & 1
            assert bp.pack_plane(bits) == plane
            block = rnd.randbytes(ref.block_size(n))
            one = bp.planes_from_block(block, n)
            assert tuple(bp.tile_plane(p, n, count) for p in one) == (
                bp.planes_from_block(block * count, n))
            other = rnd.randbytes(ref.block_size(n))
            two = bp.planes_from_block(block + other, n)
            tiled = tuple(bp.tile_plane(p, n, count, 2) for p in two)
            assert tiled == bp.planes_from_block(block * count + other * count, n)
            assert (bp.plane_rows(tiled, n, 2 * count)[:, :, ::count]
                    == bp.plane_rows(two, n, 2)).all()
    for n in range(1, 8):
        side = 1 << n
        for count in (1, 2, 3, 7):
            planes = [rnd.getrandbits(count * side * side) for _ in range(4)]
            rows = bp.plane_rows(planes, n, count)
            assert rows.shape[:3] == (4, side, count)
            assert rows.shape[3] == (2 if n == 7 else 1)
            for k, plane in enumerate(planes):
                for r in range(side):
                    for b in range(count):
                        word = int.from_bytes(rows[k, r, b].tobytes(), "little")
                        assert word == plane >> ((r * count + b) << n) & ((1 << side) - 1)


def test_coordinate_mask_counts_and_bounds():
    coords = np.array([[1, 2], [1, 2], [3, 0], [1, 2], [0, 1], [0, 1]])
    lattice_of = np.array([0, 0, 0, 1, 1, 1])
    # Plain: a cell listed at all is set, however often.
    assert bp.coordinate_mask(coords, lattice_of, 2, 2) == bp.wall_mask(
        [{(1, 2), (3, 0)}, {(1, 2), (0, 1)}], 2)
    # Odd: a cell listed an even number of times cancels.
    assert bp.coordinate_mask(coords, lattice_of, 2, 2, odd=True) == bp.wall_mask(
        [{(3, 0)}, {(1, 2)}], 2)
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
    mask = bp.wall_mask([walls], 3)
    assert to_lattice(bp.collide_planes(*planes, mask), 3) == ref.reflect(
        ref.collide(lat), walls)
    assert to_lattice(bp.collide_planes(*planes, 0), 3) == ref.collide(lat)
    # No plane is ever a negative int, whose & takes CPython's slow
    # two's-complement path: every result is non-negative, and the round
    # kernels never use ~, the only operator that turns a non-negative
    # int negative.
    rnd = random.Random(53)
    for _ in range(5):
        planes = tuple(rnd.getrandbits(1 << 16) for _ in range(4))
        mask = rnd.getrandbits(1 << 16)
        for out in (bp.collide_planes(*planes, mask),
                    bp.collide_planes(*planes, 0)):
            assert min(out) >= 0
    for kernel in (bp.collide_planes, bp.propagate_planes):
        assert "UNARY_INVERT" not in {
            op.opname for op in dis.get_instructions(kernel)}
