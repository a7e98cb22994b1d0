import pytest
from hypothesis import given, settings, strategies as st

from hppcrypt.errors import FormatError, ParameterError
from hppcrypt.lattice import (
    Lattice,
    block_size,
    collide,
    from_bytes,
    invert_all,
    parse_walls_text,
    propagate,
    reflect,
    to_bytes,
)

from helpers import lattices, parity_counts, particle_count

GOLD_0 = bytes.fromhex("90A2F5155D100000")


@st.composite
def lattices_with_walls(draw):
    lat = draw(lattices())
    coord = st.integers(0, lat.side - 1)
    walls = draw(st.frozensets(st.tuples(coord, coord), max_size=6))
    return lat, walls


def single_particle(n, row, col, value):
    cells = bytearray((1 << n) ** 2)
    cells[row * (1 << n) + col] = value
    return Lattice(n, bytes(cells))


def test_collide_cell_map_exhaustive():
    # Only the two-particle head-on configurations react.
    lat = Lattice(2, bytes(range(16)))
    out = collide(lat).cells
    for v in range(16):
        if v == 0xA:
            assert out[v] == 0x5
        elif v == 0x5:
            assert out[v] == 0xA
        else:
            assert out[v] == v


def test_propagate_moves_each_direction_with_wrap():
    # East: bit 3, moves right
    assert propagate(single_particle(2, 1, 1, 8)).cell(1, 2) == 8
    assert propagate(single_particle(2, 1, 3, 8)).cell(1, 0) == 8
    # South: bit 2, moves down
    assert propagate(single_particle(2, 1, 1, 4)).cell(2, 1) == 4
    assert propagate(single_particle(2, 3, 1, 4)).cell(0, 1) == 4
    # West: bit 1, moves left
    assert propagate(single_particle(2, 1, 1, 2)).cell(1, 0) == 2
    assert propagate(single_particle(2, 1, 0, 2)).cell(1, 3) == 2
    # North: bit 0, moves up
    assert propagate(single_particle(2, 1, 1, 1)).cell(0, 1) == 1
    assert propagate(single_particle(2, 0, 1, 1)).cell(3, 1) == 1


def test_propagate_empty_lattice_fixed_point():
    lat = Lattice(3, bytes(64))
    assert propagate(lat) == lat


@given(lattices())
@settings(deadline=None)
def test_propagate_full_cycle_is_identity(lat):
    out = lat
    for _ in range(lat.side):
        out = propagate(out)
    assert out == lat


@given(lattices())
@settings(deadline=None)
def test_propagate_conserves_and_swaps_parity(lat):
    even_before, odd_before = parity_counts(lat)
    out = propagate(lat)
    even_after, odd_after = parity_counts(out)
    assert particle_count(out) == particle_count(lat)
    assert even_after == odd_before
    assert odd_after == even_before


@given(lattices())
@settings(deadline=None)
def test_collide_and_invert_are_involutions(lat):
    assert collide(collide(lat)) == lat
    assert invert_all(invert_all(lat)) == lat
    assert particle_count(collide(lat)) == particle_count(lat)
    assert particle_count(invert_all(lat)) == particle_count(lat)


@given(lattices_with_walls())
@settings(deadline=None)
def test_reflect_involution_and_commutation(lat_walls):
    lat, walls = lat_walls
    assert reflect(reflect(lat, walls), walls) == lat
    assert particle_count(reflect(lat, walls)) == particle_count(lat)
    assert reflect(collide(lat), walls) == collide(reflect(lat, walls))


def test_cell_maps_are_involutions_on_all_nibbles():
    every_value = Lattice(2, bytes(range(16)))
    all_cells = {(r, c) for r in range(4) for c in range(4)}
    assert collide(collide(every_value)) == every_value
    assert invert_all(invert_all(every_value)) == every_value
    assert reflect(reflect(every_value, all_cells), all_cells) == every_value
    # reflection on every cell is exactly the global inversion
    assert reflect(every_value, all_cells) == invert_all(every_value)


def test_reflect_cell_semantics():
    lat = single_particle(2, 1, 2, 0x9)  # E+N
    assert reflect(lat, {(1, 2)}).cell(1, 2) == 0x6  # W+S
    # the colliding configurations are fixed by reflection
    assert reflect(single_particle(2, 0, 0, 0xA), {(0, 0)}).cell(0, 0) == 0xA
    assert reflect(single_particle(2, 0, 0, 0x5), {(0, 0)}).cell(0, 0) == 0x5
    # only wall cells are touched
    assert reflect(lat, {(0, 0)}) == lat
    assert reflect(lat, frozenset()) == lat


def test_reflect_rejects_out_of_range_wall():
    lat = Lattice(2, bytes(16))
    with pytest.raises(ParameterError):
        reflect(lat, {(4, 0)})
    with pytest.raises(ParameterError):
        reflect(lat, {(0, -1)})


def test_invert_all_examples():
    lat = Lattice(2, bytes([0x9] * 16))
    assert invert_all(lat).cells == bytes([0x6] * 16)
    full = Lattice(2, bytes([0xF] * 16))
    assert invert_all(full) == full


def test_serialization_layout():
    lat = from_bytes(GOLD_0, 2)
    # 0x90 -> cells 9, 0 across the top row; high nibble first
    assert lat.cell(0, 0) == 0x9
    assert lat.cell(0, 1) == 0x0
    assert lat.cell(0, 2) == 0xA
    assert lat.cell(0, 3) == 0x2
    assert to_bytes(lat) == GOLD_0


def test_block_size_scaling():
    assert block_size(6) == 2048
    lat = Lattice(6, bytes(4096))
    assert len(to_bytes(lat)) == 2048


@given(lattices())
@settings(deadline=None)
def test_serialization_round_trip(lat):
    assert from_bytes(to_bytes(lat), lat.n) == lat


# The serialization by definition, one cell at a time: cells pair up in
# order and the first of each pair goes to the high nibble.
def to_bytes_per_cell(lat):
    it = iter(lat.cells)
    return bytes((a << 4) | b for a, b in zip(it, it))


def from_bytes_per_cell(data, n):
    cells = bytearray()
    for byte in data:
        cells.append(byte >> 4)
        cells.append(byte & 0xF)
    return Lattice(n, bytes(cells))


blocks = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.binary(min_size=block_size(n), max_size=block_size(n))
    )
)


@given(lattices(1, 6))
@settings(deadline=None)
def test_to_bytes_matches_per_cell_definition(lat):
    packed = to_bytes(lat)
    assert packed == to_bytes_per_cell(lat)
    assert len(packed) == block_size(lat.n)
    assert from_bytes(packed, lat.n) == lat


@given(blocks)
@settings(deadline=None)
def test_from_bytes_matches_per_cell_definition(block):
    n, data = block
    lat = from_bytes(data, n)
    assert lat == from_bytes_per_cell(data, n)
    assert from_bytes(bytearray(data), n) == lat
    assert to_bytes(lat) == data


def test_from_bytes_rejects_wrong_length():
    with pytest.raises(FormatError):
        from_bytes(bytes(7), 2)
    with pytest.raises(FormatError):
        from_bytes(bytes(9), 2)


def test_lattice_validation():
    with pytest.raises(ParameterError):
        Lattice(2, bytes([16] + [0] * 15))
    with pytest.raises(FormatError):
        Lattice(2, bytes(15))
    with pytest.raises(ParameterError):
        Lattice(0, b"\x00")


@pytest.mark.parametrize("bad", [16, 255])
@pytest.mark.parametrize("where", [0, 7, 15])
def test_lattice_rejects_any_cell_above_15(bad, where):
    cells = bytearray(16)
    cells[where] = bad
    for raw in (bytes(cells), cells):
        with pytest.raises(ParameterError, match="cell values must fit in 4 bits"):
            Lattice(2, raw)


def test_lattice_accepts_every_nibble():
    cells = bytes(range(16))
    for raw in (cells, bytearray(cells)):
        lat = Lattice(2, raw)
        assert lat.cells == cells
        assert isinstance(lat.cells, bytes)



def test_lattice_is_immutable():
    lat = Lattice(2, bytes(16))
    for name, value in (("n", 3), ("cells", bytes(16)), ("side", 8), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(lat, name, value)
    assert (lat.n, lat.side, lat.cells) == (2, 4, bytes(16))
    # equal lattices hash equally, so they can key a dict or a set
    assert len({lat, Lattice(2, bytearray(16)), Lattice(2, bytes([1]) + bytes(15))}) == 2

def test_parse_walls_text():
    walls = parse_walls_text("0,1\n# comment\n\n3,2\n0,1\n")
    assert walls == frozenset({(0, 1), (3, 2)})
    with pytest.raises(FormatError):
        parse_walls_text("1;2\n")
