"""Lattice, wall and wall-plane builders shared by the test modules,
torus_distance, cell, which reads one cell of a per-cell lattice, the
particle counters of one, plane_bits, which reads the cells of a plane
back one byte each, collided and propagated, which run M and P into new
planes, the symmetries of the torus written on blocks and wall sets
(symmetries, apply_symmetry), and ORACLE_CELL_ROUNDS, the bound on the
per-cell engine's work per example of the hypothesis tests that run it
for many rounds."""

import numpy as np
from hypothesis import strategies as st

from hppcrypt import bitplane as bp
from hppcrypt.lattice import Lattice


# The most work the per-cell oracle may do for one example of a test that
# runs it round after round, in cell-rounds (lattices x cells x rounds):
# its propagation is a Python loop over cells, so an example's time is
# bounded by this whatever the draw.
ORACLE_CELL_ROUNDS = 1 << 18


@st.composite
def lattices(draw, min_n=1, max_n=3):
    n = draw(st.integers(min_n, max_n))
    size = (1 << n) ** 2
    raw = draw(st.binary(min_size=size, max_size=size))
    return Lattice(n, bytes(b & 0xF for b in raw))


# Each byte to its low nibble: uniform bytes become uniform cells.
_LOW_NIBBLE = bytes(b & 0xF for b in range(256))


def random_lattice(rnd, n):
    return Lattice(n, rnd.randbytes((1 << n) ** 2).translate(_LOW_NIBBLE))


def random_walls(rnd, n, count):
    side = 1 << n
    return frozenset(
        (rnd.randrange(side), rnd.randrange(side)) for _ in range(count)
    )


def torus_distance(a, b, side):
    """Manhattan distance of cells a and b on a side x side torus."""
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return min(dr, side - dr) + min(dc, side - dc)


def cell(lat, row, col):
    """The value of cell (row, col) of a per-cell lattice."""
    return lat.cells[row * lat.side + col]


def particle_count(lat):
    """Total number of particles (set bits) on the lattice."""
    # Cell values never exceed 15, so byte popcounts cannot interact.
    return int.from_bytes(lat.cells, "little").bit_count()


def parity_counts(lat):
    """Particle counts on the even and odd (row+col) sublattices."""
    counts = [0, 0]
    for i, cell in enumerate(lat.cells):
        row, col = divmod(i, lat.side)
        counts[(row + col) & 1] += cell.bit_count()
    return tuple(counts)


def batch_mask(wall_sets, n):
    """Wall plane of a batch, lattice b's walls from wall_sets[b], which
    may be empty or of different sizes: the wall_mask planes of the
    lattices side by side."""
    return np.concatenate([bp.wall_mask(walls, n) for walls in wall_sets], axis=-1)


def plane_bits(lanes, n):
    """The cells of planes of 2^n lattices as 0/1 bytes: an array of
    shape (..., words, side, B) gives (..., side, B, side), [..., r, b, c]
    cell (r, c) of lattice b. Each word is unpacked by numpy, low bit
    first, and column c is bit c // words of word c % words."""
    words = lanes.shape[-3]
    raw = np.ascontiguousarray(lanes)[..., None].view(np.uint8)
    # [..., w, r, b, q]: bit q of word w
    bits = np.unpackbits(raw, axis=-1, bitorder="little")[..., :(1 << n) // words]
    return np.moveaxis(bits, -4, -1).reshape(bits.shape[:-4] + bits.shape[-3:-1] + (-1,))


def collided(planes, mask):
    """M on a copy of the planes of a batch: collide_planes works in place."""
    out = np.array(planes)
    bp.collide_planes(*out, mask)
    return out


def propagated(planes):
    """P of the planes of a batch into new planes."""
    out = np.empty_like(planes)
    bp.propagate_planes(*planes, out=out)
    return out


# A cell holds E, S, W and N at bits 3 to 0. The transpose relabels E as
# S and W as N (and back), the column mirror E as W.
_TRANSPOSED = np.array([(v & 0b1010) >> 1 | (v & 0b0101) << 1 for v in range(16)],
                       dtype=np.uint8)
_MIRRORED = np.array([(v & 0b1000) >> 2 | (v & 0b0010) << 2 | v & 0b0101
                      for v in range(16)], dtype=np.uint8)


def block_cells(data, n):
    """The cells of a run of blocks of 2^n lattices, read by numpy, not by
    the converters: a (blocks, side, side) uint8 array, [b, r, c] cell
    (r, c) of block b. Block byte j holds cell 2j in its high nibble and
    cell 2j + 1 in its low one."""
    pairs = np.frombuffer(data, dtype=np.uint8)
    return np.stack((pairs >> 4, pairs & 0xF), axis=-1).reshape(-1, 1 << n, 1 << n)


def cells_to_blocks(cells):
    """Inverse of block_cells: the blocks of a (blocks, side, side) array."""
    pairs = cells.reshape(-1, 2)
    return (pairs[:, 0] << 4 | pairs[:, 1]).tobytes()


def symmetries(n):
    """A symmetry g of the 2^n torus: a word over the transpose T and the
    column mirror M, applied left to right, then a translation (rows,
    columns). Words of up to four letters reach all eight maps of the
    square, so g ranges over the whole group of 8 x 4^n elements."""
    shift = st.integers(0, (1 << n) - 1)
    return st.tuples(st.text(alphabet="TM", max_size=4), st.tuples(shift, shift))


def apply_symmetry(g, data, walls, n):
    """g of every block in `data` and of the wall set `walls`, with the
    directions relabelled to match: the blocks as bytes and the walls as
    a frozenset. The cipher commutes with g: E_{g(W)}(g x) = g E_W(x)."""
    side = 1 << n
    word, (dr, dc) = g
    cells = block_cells(data, n)
    for op in word:
        if op == "T":
            cells = _TRANSPOSED[cells.swapaxes(-2, -1)]
            walls = {(c, r) for r, c in walls}
        else:
            cells = _MIRRORED[cells[..., ::-1]]
            walls = {(r, side - 1 - c) for r, c in walls}
    cells = np.roll(cells, (dr, dc), axis=(-2, -1))
    return (cells_to_blocks(cells),
            frozenset(((r + dr) % side, (c + dc) % side) for r, c in walls))
