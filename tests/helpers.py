"""Lattice, wall and wall-plane builders shared by the test modules,
plane_bits, which reads the cells of a plane back one byte each, and
ORACLE_CELL_ROUNDS, the bound on the per-cell engine's work per example
of the hypothesis tests that run it for many rounds."""

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


def batch_mask(wall_sets, n):
    """Wall plane of a batch, lattice b's walls from wall_sets[b], which
    may be empty or of different sizes: the wall_mask planes of the
    lattices side by side."""
    return np.concatenate([bp.wall_mask(walls, n) for walls in wall_sets], axis=1)


def plane_bits(lanes, n):
    """The cells of an array of 2^n-lattice row lanes as 0/1 bytes, of
    shape lanes.shape[:-1] + (side,): a plane (side, B, words) gives
    [r, b, c], cell (r, c) of lattice b."""
    bits = np.unpackbits(lanes.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :1 << n]
