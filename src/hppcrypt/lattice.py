"""Reference HPP engine: one byte per cell, explicit per-cell rules.

A lattice is a 2^n x 2^n torus of 4-bit cells stored row-major with row 0
at the top. Each cell holds up to four particles, one per direction, and
the cell value encodes them as bit 3 = East, bit 2 = South, bit 1 = West,
bit 0 = North. North moves toward row-1 and West toward col-1, wrapping
modulo the side length on every edge.

The rules (collide, propagate, reflect) stay per cell and favor clarity
over speed; they are the oracle the word-parallel engine in
:mod:`hppcrypt.bitplane` is tested against. Serialization and validation
are table-driven byte operations instead (``bytes.translate``, slice
assignment, one big-integer OR), so reading or writing a block never
loops over its cells in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError, ParameterError

E_BIT, S_BIT, W_BIT, N_BIT = 8, 4, 2, 1

# The only colliding configurations: East+West (0xA) and South+North (0x5)
# swap; every other cell value is a fixed point of the collision rule.
_COLLIDE_TABLE = bytes(
    0x5 if v == 0xA else 0xA if v == 0x5 else v for v in range(256)
)

# Rotating the nibble by two swaps E<->W and S<->N: the reflection applied
# at wall cells, and the global velocity inversion.
_ROTATE2_TABLE = bytes(
    ((v << 2) | (v >> 2)) & 0xF if v < 16 else v for v in range(256)
)

# Deleting these from a byte string leaves exactly its bytes above 15.
_NIBBLES = bytes(range(16))

# Serialization tables: a byte's high and low nibble, and a nibble moved
# into the high half (cells never exceed 15, so only 0..15 are looked up).
_HI = bytes(v >> 4 for v in range(256))
_LO = bytes(v & 0xF for v in range(256))
_SHIFT4 = bytes((v << 4) & 0xFF for v in range(256))


@dataclass(frozen=True)
class Lattice:
    """Immutable 2^n x 2^n grid of 4-bit cells; `cells` may be given as
    any iterable of ints and is kept as bytes."""

    n: int
    cells: bytes

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"lattice exponent must be >= 1, got {self.n}")
        cells, size = bytes(self.cells), self.side * self.side
        if len(cells) != size:
            raise FormatError(f"expected {size} cells for n={self.n}, got {len(cells)}")
        if cells.translate(None, _NIBBLES):
            raise ParameterError("cell values must fit in 4 bits")
        object.__setattr__(self, "cells", cells)

    @property
    def side(self) -> int:
        return 1 << self.n

    def cell(self, row: int, col: int) -> int:
        return self.cells[row * self.side + col]


def check_walls(walls: Iterable[tuple[int, int]], n: int) -> frozenset:
    """Normalize wall coordinates and reject any outside the lattice."""
    side = 1 << n
    walls = frozenset(walls)
    for row, col in walls:
        if not (0 <= row < side and 0 <= col < side):
            raise ParameterError(
                f"wall ({row}, {col}) outside {side}x{side} lattice"
            )
    return walls


def parse_walls_text(text: str) -> frozenset:
    """Parse a wall list, one decimal "row,col" pair per line."""
    walls = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row_s, col_s = line.split(",")
            walls.add((int(row_s), int(col_s)))
        except ValueError:
            raise FormatError(f"bad wall line {lineno}: {line!r}") from None
    return frozenset(walls)


def collide(lat: Lattice) -> Lattice:
    """Apply the collision rule to every cell. Involutive."""
    return Lattice(lat.n, lat.cells.translate(_COLLIDE_TABLE))


def propagate(lat: Lattice) -> Lattice:
    """Move every particle one cell in its own direction, wrapping on the
    torus. Preserves the particle count and flips every particle's
    (row+col) parity."""
    side = lat.side
    src = lat.cells
    out = bytearray(len(src))
    i = 0
    for r in range(side):
        row = r * side
        up = ((r - 1) % side) * side
        down = ((r + 1) % side) * side
        for c in range(side):
            v = src[i]
            if v:
                if v & E_BIT:
                    out[row + (c + 1) % side] |= E_BIT
                if v & S_BIT:
                    out[down + c] |= S_BIT
                if v & W_BIT:
                    out[row + (c - 1) % side] |= W_BIT
                if v & N_BIT:
                    out[up + c] |= N_BIT
            i += 1
    return Lattice(lat.n, bytes(out))


def reflect(lat: Lattice, walls: Iterable[tuple[int, int]]) -> Lattice:
    """Invert particle directions (E<->W, S<->N) on wall cells only.
    Involutive; commutes with collide."""
    walls = check_walls(walls, lat.n)
    out = bytearray(lat.cells)
    side = lat.side
    for row, col in walls:
        i = row * side + col
        out[i] = _ROTATE2_TABLE[out[i]]
    return Lattice(lat.n, bytes(out))


def invert_all(lat: Lattice) -> Lattice:
    """Invert particle directions on every cell: the time-reversal step."""
    return Lattice(lat.n, lat.cells.translate(_ROTATE2_TABLE))


def to_bytes(lat: Lattice) -> bytes:
    """Pack cells two per byte, row-major, first cell of each pair in the
    high nibble. A 2^n lattice packs into 2^(2n-1) bytes."""
    high = lat.cells[0::2].translate(_SHIFT4)
    low = lat.cells[1::2]
    # The two halves share no bit, so one OR of them as integers packs all.
    packed = int.from_bytes(high, "big") | int.from_bytes(low, "big")
    return packed.to_bytes(len(high), "big")


def from_bytes(data: bytes, n: int) -> Lattice:
    """Inverse of :func:`to_bytes`; the length must be exactly 2^(2n-1)."""
    expected = block_size(n)
    if len(data) != expected:
        raise FormatError(
            f"block must be {expected} bytes for n={n}, got {len(data)}"
        )
    cells = bytearray(2 * expected)
    cells[0::2] = data.translate(_HI)
    cells[1::2] = data.translate(_LO)
    return Lattice(n, cells)


def block_size(n: int) -> int:
    """Serialized size of a 2^n lattice in bytes: 2^(2n-1)."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    return 1 << (2 * n - 1)
