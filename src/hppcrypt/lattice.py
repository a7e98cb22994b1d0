"""Reference HPP engine: one byte per cell, explicit per-cell rules.

A lattice is a 2^n x 2^n torus of 4-bit cells stored row-major with row 0
at the top. Each cell holds up to four particles, one per direction, and
the cell value encodes them as bit 3 = East, bit 2 = South, bit 1 = West,
bit 0 = North. North moves toward row-1 and West toward col-1, wrapping
modulo the side length on every edge.

Everything here favors clarity over speed; it is the oracle the
word-parallel engine in :mod:`hppcrypt.bitplane` is tested against.
"""

from __future__ import annotations

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


class Lattice:
    """Immutable 2^n x 2^n grid of 4-bit cells."""

    __slots__ = ("n", "side", "cells")

    def __init__(self, n: int, cells: bytes | bytearray | Iterable[int]):
        if n < 1:
            raise ParameterError(f"lattice exponent must be >= 1, got {n}")
        side = 1 << n
        cells = bytes(cells)
        if len(cells) != side * side:
            raise FormatError(
                f"expected {side * side} cells for n={n}, got {len(cells)}"
            )
        if max(cells) > 0xF:
            raise ParameterError("cell values must fit in 4 bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def cell(self, row: int, col: int) -> int:
        return self.cells[row * self.side + col]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.n == other.n
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.n, self.cells))

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, cells={self.cells.hex()})"


def particle_count(lat: Lattice) -> int:
    """Total number of particles (set bits) on the lattice."""
    # Cell values never exceed 15, so byte popcounts cannot interact.
    return int.from_bytes(lat.cells, "little").bit_count()


def parity_counts(lat: Lattice) -> tuple[int, int]:
    """Particle counts on the even and odd (row+col) sublattices."""
    even = odd = 0
    side = lat.side
    i = 0
    for r in range(side):
        for c in range(side):
            bits = lat.cells[i].bit_count()
            if (r + c) & 1:
                odd += bits
            else:
                even += bits
            i += 1
    return even, odd


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


def hpp_step(lat: Lattice) -> Lattice:
    """One free evolution step: collide, then propagate."""
    return propagate(collide(lat))


def to_bytes(lat: Lattice) -> bytes:
    """Pack cells two per byte, row-major, first cell of each pair in the
    high nibble. A 2^n lattice packs into 2^(2n-1) bytes."""
    cells = lat.cells
    it = iter(cells)
    return bytes((a << 4) | b for a, b in zip(it, it))


def from_bytes(data: bytes, n: int) -> Lattice:
    """Inverse of :func:`to_bytes`; the length must be exactly 2^(2n-1)."""
    expected = block_size(n)
    if len(data) != expected:
        raise FormatError(
            f"block must be {expected} bytes for n={n}, got {len(data)}"
        )
    cells = bytearray()
    for byte in data:
        cells.append(byte >> 4)
        cells.append(byte & 0xF)
    return Lattice(n, bytes(cells))


def block_size(n: int) -> int:
    """Serialized size of a 2^n lattice in bytes: 2^(2n-1)."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    return 1 << (2 * n - 1)
