"""The involutive HPP block cipher.

The secret key is a set of wall positions. One block fills a 2^n x 2^n
lattice; encryption runs the schedule

    M, (P then M) x rounds, J

where M is the cell-local mixing step (collide, then reflect on wall
cells; the two commute), P is the propagation step and J is the global
velocity inversion. The schedule is palindromic around the propagations,
which makes the whole map an exact involution: running it twice with the
same parameters returns the input, so decryption is literally the same
function. Propagation and the cell-local maps both preserve the particle
count, so the ciphertext always has exactly as many 1-bits as the
plaintext; :func:`ones_density` exists to diagnose that leak.

The bit-plane engine has one round loop, :func:`_trajectory`, which runs
the planes of a batch of lattices under one wall plane and yields their
ciphertext planes. :func:`_encrypt_blocks` is the one path from bytes to it:
blocks to planes in batches of at most :func:`batch_size` blocks, the
loop, planes back to blocks, each converter in one pass over the whole
batch. A batch holds up to ``BATCH_CELLS`` = 2^20 lattice cells (256
blocks at n=6): as many as keep a round's working set in one core's L2
cache, so that the fixed cost of a round's ~25 numpy calls is shared by
as many lattices as can gain from it; only the step from bytes to
planes takes n (see :mod:`hppcrypt.bitplane`). :func:`encrypt_block` is
a batch of one and the streams run whole payloads through it. The
experiment protocols call the loop directly, with planes and wall planes
they build themselves.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bitplane, lattice
from .errors import FormatError, ParameterError
from .lattice import block_size

MAGIC = b"HPPC"
VERSION = 1
_HEADER = struct.Struct(">4sBBIQ")  # magic, version, n, rounds, original length

# Bounds on what encrypt_stream writes and on what a container header may
# ask decryption to run: lattice exponents from 2 to 12 (an 8 MiB
# block) and at most 2^16 rounds, 8 times the default 2^(n+1) at n=12.
MIN_EXPONENT = 2
MAX_EXPONENT = 12
MAX_ROUNDS = 1 << 16

# The most lattice cells one batch of the fast engine holds, which bounds
# the size of its planes (128 KiB each): 4096 lattices at n=4, 256 at
# n=6, and a single lattice from n=10 on. A round costs some 25 numpy
# calls whatever the batch size, so it pays off only on large batches,
# as long as a batch's working set stays in one core's L2 cache: four
# planes, two spare planes for S and N, the wall plane and M's four
# temporaries, about 1.4 MiB. On a 2-core Xeon VM with 2 MiB of L2 per
# core, a cell-round at 2^20 cells took 15-35% less time than at 2^18
# from n=3 to n=8, and 2^21 cells spilled the cache and were slower than
# 2^20 at every n. The block converters run outside the round loop, each
# on the whole batch: by tracemalloc, a full batch peaks at five block
# sizes (2.5 MiB) in planes_from_block and four in planes_to_block from
# n=3 on, counting the intp copies np.take makes of its byte indices,
# and at 13 and 16 at n=1, where a plane byte takes fewer block bytes.
BATCH_CELLS = 1 << 20

# The 2n-bit key groups derive_walls decodes at once: its time grows
# linearly with the key, and their bits take 16n bytes a group as int64.
DECODE_GROUPS = 1 << 13

# The most decimal digits keyspace_count computes, below Python's default
# limit of 4300 digits on converting an int to a string.
MAX_KEYSPACE_DIGITS = 4000


def default_rounds(n: int) -> int:
    """Recommended round count 2^(n+1): twice the lattice's maximal
    toroidal Manhattan distance, so every wall can reach every cell with
    margin."""
    return 1 << (n + 1)


def min_recommended_rounds(n: int) -> int:
    """Below 2^n rounds a wall cannot influence the whole lattice."""
    return 1 << n


def _key_coordinates(keys: np.ndarray, m: int) -> np.ndarray:
    """The (row, col) of each 2m-bit group of a (..., key_len) uint8
    array of keys, read as :func:`derive_walls` describes: an int64 array
    of shape (..., groups, 2), groups in key order, duplicates included."""
    groups = 8 * keys.shape[-1] // (2 * m)
    fields = np.unpackbits(keys, axis=-1)[..., :groups * 2 * m]
    fields = fields.reshape(keys.shape[:-1] + (groups, 2, m))
    return fields @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))


def derive_walls(key: bytes, n: int) -> frozenset:
    """Decode a key into wall positions.

    The key is read as a bitstring, most significant bit first, and split
    into consecutive 2n-bit groups: n row bits, then n column bits.
    Trailing bits that do not fill a group are discarded, and duplicate
    coordinates collapse (a cell either is a wall or is not).
    """
    if not 1 <= n <= 31:  # a cell index row * 2^n + col fits an int64
        raise ParameterError(f"lattice exponent must be in [1, 31], got {n}")
    step = n * DECODE_GROUPS // 4  # bytes of DECODE_GROUPS groups
    cells = set()
    for i in range(0, len(key), step):
        coords = _key_coordinates(np.frombuffer(key[i:i + step], dtype=np.uint8), n)
        cells.update((coords[:, 0] << n | coords[:, 1]).tolist())
    if not cells:
        raise ParameterError(
            f"key yields no walls: need at least {2 * n} bits, got {8 * len(key)}"
        )
    return frozenset(divmod(cell, 1 << n) for cell in cells)


@dataclass(frozen=True)
class CipherParams:
    """Everything needed to encrypt or decrypt: lattice exponent, round
    count and the wall set."""

    n: int
    rounds: int
    walls: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"lattice exponent must be >= 1, got {self.n}")
        if self.rounds < 0:
            raise ParameterError(f"rounds must be >= 0, got {self.rounds}")
        object.__setattr__(self, "walls", lattice.check_walls(self.walls, self.n))

    @classmethod
    def from_key(cls, key: bytes, n: int, rounds: int | None = None) -> "CipherParams":
        return _resolve_params(key, n, rounds, None)


def batch_size(n: int) -> int:
    """Blocks per batch of the fast engine at lattice exponent n."""
    return max(1, BATCH_CELLS >> (2 * n))


def _check_block_length(block: bytes, n: int) -> None:
    if len(block) != block_size(n):
        raise FormatError(
            f"block must be {block_size(n)} bytes for n={n}, got {len(block)}"
        )


def encrypt_block(block: bytes, params: CipherParams, engine: str = "bitplane") -> bytes:
    """Encrypt (equivalently, decrypt) one 2^(2n-1)-byte block.

    The map is an involution for every choice of parameters and preserves
    the number of set bits exactly.
    """
    if engine not in ("bitplane", "reference"):
        raise ParameterError(f"unknown engine {engine!r}")
    _check_block_length(block, params.n)
    if engine == "reference":
        return _encrypt_reference(block, params)
    return _encrypt_blocks(block, params)


def _trajectory(planes, mask, counts: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The fast engine's only round loop. Run the planes of a batch under
    the wall plane `mask` up to the largest of `counts` and yield, at
    each count, the planes after J: the batch's ciphertexts at that round
    count, as a new array of the planes' shape that later rounds do not
    write to. Up to the final J, the schedule for r rounds is a prefix of
    the one for any r' > r, so the rounds run once, in place on one copy
    of the planes and two spare planes that S and N move into. The counts
    must be non-negative and strictly ascending; every caller validates
    them, and none is checked here."""
    state = np.array(planes)  # the caller's planes stay as they are
    del planes  # hold one set of planes, not two, while the rounds run
    e, s, w, nn = bitplane.collide_planes(*state, mask, out=state)
    s_to, n_to = np.empty_like(state[:2])
    done = 0
    for count in counts:
        for _ in range(count - done):
            moved = (e, s_to, w, n_to)
            s_to, n_to = s, nn
            e, s, w, nn = bitplane.propagate_planes(e, s, w, nn, out=moved)
            e, s, w, nn = bitplane.collide_planes(e, s, w, nn, mask, out=moved)
        done = count
        yield np.stack(bitplane.invert_planes(e, s, w, nn))


def _encrypt_reference(block: bytes, params: CipherParams) -> bytes:
    lat = lattice.from_bytes(block, params.n)
    lat = lattice.reflect(lattice.collide(lat), params.walls)
    for _ in range(params.rounds):
        lat = lattice.propagate(lat)
        lat = lattice.reflect(lattice.collide(lat), params.walls)
    return lattice.to_bytes(lattice.invert_all(lat))


decrypt_block = encrypt_block


@dataclass(frozen=True)
class CipherContainer:
    """File envelope for an encrypted stream. Header fields travel in the
    clear; only the wall positions are secret."""

    n: int
    rounds: int
    original_length: int
    payload: bytes

    def __post_init__(self):
        bs = block_size(self.n)
        if len(self.payload) % bs:
            raise FormatError(
                f"payload length {len(self.payload)} is not a multiple of "
                f"the {bs}-byte block size"
            )
        if self.original_length > len(self.payload):
            raise FormatError("original length exceeds payload length")

    def to_bytes(self) -> bytes:
        return _HEADER.pack(
            MAGIC, VERSION, self.n, self.rounds, self.original_length
        ) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherContainer":
        if len(data) < _HEADER.size:
            raise FormatError("container shorter than its header")
        magic, version, n, rounds, original_length = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if not MIN_EXPONENT <= n <= MAX_EXPONENT:
            raise FormatError(
                f"lattice exponent {n} in header is outside "
                f"[{MIN_EXPONENT}, {MAX_EXPONENT}]"
            )
        if rounds > MAX_ROUNDS:
            raise FormatError(
                f"{rounds} rounds in header exceeds the limit of {MAX_ROUNDS}"
            )
        return cls(n, rounds, original_length, data[_HEADER.size:])

    def block_count(self) -> int:
        return len(self.payload) // block_size(self.n)


def encrypt_stream(
    data: bytes,
    key: bytes | None,
    n: int,
    rounds: int | None = None,
    walls: frozenset | None = None,
) -> CipherContainer:
    """Encrypt arbitrary-length data: zero-pad to whole blocks, encrypt
    each block independently, record the true length in the header.

    Walls come from the key unless an explicit wall set is given, which
    must not be empty. The lattice exponent and the round count must lie
    within the bounds that :meth:`CipherContainer.from_bytes` accepts, so
    every container written here loads again.
    """
    if not MIN_EXPONENT <= n <= MAX_EXPONENT:
        raise ParameterError(
            f"n must be in [{MIN_EXPONENT}, {MAX_EXPONENT}], got {n}"
        )
    params = _resolve_params(key, n, rounds, walls)
    if params.rounds > MAX_ROUNDS:
        raise ParameterError(
            f"rounds must be at most {MAX_ROUNDS}, got {params.rounds}"
        )
    padded = data + bytes(-len(data) % block_size(n))
    return CipherContainer(n, params.rounds, len(data), _encrypt_blocks(padded, params))


def decrypt_stream(
    container: CipherContainer,
    key: bytes | None,
    walls: frozenset | None = None,
) -> bytes:
    """Decrypt a container; lattice exponent and rounds come from its
    header."""
    params = _resolve_params(key, container.n, container.rounds, walls)
    return _encrypt_blocks(container.payload, params)[: container.original_length]


def _encrypt_blocks(data: bytes, params: CipherParams) -> bytes:
    """Encrypt whole blocks under one params, in batches of at most
    batch_size(n) blocks: the one path from bytes to the round loop.
    Every batch shares one wall plane, repeated to its lattice count."""
    n = params.n
    bs = block_size(n)
    step = batch_size(n) * bs
    wall = bitplane.wall_mask(params.walls, n)
    view = memoryview(data)
    out = []
    for i in range(0, len(data), step):
        lattices = min(step, len(data) - i) // bs
        mask = np.repeat(wall, lattices, axis=1)
        (planes,) = _trajectory(bitplane.planes_from_block(view[i:i + step], n),
                                mask, (params.rounds,))
        out.append(bitplane.planes_to_block(planes))
    return b"".join(out)


def _resolve_params(
    key: bytes | None, n: int, rounds: int | None, walls: frozenset | None
) -> CipherParams:
    if walls is None:
        if key is None:
            raise ParameterError("either a key or an explicit wall set is required")
        walls = derive_walls(key, n)
    elif not walls:  # as derive_walls refuses a key that yields none
        raise ParameterError("wall set is empty: need at least one wall")
    return CipherParams(n, default_rounds(n) if rounds is None else rounds, walls)


def keyspace_count(n: int, k: int) -> int:
    """Number of distinct wall configurations for K walls on a 2^n lattice:
    the number of size-K multisets over the 2^(2n) cells,
    C(2^(2n) + K - 1, K), computed exactly. A count of more than
    MAX_KEYSPACE_DIGITS decimal digits is refused, and one that is surely
    that large is refused before it is computed."""
    if n < 1:
        raise ParameterError(f"lattice exponent must be >= 1, got {n}")
    if k < 0:
        raise ParameterError(f"wall count must be >= 0, got {k}")
    cells = 1 << (2 * n)
    top, j = cells + k - 1, min(k, cells - 1)
    # C(top, j) >= (top / j)^j; one digit of margin covers float rounding,
    # and what passes has j <= 13,300 or so (top / j >= 2), cheap to count.
    if j and j * (math.log10(top) - math.log10(j)) > MAX_KEYSPACE_DIGITS + 1:
        raise _keyspace_too_large(n, k)
    count = math.comb(top, k)
    if count >= 10**MAX_KEYSPACE_DIGITS:
        raise _keyspace_too_large(n, k)
    return count


def _keyspace_too_large(n: int, k: int) -> ParameterError:
    return ParameterError(
        f"the key space of {k} walls at n={n} has more than "
        f"{MAX_KEYSPACE_DIGITS} digits"
    )


def approx_scientific(value: int) -> str:
    """Two leading digits of a positive integer in scientific notation,
    truncated: 2002... with 727 digits renders as "2.0e726"."""
    if value < 0:
        raise ParameterError("expected a non-negative integer")
    digits = str(value)
    if len(digits) == 1:
        return f"{digits}.0e0"
    return f"{digits[0]}.{digits[1]}e{len(digits) - 1}"


def ones_density(block: bytes) -> float:
    """Fraction of set bits. The cipher preserves it exactly, so ciphertext
    density equals plaintext density; values far from 0.5 leak."""
    if not block:
        return 0.0
    return int.from_bytes(block, "little").bit_count() / (8 * len(block))
