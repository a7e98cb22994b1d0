"""Seeded avalanche and strict-avalanche protocols, plus report emitters.

Every protocol is deterministic: randomness comes from a counter-based
Philox generator keyed by (seed, trial index), so trials are independent
sub-streams. Every trial keeps its own draws and walls and is compared
only with its own reference, so a report is reproducible bit for bit
from its config no matter how trials are scheduled or share batches.

An :class:`ExperimentConfig` holds every input of a run and refuses a bad
one before any work starts. :func:`run_protocol` runs all six protocols
through one generator, :func:`_diffs`, from the config to the bits each
flip inverts, and counts them with one of two reducers: :func:`_curve`
(avalanche curves over round counts) or :func:`_strict` (per ciphertext
bit at one round count: Webster and Tavares' strict avalanche criterion).

Plaintext flips can only ever reach half of the cells: a flipped cell
influences only the checkerboard class of parity (row+col+rounds) mod 2,
which caps the text avalanche near 0.25 where the key avalanche
approaches 0.5. The text protocols use this to run two flips per
lattice, one in a cell with row+col even and one with row+col odd. That
is exact: M and J are cell-local, P moves every particle to a cell of
the other class and all lattices of a trial share their walls, so the
two classes evolve as separate lattices, and the pair inverts the
disjoint union of the bits each flip inverts alone. The reducers add
popcounts or per-bit counts, so they get the same integers from half
the lattices. Key flips cannot pair: a wall acts on both classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bitplane
from . import lattice as _lattice
from .cipher import (
    MAX_EXPONENT,
    MAX_ROUNDS,
    CipherParams,
    _key_coordinates,
    _trajectory,
    batch_size,
    encrypt_block,
)
from .errors import ParameterError
from .imaging import GrayImage, image_to_lattice, lattice_to_image
from .lattice import block_size

_MASK64 = (1 << 64) - 1

# The most trials one run may ask for; the paper-scale defaults use at
# most 1000.
MAX_TRIALS = 1 << 16

# The most values one report may hold, points x trials, counted before
# any are allocated; paper-scale strict-avalanche at n=6 with 1000
# trials holds 16.4M.
MAX_REPORT_VALUES = 1 << 24

# The most cell-rounds one run may ask for, trials x lattices per trial
# x last round count x cells; the largest default, strict-text, asks for
# 2^33 and a round sweep to 1024 at n=8 for 2^37.
MAX_CELL_ROUNDS = 1 << 42

# protocol -> (flip_key, per_bit): whether it flips key bits rather than
# plaintext bits, and whether it reports one probability per ciphertext
# bit at a single round count rather than a curve over round counts.
PROTOCOLS = {
    # mean fraction inverted per key-bit flip; approaches 0.5
    "avalanche-key": (True, False),
    # per plaintext-bit flip; plateaus near 0.24, not 0.5, because a text
    # flip reaches only one checkerboard class
    "avalanche-text": (False, False),
    # key avalanche with every wall drawn inside the wall region (the key
    # is reread as region-relative coordinates)
    "avalanche-key-concentrated": (True, False),
    # over all key-bit flips every bit should sit near 0.5 (observed 0.47)
    "strict-key": (True, True),
    # over all plaintext-bit flips; clusters near 0.25
    "strict-text": (False, True),
    # only plaintext bit `bit` flips: exactly the opposite-parity half of
    # the bits never inverts, the rest invert about half the time
    "single-bit": (False, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    n: int
    rounds_range: tuple[int, int, int]  # start, step, stop (inclusive)
    trials: int
    seed: int
    key_len: int  # bytes
    wall_region: tuple[int, int, int] | None = None  # row0, col0, side
    bit: int = 0  # the plaintext bit that single-bit flips

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ParameterError(f"unknown protocol {self.protocol!r}")
        flip_key, per_bit = PROTOCOLS[self.protocol]
        # n=1 is below the cipher's MIN_EXPONENT but still a lattice
        if not 1 <= self.n <= MAX_EXPONENT:
            raise ParameterError(
                f"lattice exponent must be in [1, {MAX_EXPONENT}], got {self.n}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ParameterError(
                f"trials must be in [1, {MAX_TRIALS}], got {self.trials}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError(f"seed must be in [0, 2^64), got {self.seed}")
        # At most one block of key: 8*block_len key flips per trial, the
        # same as the text protocols' plaintext flips.
        if not 1 <= self.key_len <= self.block_len:
            raise ParameterError(
                f"key length must be in [1, {self.block_len}] bytes for "
                f"n={self.n}, got {self.key_len}"
            )
        start, step, stop = self.rounds_range
        if start < 0 or step < 1 or stop < start:
            raise ParameterError(f"empty rounds range {self.rounds_range}")
        if stop > MAX_ROUNDS:
            raise ParameterError(f"rounds must be at most {MAX_ROUNDS}, got {stop}")
        if per_bit and len(range(start, stop + 1, step)) != 1:
            raise ParameterError(
                "strict-avalanche protocols use a single round count, "
                f"got range {self.rounds_range}"
            )
        points = 8 * self.block_len if per_bit else len(range(start, stop + 1, step))
        if points * self.trials > MAX_REPORT_VALUES:
            raise ParameterError(
                f"a report of {points} points x {self.trials} trials exceeds "
                f"{MAX_REPORT_VALUES} values"
            )
        m = self.n
        if self.wall_region is not None:
            row0, col0, size = self.wall_region
            side = 1 << self.n
            if size < 2 or size & (size - 1):
                raise ParameterError(
                    f"wall region side must be a power of two >= 2, got {size}"
                )
            if row0 < 0 or col0 < 0 or row0 + size > side or col0 + size > side:
                raise ParameterError(
                    f"wall region {self.wall_region} does not fit a "
                    f"{side}x{side} lattice"
                )
            m = size.bit_length() - 1
        elif self.protocol == "avalanche-key-concentrated":
            raise ParameterError("avalanche-key-concentrated needs a wall region")
        if 8 * self.key_len < 2 * m:
            raise ParameterError(
                f"key of {self.key_len} bytes yields no walls: need at least "
                f"{2 * m} bits for one wall coordinate"
            )
        if flip_key and (8 * self.key_len) % (2 * m):
            raise ParameterError(
                f"key of {self.key_len} bytes does not split into "
                f"{2 * m}-bit wall coordinates"
            )
        if not 0 <= self.bit < 8 * self.block_len:
            raise ParameterError(f"bit index {self.bit} outside the block")
        lattices = 2 if self.protocol == "single-bit" else 1 + (
            8 * self.key_len if flip_key else 4 * self.block_len)
        rounds = max(1, range(start, stop + 1, step)[-1])
        if self.trials * lattices * rounds << 2 * self.n > MAX_CELL_ROUNDS:
            raise ParameterError(
                f"a run of {self.trials} trials x {lattices} lattices x {rounds} "
                f"rounds x {1 << 2 * self.n} cells exceeds {MAX_CELL_ROUNDS} "
                "cell-rounds")

    @property
    def block_len(self) -> int:
        """Block bytes, 2^(2n-1)."""
        return block_size(self.n)

    def round_values(self) -> tuple[int, ...]:
        start, step, stop = self.rounds_range
        return tuple(range(start, stop + 1, step))


# Paper-scale defaults per protocol; any field can be overridden.
_DEFAULTS = {
    "avalanche-key": dict(n=6, trials=5, rounds_range=(10, 10, 200)),
    "avalanche-text": dict(n=4, trials=20, rounds_range=(10, 2, 208)),
    "avalanche-key-concentrated": dict(
        n=6, trials=5, rounds_range=(10, 10, 200), wall_region=(0, 0, 8)
    ),
    "strict-key": dict(n=4, trials=1000, rounds_range=(64, 1, 64)),
    "strict-text": dict(n=4, trials=1000, rounds_range=(64, 1, 64)),
    "single-bit": dict(n=4, trials=1000, rounds_range=(64, 1, 64)),
}


def default_key_len(n: int) -> int:
    """Key bytes encoding 2^(n-1) walls of 2n bits each."""
    bits = 2 * n * (1 << (n - 1))
    if bits % 8:
        raise ParameterError(f"no whole-byte default key for n={n}")
    return bits // 8


def default_config(protocol: str, **overrides) -> ExperimentConfig:
    if protocol not in _DEFAULTS:
        raise ParameterError(f"unknown protocol {protocol!r}")
    fields = dict(_DEFAULTS[protocol])
    fields.update(overrides)
    n = fields["n"]
    fields.setdefault("seed", 0)
    if "key_len" not in fields:  # n=1 has no default, but may be given one
        fields["key_len"] = default_key_len(n)
    return ExperimentConfig(protocol=protocol, **fields)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-point results: x is a round count (curves) or a ciphertext bit
    index (strict protocols), y the mean inversion fraction across trials,
    stddev the population spread across trials."""

    config: ExperimentConfig
    xs: tuple[int, ...]
    ys: tuple[float, ...]
    stddevs: tuple[float, ...]

    def mean_y(self) -> float:
        return sum(self.ys) / len(self.ys)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def flip_bit(data: bytes, index: int) -> bytes:
    """Flip bit `index` of the MSB-first bitstream view of `data`: the
    byte-level definition of a flip, which the protocols build as planes."""
    out = bytearray(data)
    out[index >> 3] ^= 0x80 >> (index & 7)
    return bytes(out)


def inverted_fraction(a: bytes, b: bytes) -> float:
    """Fraction of the bits that differ between two equal-length blocks:
    the byte-level definition of what the curves count as planes."""
    if len(a) != len(b):
        raise ParameterError("blocks must have equal length")
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return diff.bit_count() / (8 * len(a))


def _report(config, xs, per_trial: np.ndarray) -> ExperimentReport:
    # per_trial has shape (len(xs), trials)
    ys = per_trial.mean(axis=1)
    stddevs = per_trial.std(axis=1)
    return ExperimentReport(
        config, tuple(xs), tuple(ys.tolist()), tuple(stddevs.tolist()))


def _checkerboard_pairs(flips: np.ndarray, n: int) -> np.ndarray:
    """The plaintext flips as rows (even, odd) of a (k, 2) array: the
    flips of cells with row+col even in column 0 and odd in column 1,
    each in the order of `flips`, row i pairing the i-th of each class;
    -1 fills the shorter column. A lattice flipped in both cells of a row
    differs from the reference exactly in the disjoint union of the two
    single-flip differences (see the module docstring)."""
    cell = flips >> 2
    odd = ((cell >> n) + cell) & 1  # row + col; col is even iff cell is
    classes = flips[odd == 0], flips[odd == 1]
    pairs = np.full((max(map(len, classes)), 2), -1, dtype=np.int64)
    for k, flips_k in enumerate(classes):
        pairs[:len(flips_k), k] = flips_k
    return pairs


def _flips(keys: list, n: int, region, refs: np.ndarray, flip_key: bool):
    """Batch builder of a group of trials: trial j has key keys[j] and
    reference planes lattice j of `refs`. The keys are decoded once into
    wall coordinates, read as region-relative 2m-bit groups when there is
    a region, and a cell is a wall when listed at all, or in a region
    when listed an odd number of times (reflecting a cell twice is a
    no-op), which keeps every key bit live in a tiny region. build(batch)
    gives the (planes, mask) of trials * len(batch) lattices, trial j's
    from j * len(batch) on, each starting as its trial's reference. With
    `flip_key`, the batch holds one key bit per lattice, and flipping key
    bit i toggles one bit of one coordinate; otherwise it holds a row of
    block bits per lattice, each bit i >= 0 in row b toggled in lattice b
    by bitplane.toggle_bits, and all of a trial's lattices share one wall
    plane. -1 flips nothing."""
    m = n if region is None else region[2].bit_length() - 1
    base = _key_coordinates(
        np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1), m)
    offset = np.array((0, 0) if region is None else region[:2], dtype=np.int64)
    odd = region is not None
    trials, walls = base.shape[:2]
    shared = None if flip_key else bitplane.coordinate_mask(base + offset, n, odd=odd)

    def build(batch: np.ndarray):
        per_trial = len(batch)
        planes = np.repeat(refs, per_trial, axis=2)
        at = np.nonzero(batch >= 0)[0]
        bit = batch[batch >= 0]
        if flip_key:
            # Key bit i is bit k = i % 2m, MSB first, of coordinate i // 2m, a row
            # bit below m; ExperimentConfig makes the key whole 2m-bit groups.
            group, k = np.divmod(bit, 2 * m)
            # coords[j, b] are the wall coordinates of trial j's lattice b
            coords = np.repeat(base[:, None], per_trial, axis=1)
            coords[:, at, group, k // m] ^= 1 << (m - 1 - k % m)
            coords += offset
            return planes, bitplane.coordinate_mask(
                coords.reshape(-1, walls, 2), n, odd=odd)
        bitplane.toggle_bits(
            planes, bit, np.arange(0, trials * per_trial, per_trial)[:, None] + at)
        return planes, np.repeat(shared, per_trial, axis=1)

    return build


def _diffs(config: ExperimentConfig, flip_key: bool, flips: np.ndarray, counts):
    """The trial loop of every protocol, from its config to the bits each
    flip inverts. A trial is L lattices: its reference (text, key) first,
    then one lattice with a key bit flipped for each index in `flips`, in
    that order, or one lattice per row of _checkerboard_pairs(flips, n)
    with both of its plaintext bits flipped. Trial t draws its text and
    then its key from trial_rng(seed, t). Whole trials share a batch of
    the round loop, a group of as many as fit in batch_size(n) lattices
    and at least one; a trial of L > batch_size(n) lattices is cut into
    ceil(L / batch_size(n)) pieces of near-equal size, since a round
    costs about as much on a small batch as on a full one. A group's
    reference texts are read from bytes at once, and _flips builds each
    of its pieces as planes.

    Each piece runs along one trajectory up to the largest round count,
    so a protocol costs max(counts) rounds per lattice, not the sum of its
    counts. Yield (t, trials, ri, diff) at counts[ri] for a piece of the
    group of `trials` trials from trial t on: diff is the piece's
    ciphertext planes (see the bitplane docstring), the lattice axis split
    into (trials, per_piece), XOR each trial's reference: a set bit is one
    that a flip inverted. A trial's reference is its first lattice in the
    group's first piece. Each diff is the round loop's own output, XORed
    in place, and is not written again."""
    n = config.n
    # -1: no flip; the reference lattice flips nothing
    if flip_key:
        lattice_flips = np.concatenate(([-1], flips))
    else:
        lattice_flips = np.concatenate(([[-1, -1]], _checkerboard_pairs(flips, n)))
    per_trial = len(lattice_flips)
    pieces = -(-per_trial // batch_size(n))
    edges = [per_trial * i // pieces for i in range(pieces + 1)]
    group = max(1, batch_size(n) // per_trial)
    for t in range(0, config.trials, group):
        rngs = [trial_rng(config.seed, j)
                for j in range(t, min(t + group, config.trials))]
        trials = len(rngs)
        refs = bitplane.planes_from_block(
            b"".join(rng.bytes(config.block_len) for rng in rngs), n)
        build = _flips([rng.bytes(config.key_len) for rng in rngs], n,
                       config.wall_region, refs, flip_key)
        firsts = []  # per round count, each trial's reference ciphertext
        for a, b in zip(edges, edges[1:]):
            for ri, out in enumerate(_trajectory(*build(lattice_flips[a:b]), counts)):
                out = out.reshape(out.shape[:2] + (trials, -1, out.shape[-1]))
                if a == 0:  # the first piece: keep each trial's lattice 0
                    firsts.append(out[:, :, :, :1].copy())
                out ^= firsts[ri]
                yield t, trials, ri, out


def _curve(config: ExperimentConfig, diffs, flip_count: int) -> ExperimentReport:
    """Mean inverted fraction per round count: per trial, the popcount
    of its differences over all its flips, an integer total divided once.
    block_bits is a power of two and every partial sum is exact, so the
    floats equal adding each flip's fraction in turn."""
    rounds = config.round_values()
    block_bits = 8 * config.block_len
    totals = np.zeros((len(rounds), config.trials), dtype=np.int64)
    for t, trials, ri, diff in diffs:
        totals[ri, t:t + trials] += np.bitwise_count(diff).sum(
            axis=(0, 1, 3, 4), dtype=np.int64)
    return _report(config, rounds, totals / block_bits / flip_count)


def _strict(config: ExperimentConfig, diffs, flip_count: int) -> ExperimentReport:
    """Inversion probability of each ciphertext bit at the single round
    count: bitplane.add_bit_counts adds, per batch and per trial, the
    number of lattices whose bit differs from the trial's reference; the
    float64 totals are exact, divided once."""
    per_trial = np.zeros((8 * config.block_len, config.trials))
    for t, trials, _, diff in diffs:
        bitplane.add_bit_counts(diff, per_trial[:, t:t + trials])
    per_trial /= flip_count
    return _report(config, range(len(per_trial)), per_trial)


def run_protocol(config: ExperimentConfig) -> ExperimentReport:
    """Run the config's protocol; the one entry point for all six."""
    flip_key, per_bit = PROTOCOLS[config.protocol]
    if config.protocol == "single-bit":
        flips = np.array([config.bit])
    else:
        flips = np.arange(8 * (config.key_len if flip_key else config.block_len))
    reduce = _strict if per_bit else _curve
    return reduce(config, _diffs(config, flip_key, flips, config.round_values()),
                  len(flips))


@dataclass(frozen=True)
class LeakDemoResult:
    """Encrypt-with-full-key then decrypt-with-deficient-key round trip.

    `tile_diff[i][j]` is the fraction of bits that differ from the
    original plaintext inside the (tile_size x tile_size) tile at tile row
    i, tile column j of the decoded lattice."""

    encrypted: GrayImage
    decrypted: GrayImage
    tile_size: int
    tile_diff: tuple[tuple[float, ...], ...]


def partial_key_leak_demo(
    image: GrayImage,
    full_walls: frozenset,
    missing_walls: frozenset,
    rounds: int,
    tile_size: int = 8,
) -> LeakDemoResult:
    """Encrypt an image with one wall set and decrypt with another
    (typically a subset). Regions farther than `rounds` from every
    dropped wall decode exactly; the tile map quantifies the leak."""
    lat = image_to_lattice(image)
    side = lat.side
    if tile_size < 1 or side % tile_size:
        raise ParameterError(
            f"tile size {tile_size} does not divide the {side}-cell side"
        )
    block = _lattice.to_bytes(lat)
    ct = encrypt_block(block, CipherParams(lat.n, rounds, full_walls))
    back = encrypt_block(ct, CipherParams(lat.n, rounds, missing_walls))

    original = np.frombuffer(lat.cells, dtype=np.uint8).reshape(side, side)
    decoded_lat = _lattice.from_bytes(back, lat.n)
    decoded = np.frombuffer(decoded_lat.cells, dtype=np.uint8).reshape(side, side)

    tiles = side // tile_size
    diff_bits = np.unpackbits((original ^ decoded)[..., None], axis=-1)
    counts = diff_bits.reshape(tiles, tile_size, tiles, tile_size, 8).sum(
        axis=(1, 3, 4))
    tile_diff = tuple(
        tuple(row) for row in (counts / (4 * tile_size * tile_size)).tolist()
    )
    return LeakDemoResult(
        lattice_to_image(_lattice.from_bytes(ct, lat.n)),
        lattice_to_image(decoded_lat),
        tile_size,
        tile_diff,
    )


def emit_csv(report: ExperimentReport, path: str | Path) -> None:
    """Write the report as UTF-8 CSV with an x,y,stddev header. Output is
    byte-deterministic for a given report."""
    if not report.xs:
        raise ParameterError("cannot emit an empty report")
    lines = ["x,y,stddev"]
    lines.extend(
        f"{x},{y!r},{s!r}"
        for x, y, s in zip(report.xs, report.ys, report.stddevs)
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 40, 48


def emit_svg_plot(report: ExperimentReport, path: str | Path) -> None:
    """Render the report as a static SVG 1.1 chart: axes, dashed reference
    lines at 0.25 and 0.5, a polyline for round-count curves or a scatter
    for per-bit protocols. Byte-deterministic for a given report."""
    if not report.xs:
        raise ParameterError("cannot emit an empty report")
    curve = not PROTOCOLS[report.config.protocol][1]
    y_max = 0.6 if curve else 1.0
    x_max = max(max(report.xs), 1)
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def px(x: float) -> float:
        return _ML + plot_w * x / x_max

    def py(y: float) -> float:
        return _MT + plot_h * (1 - y / y_max)

    def num(v) -> str:  # floats to two places, ints as they are
        return f"{v:.2f}" if isinstance(v, float) else str(v)

    def text(x, y, anchor, size, body) -> str:
        return (f'<text x="{num(x)}" y="{num(y)}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="{size}">{body}</text>')

    def line(x1, y1, x2, y2, style='stroke="black"') -> str:
        return (f'<line x1="{num(x1)}" y1="{num(y1)}" x2="{num(x2)}" '
                f'y2="{num(y2)}" {style}/>')

    c = report.config
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        text(_SVG_W / 2, 20, "middle", 14,
             f"{c.protocol} (n={c.n}, trials={c.trials}, seed={c.seed})"),
        line(_ML, py(0), _SVG_W - _MR, py(0)),  # axes
        line(_ML, _MT, _ML, py(0)),
        text(_ML + plot_w / 2, _SVG_H - 12, "middle", 12,
             "number of rounds" if curve else "ciphertext bit"),
    ]
    for y in (y_max * frac / 4 for frac in range(5)):
        out += [text(_ML - 6, py(y) + 4, "end", 11, f"{y:.2f}"),
                line(_ML - 4, py(y), _ML, py(y))]
    for x in (x_max * frac / 4 for frac in range(5)):
        out += [text(px(x), py(0) + 16, "middle", 11, f"{x:.0f}"),
                line(px(x), py(0), px(x), py(0) + 4)]
    for ref in (0.25, 0.5):
        out.append(line(_ML, py(ref), _SVG_W - _MR, py(ref),
                        'stroke="gray" stroke-dasharray="6,4"'))
    if curve:
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(report.xs, report.ys)
        )
        out.append(
            f'<polyline points="{points}" fill="none" stroke="black" '
            f'stroke-width="1.5"/>'
        )
    r = 3 if curve else 1
    for x, y in zip(report.xs, report.ys):
        out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="{r}" fill="black"/>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")

