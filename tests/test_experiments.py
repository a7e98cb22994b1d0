import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hppcrypt import bitplane, cipher, experiments
from hppcrypt.bitplane import planes_from_block, wall_mask
from hppcrypt.cipher import (
    MAX_EXPONENT,
    MAX_ROUNDS,
    CipherParams,
    _key_coordinates,
    batch_size,
    derive_walls,
    encrypt_block,
)
from hppcrypt.errors import ParameterError
from hppcrypt.experiments import (
    MAX_CELL_ROUNDS,
    MAX_TRIALS,
    PROTOCOLS,
    ExperimentConfig,
    ExperimentReport,
    _draws,
    _flips,
    _report,
    default_config,
    emit_csv,
    emit_svg_plot,
    flip_bit,
    inverted_fraction,
    run_protocol,
    trial_rng,
)
from hppcrypt.lattice import block_size

from helpers import plane_bits


def reachable_bits(n: int, bit_index: int, rounds: int) -> np.ndarray:
    """Boolean mask over ciphertext bits that a flip of plaintext
    `bit_index` can influence: cells whose (row+col) parity equals the
    flipped cell's parity plus the round count, mod 2."""
    side = 1 << n
    cell = bit_index // 4
    target = (cell // side + cell % side + rounds) & 1
    cells = np.arange(side * side)
    cell_parity = (cells // side + cells % side) & 1
    return np.repeat(cell_parity == target, 4)


def _region_walls(key: bytes, n: int, region: tuple[int, int, int] | None) -> frozenset:
    """Wall set for a key, optionally confined to a sub-square: the
    byte-level definition of the walls the protocols build as planes.

    With a region of side 2^m the key is reread as 2m-bit groups giving
    region-relative coordinates, and cells drawn an even number of times
    cancel (reflecting a cell twice is a no-op). Together these keep every
    key bit live even though the region is tiny: one flipped bit always
    toggles exactly two cells' wall status.
    """
    if region is None:
        return derive_walls(key, n)
    row0, col0, size = region
    odd = set()
    coords = _key_coordinates(np.frombuffer(key, dtype=np.uint8), size.bit_length() - 1)
    for row, col in coords.tolist():
        odd ^= {(row0 + row, col0 + col)}
    return frozenset(odd)


def tiny_config(protocol, **overrides):
    base = dict(n=3, trials=2, rounds_range=(2, 2, 6), key_len=3, seed=7)
    base.update(overrides)
    return default_config(protocol, **base)


def test_flip_bit_is_msb_first():
    assert flip_bit(b"\x00\x00", 0) == b"\x80\x00"
    assert flip_bit(b"\x00\x00", 7) == b"\x01\x00"
    assert flip_bit(b"\x00\x00", 8) == b"\x00\x80"
    assert flip_bit(flip_bit(b"\xa5", 3), 3) == b"\xa5"


def test_inverted_fraction():
    assert inverted_fraction(b"\x00", b"\xff") == 1.0
    assert inverted_fraction(b"\x0f\x00", b"\x0f\x01") == 1 / 16
    with pytest.raises(ParameterError):
        inverted_fraction(b"\x00", b"\x00\x00")


def test_trial_rng_substreams_differ_and_repeat():
    assert trial_rng(1, 0).bytes(8) == trial_rng(1, 0).bytes(8)
    assert trial_rng(1, 0).bytes(8) != trial_rng(1, 1).bytes(8)
    assert trial_rng(1, 0).bytes(8) != trial_rng(2, 0).bytes(8)


@st.composite
def draw_cases(draw):
    """(n, key_len, seed, first, trials): a key of 1 to block_len bytes,
    any 64-bit seed and up to three trials from any index on."""
    n = draw(st.integers(1, 6))
    key_len = draw(st.integers(1, block_size(n)))
    trials = draw(st.integers(1, 3))
    first = draw(st.integers(0, 2**64 - trials))
    return n, key_len, draw(st.integers(0, 2**64 - 1)), first, trials


@given(draw_cases())
@example((1, 1, 2**64 - 1, 2**64 - 1, 1))  # a 2-byte block, the last index
@example((6, 2048, 0, 0, 3))
@settings(deadline=None, max_examples=60)
def test_draws_equal_trial_rng_bytes(case):
    # _draws reads the raw Philox words that trial_rng(seed, t).bytes()
    # reads: the text, then the key, of every trial, over two calls of
    # one draw function, as _diffs makes them group after group.
    n, key_len, seed, first, trials = case
    draw = _draws(seed, block_size(n), key_len)
    for t in (first, first + trials - 1):
        count = first + trials - t
        texts, keys = draw(t, count)
        assert texts.dtype == keys.dtype == np.uint8
        assert texts.shape == (count, block_size(n))
        assert keys.shape == (count, key_len)
        for j in range(count):
            rng = trial_rng(seed, t + j)
            assert texts[j].tobytes() == rng.bytes(block_size(n))
            assert keys[j].tobytes() == rng.bytes(key_len)


@pytest.mark.parametrize("n", range(1, 7))
def test_draws_equal_trial_rng_bytes_at_every_key_length(n):
    for key_len in range(1, block_size(n) + 1):
        texts, keys = _draws(2**64 - 1 - n, block_size(n), key_len)(2**40 + n, 1)
        rng = trial_rng(2**64 - 1 - n, 2**40 + n)
        assert texts.tobytes() == rng.bytes(block_size(n)), key_len
        assert keys.tobytes() == rng.bytes(key_len), key_len


def test_imports_leave_numpy_random_unloaded():
    # numpy loads numpy.random on first use; importing it costs tens of
    # ms, so the package makes its Philox only when a protocol runs.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, hppcrypt, hppcrypt.experiments, hppcrypt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_reports_are_bit_identical_across_runs(tmp_path):
    cfg = tiny_config("avalanche-text")
    first = run_protocol(cfg)
    second = run_protocol(cfg)
    assert first == second
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(first, a)
    emit_csv(second, b)
    assert a.read_bytes() == b.read_bytes()


def test_curve_report_shape():
    cfg = tiny_config("avalanche-key")
    report = run_protocol(cfg)
    assert report.xs == (2, 4, 6)
    assert all(0.0 <= y <= 1.0 for y in report.ys)
    assert all(s >= 0.0 for s in report.stddevs)
    assert report.config == cfg


def test_strict_report_has_one_entry_per_ciphertext_bit():
    cfg = default_config("strict-key", trials=3, seed=1)
    report = run_protocol(cfg)
    assert len(report.ys) == 8 * cfg.block_len == 1024
    assert report.xs == tuple(range(1024))
    assert all(0.0 <= y <= 1.0 for y in report.ys)


def test_single_bit_zero_class_is_exactly_opposite_parity():
    # 64 trials: an influenced bit misses all of them with chance 2^-64,
    # so the zero set must equal the unreachable parity class exactly.
    rounds = 64
    for bit in (0, 4, 13):
        cfg = default_config("single-bit", trials=64, seed=3, bit=bit)
        report = run_protocol(cfg)
        zero_set = {i for i, y in enumerate(report.ys) if y == 0.0}
        side = 1 << cfg.n
        cell = bit // 4
        live_parity = ((cell // side) + (cell % side) + rounds) & 1
        expected_zero = {
            i for i in range(1024)
            if (((i // 4) // side) + ((i // 4) % side)) & 1 != live_parity
        }
        assert zero_set == expected_zero
        assert len(zero_set) == 512
        hot = [y for y in report.ys if y > 0.0]
        assert abs(sum(hot) / len(hot) - 0.5) < 0.1
        mask = reachable_bits(cfg.n, bit, rounds)
        assert {i for i in range(1024) if not mask[i]} == expected_zero


def test_single_bit_rejects_out_of_range_index():
    with pytest.raises(ParameterError):
        default_config("single-bit", trials=1, bit=1024)


def test_strict_key_paper_scale_band():
    # At the protocol's native 1000 trials every per-bit probability sits
    # in a narrow band around 0.47.
    report = run_protocol(default_config("strict-key", seed=42))
    assert abs(report.mean_y() - 0.47) <= 0.02
    assert min(report.ys) >= 0.40
    assert max(report.ys) <= 0.55


def test_strict_text_clusters_near_quarter():
    report = run_protocol(default_config("strict-text", trials=30, seed=42))
    assert abs(report.mean_y() - 0.25) <= 0.03
    assert max(report.ys) < 0.45  # nothing near 0.5


def test_avalanche_key_requires_splittable_key():
    with pytest.raises(ParameterError):
        tiny_config("avalanche-key", key_len=1)  # 8 bits % 6 != 0


def test_strict_key_requires_splittable_key():
    # 8 key bits make one 6-bit wall coordinate at n=3 and two dropped bits
    with pytest.raises(ParameterError, match="does not split"):
        default_config("strict-key", n=3, key_len=1, trials=1)


def test_key_shorter_than_one_wall_coordinate_is_refused():
    # A text protocol's key needs no whole split, but at least one 2m-bit
    # coordinate: 8 bits make none at n=5 (10 bits), nor in a region that
    # covers the whole lattice.
    for protocol in PROTOCOLS:
        region = (0, 0, 32) if protocol == "avalanche-key-concentrated" else None
        with pytest.raises(ParameterError, match="yields no walls"):
            default_config(protocol, n=5, key_len=1, trials=1, wall_region=region)
    # In a region of side 2^m the key needs 2m bits: 8 bits are too few
    # for m=5 (the whole lattice) and hold exactly one group at m=4.
    with pytest.raises(ParameterError, match="need at least 10 bits"):
        default_config("avalanche-text", n=5, key_len=1, trials=1,
                       wall_region=(0, 0, 32))
    for protocol in ("avalanche-text", "strict-text", "single-bit"):
        cfg = default_config(protocol, n=5, key_len=1, trials=1,
                             wall_region=(8, 16, 16), rounds_range=(2, 1, 2))
        assert run_protocol(cfg).config is cfg


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_requires_region_iff_its_defaults_give_one(protocol):
    # A record's defaults set only config fields, and a config without a
    # wall region is refused exactly when its protocol's defaults give one.
    defaults = PROTOCOLS[protocol].defaults
    assert set(defaults) <= {f.name for f in dataclasses.fields(ExperimentConfig)}
    if "wall_region" in defaults:
        with pytest.raises(ParameterError, match=f"^{protocol} needs a wall region$"):
            default_config(protocol, wall_region=None)
    else:
        assert default_config(protocol, wall_region=None).wall_region is None


def test_region_validation():
    with pytest.raises(ParameterError):
        tiny_config("avalanche-key-concentrated", wall_region=(0, 0, 16))
    with pytest.raises(ParameterError):
        tiny_config("avalanche-key-concentrated", wall_region=(4, 4, 8))
    with pytest.raises(ParameterError):
        tiny_config("avalanche-key-concentrated", wall_region=(0, 0, 3))


def test_region_walls_hand_decoded():
    # Region side 4 (m=2): 01101100 splits into 0110, 1100 -> (1, 2), (3, 0),
    # each shifted by the region's origin (4, 8).
    assert _region_walls(bytes([0b01101100]), 4, (4, 8, 4)) == {(5, 10), (7, 8)}
    # Region side 8 (m=3): 8 bits hold one 6-bit group 101011 -> (5, 3);
    # the trailing bits 11 are dropped.
    assert _region_walls(bytes([0b10101111]), 4, (2, 2, 8)) == {(7, 5)}
    # Two 6-bit groups, both (0, 0): a cell drawn twice cancels out.
    assert _region_walls(bytes(2), 4, (0, 0, 8)) == frozenset()
    # Groups 0110, 0110, 1100, 0000: the repeated (1, 2) cancels, the rest stay.
    assert _region_walls(bytes([0b01100110, 0b11000000]), 4, (0, 0, 4)) == {
        (3, 0), (0, 0)
    }
    assert _region_walls(bytes([0b01101100]), 2, None) == {(1, 2), (3, 0)}


def test_degenerate_region_matches_plain_key_avalanche():
    # Seed 5 draws duplicate-free walls in every trial and flip, where the
    # whole-grid region is exactly the plain derivation.
    kwargs = dict(n=4, trials=2, rounds_range=(4, 4, 8), key_len=8, seed=5)
    plain = run_protocol(default_config("avalanche-key", **kwargs))
    degenerate = run_protocol(
        default_config("avalanche-key-concentrated", wall_region=(0, 0, 16), **kwargs)
    )
    assert plain.ys == degenerate.ys


def test_text_avalanche_matches_published_early_point():
    cfg = default_config("avalanche-text", rounds_range=(10, 1, 10), seed=42)
    report = run_protocol(cfg)
    assert abs(report.ys[0] - 0.03529) <= 0.005


def test_concentrated_matches_published_points():
    # Walls packed into an 8x8 corner of the 64x64 grid still avalanche,
    # just a little later than randomly spread walls.
    for r, expect in ((60, 0.40916), (200, 0.47703)):
        cfg = default_config(
            "avalanche-key-concentrated", rounds_range=(r, 1, r), seed=42
        )
        report = run_protocol(cfg)
        assert abs(report.ys[0] - expect) <= 0.015


# sha256 of the emit_csv output of each protocol at a small fixed config:
# several round counts for the curves (round 0 included where the range
# starts there), plaintext bit 13 for single-bit. The curve digests were
# recorded before the curves reused round prefixes, the strict ones before
# the six protocols shared one trial loop; any change that keeps the
# protocols' arithmetic must reproduce them.
GOLDEN_CSV = {
    "avalanche-key": (
        dict(n=4, trials=2, rounds_range=(0, 3, 15), key_len=8, seed=3),
        "d8f7b2af4c66cd91792bec3ff0c550c796cb95e4b3d762986941f34c366511e1",
    ),
    "avalanche-key-concentrated": (
        dict(n=4, trials=2, rounds_range=(1, 5, 21), key_len=4,
             wall_region=(4, 8, 4), seed=9),
        "ce4fcf774b0387a426dd38481d3292ef0ab7912f4ec6deddf5b2e0fa215176f7",
    ),
    "avalanche-text": (
        dict(n=3, trials=3, rounds_range=(0, 2, 12), key_len=3, seed=11),
        "b1a18b77018e968919d64714cc6edae053a8669455a420ce6871ce0f9ef041c0",
    ),
    "strict-key": (
        dict(n=3, trials=3, rounds_range=(16, 1, 16), key_len=3, seed=5),
        "cccdd672a81c8317b4da1c96d0b40a7bc87c91da75b502785ef33dc9b4c3e318",
    ),
    "strict-text": (
        dict(n=3, trials=3, rounds_range=(16, 1, 16), key_len=3, seed=5),
        "eb321ab719e1f4f2e9d3df5ce3b598d579f648a819e5a201deebf65b7ecc1dff",
    ),
    "single-bit": (
        dict(n=4, trials=5, seed=5, bit=13),
        "605b4d5b00b39e103d7bdfc6276eb735c4c3003e091c5157062df58831c1e18f",
    ),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_CSV))
def test_protocol_csv_matches_golden_digest(tmp_path, protocol):
    overrides, digest = GOLDEN_CSV[protocol]
    path = tmp_path / "report.csv"
    emit_csv(run_protocol(default_config(protocol, **overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the emit_svg_plot output of one curve and one scatter report,
# at their GOLDEN_CSV configs; recorded before the chart's markup came
# from shared text and line helpers.
GOLDEN_SVG = {
    "avalanche-text":
        "eda484243ec3a313c2ddf790e74aa0a1c47447b858924689fe4fd49d99abb198",
    "strict-key":
        "b9b9383c3e44d1b1b3010a5f270564f9f4582dc16cf8b53b7eef4f3702f3f4f9",
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_SVG))
def test_protocol_svg_matches_golden_digest(tmp_path, protocol):
    overrides, _ = GOLDEN_CSV[protocol]
    path = tmp_path / "report.svg"
    emit_svg_plot(run_protocol(default_config(protocol, **overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SVG[protocol]


# Configs with trials of many lattices, each entry as (protocol,
# overrides, digest). The first four were recorded before batching
# existed, when each spanned several batches of 2^16 cells. In batches of
# 2^20 cells avalanche-key (1 + 384 lattices at n=6) still spans 2, but
# strict-key (1 + 1024 at n=4) and the n=4 text trials (1 + 512/2) fit
# one. The n=5 text entries (1 + 4096/2 = 2049 lattices, 3 batches),
# recorded with the engine of 2^16-cell batches, and strict-key-n5
# (1 + 2560 lattices, 3 batches), recorded with the engine of 2^18-cell
# batches (11 of them), keep the text and strict-key protocols across
# batches.
GOLDEN_CSV_BATCHES = {
    "avalanche-key": (
        "avalanche-key",
        dict(n=6, key_len=48, trials=1, rounds_range=(2, 3, 11), seed=21),
        "002183cfaa2ac5fcdc092f9af036134f5cd70ae14d2decfa8aa8661596c9c0c6",
    ),
    "avalanche-text": (
        "avalanche-text",
        dict(n=4, key_len=8, trials=1, rounds_range=(1, 4, 13), seed=21),
        "0e203282ee1254fe7d3ae4883a6da9745c8d9ab0ba631cf0d7b11a29600349aa",
    ),
    "avalanche-text-n5": (
        "avalanche-text",
        dict(n=5, trials=1, rounds_range=(1, 4, 13), seed=21),
        "52d0954b550dcd1882f14a218cb0a0cfe1d1c41ab4d4ea140b60d68f379ce977",
    ),
    "strict-key": (
        "strict-key",
        dict(n=4, key_len=128, trials=1, rounds_range=(8, 1, 8), seed=21),
        "5b5d5bad9de4344391c00ba66604e242b2add4a91f3269a898672ad62d307450",
    ),
    "strict-text": (
        "strict-text",
        dict(n=4, trials=1, rounds_range=(8, 1, 8), seed=21),
        "03c0a95901d5c114de7342029aacf4bdf85cba1ef53a13484b9cf836671df516",
    ),
    "strict-text-n5": (
        "strict-text",
        dict(n=5, trials=1, rounds_range=(8, 1, 8), seed=21),
        "f67e20de987f076c39b5a9adede38b701e87c00da051da91314271707ead6f36",
    ),
    "strict-key-n5": (
        "strict-key",
        dict(n=5, key_len=320, trials=1, rounds_range=(8, 1, 8), seed=21),
        "66efe02fb2cbf50fb22660bb77cd71752c313ccfbef399e8104f7fa781ea84b7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_BATCHES))
def test_multi_batch_csv_matches_golden_digest(tmp_path, name):
    protocol, overrides, digest = GOLDEN_CSV_BATCHES[name]
    path = tmp_path / "report.csv"
    emit_csv(run_protocol(default_config(protocol, **overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_strict_protocols_honour_the_wall_region():
    plain = run_protocol(default_config("strict-key", trials=2, seed=4))
    region = run_protocol(
        default_config("strict-key", trials=2, seed=4, wall_region=(0, 0, 4))
    )
    assert region.config.wall_region == (0, 0, 4)
    assert region.ys != plain.ys


def test_run_protocol_dispatch():
    for protocol in ("avalanche-key", "avalanche-text"):
        report = run_protocol(tiny_config(protocol))
        assert report.config.protocol == protocol
    report = run_protocol(default_config("single-bit", trials=2, seed=1, bit=5))
    assert len(report.ys) == 1024


def test_config_validation():
    with pytest.raises(ParameterError):
        default_config("no-such-protocol")
    # the round counts reach the round loop unchecked, so every range
    # must give non-negative, strictly ascending counts
    for bad_range in ((6, 2, 4), (-1, 1, 4), (2, 0, 4)):
        with pytest.raises(ParameterError):
            tiny_config("avalanche-key", rounds_range=bad_range)
    with pytest.raises(ParameterError):
        tiny_config("avalanche-key", trials=0)
    with pytest.raises(ParameterError, match="single round count"):
        default_config("strict-text", rounds_range=(8, 8, 16))
    with pytest.raises(ParameterError, match=f"at most {MAX_ROUNDS}"):
        tiny_config("avalanche-text", rounds_range=(0, 1, MAX_ROUNDS + 1))
    assert tiny_config("avalanche-text", rounds_range=(MAX_ROUNDS, 1, MAX_ROUNDS))
    with pytest.raises(ParameterError, match="outside the block"):
        tiny_config("single-bit", rounds_range=(4, 1, 4), bit=-1)
    # sizes that reach the trial loop are bounded: at most one block of
    # key (n=3: 32 bytes), MAX_TRIALS trials, a seed of 64 bits; the key
    # lengths split into whole 6-bit wall coordinates
    huge = 1 << 70
    for protocol in ("avalanche-text", "avalanche-key"):
        for key_len in (33, 3 * huge):
            with pytest.raises(ParameterError, match="key length must be in"):
                tiny_config(protocol, key_len=key_len)
    assert default_config("strict-key", key_len=block_size(4)).key_len == 128
    for trials in (MAX_TRIALS + 1, huge):
        with pytest.raises(ParameterError, match="trials must be in"):
            tiny_config("avalanche-text", trials=trials)
    assert tiny_config("avalanche-text", trials=MAX_TRIALS).trials == MAX_TRIALS
    for seed in (-1, 1 << 64, huge):
        with pytest.raises(ParameterError, match="seed must be in"):
            tiny_config("avalanche-text", seed=seed)
    assert tiny_config("avalanche-text", seed=(1 << 64) - 1)
    # a report holds at most MAX_REPORT_VALUES points x trials
    with pytest.raises(ParameterError, match="exceeds 16777216 values"):
        default_config("strict-text", n=11, trials=4096, rounds_range=(1, 1, 1))
    with pytest.raises(ParameterError, match="exceeds 16777216 values"):
        tiny_config("avalanche-text", trials=MAX_TRIALS, rounds_range=(0, 1, 256))
    assert default_config("strict-key", n=6, trials=1000).trials == 1000
    assert tiny_config("avalanche-text", trials=MAX_TRIALS, rounds_range=(0, 1, 255))



def test_config_refuses_exponents_past_the_cipher():
    # The cipher takes no n past MAX_EXPONENT, and a run at such an n
    # would ask for 2^(2n) cells per lattice before anything else failed
    for protocol, n, key_len in (("avalanche-text", 16, 4), ("avalanche-key", 20, 5),
                                 ("avalanche-text", 31, 8)):
        with pytest.raises(ParameterError, match="lattice exponent must be in"):
            default_config(protocol, n=n, trials=1, key_len=key_len,
                           rounds_range=(1, 1, 1))
    # key flips, as a text protocol's 2^25 flips at n=12 pass MAX_CELL_ROUNDS
    for n, key_len in ((1, 1), (MAX_EXPONENT, 3)):
        assert default_config("avalanche-key", n=n, trials=1, key_len=key_len,
                              rounds_range=(1, 1, 1)).n == n
    # With no key length, the default one refuses the same n first, before
    # it counts 2^(n-1) walls of a huge n; n=1 has no whole-byte default.
    for n in (0, -1, 13, 10**9):
        with pytest.raises(ParameterError,
                           match=fr"^lattice exponent must be in \[1, 12\], got {n}$"):
            default_config("avalanche-key", n=n)
    with pytest.raises(ParameterError, match="no whole-byte default key for n=1"):
        default_config("avalanche-key", n=1)


def test_config_refuses_bit_outside_single_bit():
    # Only single-bit flips one chosen bit; any other protocol would drop it
    for protocol in sorted(set(PROTOCOLS) - {"single-bit"}):
        with pytest.raises(ParameterError, match=(
                f"^bit is for single-bit only, got bit=5 for {protocol}$")):
            default_config(protocol, n=3, trials=1, bit=5)
        assert default_config(protocol, n=3, trials=1, bit=0).bit == 0
    assert default_config("single-bit", n=3, trials=1, bit=5).bit == 5


def test_config_bounds_cell_rounds():
    # Trials x lattices per trial x last round count x cells is bounded by
    # MAX_CELL_ROUNDS when the config is built, before any allocation: a
    # text trial at n=12 is 2^25 + 1 lattices of 2^24 cells.
    for protocol, n, trials, rounds in (("avalanche-text", 12, 1, (1, 1, 1)),
                                        ("avalanche-text", 11, 1, (1, 1, 1)),
                                        ("avalanche-key", 6, 255, (0, 1, 65535))):
        with pytest.raises(ParameterError, match="cell-rounds"):
            default_config(protocol, n=n, trials=trials, rounds_range=rounds)
    # At n=4 a text trial is 513 lattices of 256 cells: 2^16 trials to
    # round 511 stay under 2^42, to round 512 do not; the last count of
    # the range is what counts, not its stop.
    assert default_config("avalanche-text", trials=MAX_TRIALS, rounds_range=(511, 1, 511))
    assert default_config("avalanche-text", trials=MAX_TRIALS, rounds_range=(0, 511, 1000))
    with pytest.raises(ParameterError, match=(
            "a run of 65536 trials x 513 lattices x 512 rounds x 256 cells "
            f"exceeds {MAX_CELL_ROUNDS} cell-rounds")):
        default_config("avalanche-text", trials=MAX_TRIALS, rounds_range=(512, 1, 512))
    # every default, and an avalanche-key sweep to 1024 rounds at n=8
    for protocol in PROTOCOLS:
        assert default_config(protocol)
    assert default_config("avalanche-key", n=8, trials=1, rounds_range=(0, 16, 1024))


# --- plane-space trials against the byte-level definition -----------------

# Tiny configs of all six protocols: n = 2 and 3, one or two trials,
# several round counts for the curves, and wall regions on both the key
# and the text side.
TINY = {
    "avalanche-key": dict(n=2, key_len=2, trials=2, rounds_range=(0, 3, 9), seed=1),
    "avalanche-text": dict(n=3, key_len=3, trials=1, rounds_range=(1, 4, 9), seed=2),
    "avalanche-key-concentrated": dict(
        n=3, key_len=3, trials=2, rounds_range=(2, 2, 6), wall_region=(2, 4, 4),
        seed=3),
    "strict-key": dict(n=3, key_len=3, trials=2, rounds_range=(5, 1, 5), seed=4),
    "strict-text": dict(
        n=2, key_len=1, trials=2, rounds_range=(6, 1, 6), wall_region=(0, 2, 2),
        seed=5),
    "single-bit": dict(n=3, key_len=3, trials=2, rounds_range=(4, 1, 4), bit=13,
                       seed=6),
}
TINY_REGION_STRICT_KEY = dict(
    n=3, key_len=1, trials=2, rounds_range=(3, 1, 3), wall_region=(0, 0, 4), seed=7)
# Three trials each, so that at two trials per batch the last group holds
# one: a key curve, strict-key in a region, strict-text, single-bit.
TINY_GROUPED = [
    ("avalanche-key", dict(n=2, key_len=2, trials=3, rounds_range=(0, 3, 9), seed=11)),
    ("strict-key", dict(n=3, key_len=1, trials=3, rounds_range=(3, 1, 3),
                        wall_region=(0, 4, 4), seed=12)),
    ("strict-text", dict(n=2, key_len=1, trials=3, rounds_range=(5, 1, 5), seed=13)),
    ("single-bit", dict(n=3, key_len=3, trials=3, rounds_range=(4, 1, 4), bit=40,
                        seed=14)),
]

# A text protocol whose key does not split into whole 2m-bit groups: 16
# bits at n=3 give two walls, and the last 4 bits are dropped, as
# derive_walls drops them.
TINY_SHORT_KEY = (
    "avalanche-text", dict(n=3, key_len=2, trials=2, rounds_range=(1, 4, 9), seed=15))

# The strict reducer's lane layouts beyond uint16 and uint32: at n=1 one
# uint8 per lane of two columns, at n=7 two uint64 words per lane, with
# the walls and the flipped bit next to the column where the words meet.
STRICT_LANES = [
    ("strict-text", dict(n=1, key_len=1, trials=3, rounds_range=(5, 1, 5), seed=16)),
    ("strict-key", dict(n=7, key_len=1, trials=2, rounds_range=(4, 1, 4),
                        wall_region=(0, 62, 4), seed=17)),
    ("single-bit", dict(n=7, key_len=7, trials=2, rounds_range=(8, 1, 8),
                        bit=4 * (5 * 128 + 63) + 1, seed=18)),
]


def lattices_per_trial(cfg):
    """L: the reference, then one lattice per key flip, per byte pair of
    text flips, or for single-bit's one flip."""
    flip_key = PROTOCOLS[cfg.protocol].flips == "key"
    if cfg.protocol == "single-bit":
        return 2
    return 1 + (8 * cfg.key_len if flip_key else 4 * cfg.block_len)


def direct_report(cfg):
    """A protocol by its definition, one flip at a time: flip_bit on the
    key or text bytes, walls from _region_walls, the per-cell reference
    engine at every round count, then inverted_fraction per flip for the
    curves or per-bit XOR counts for the strict protocols."""
    flip_key = PROTOCOLS[cfg.protocol].flips == "key"
    per_bit = PROTOCOLS[cfg.protocol].per_bit
    if cfg.protocol == "single-bit":
        flips = [cfg.bit]
    else:
        flips = range(8 * (cfg.key_len if flip_key else cfg.block_len))
    rounds = cfg.round_values()
    block_bits = 8 * cfg.block_len
    per_trial = np.zeros((block_bits if per_bit else len(rounds), cfg.trials))

    def encrypt(text, key, r):
        walls = _region_walls(key, cfg.n, cfg.wall_region)
        return encrypt_block(text, CipherParams(cfg.n, r, walls), engine="reference")

    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        text = rng.bytes(cfg.block_len)
        key = rng.bytes(cfg.key_len)
        pairs = [
            (text, flip_bit(key, i)) if flip_key else (flip_bit(text, i), key)
            for i in flips
        ]
        for ri, r in enumerate(rounds):
            reference = encrypt(text, key, r)
            cts = [encrypt(b, k, r) for b, k in pairs]
            if per_bit:
                xor = [bytes(x ^ y for x, y in zip(ct, reference)) for ct in cts]
                counts = np.unpackbits(
                    np.frombuffer(b"".join(xor), dtype=np.uint8).reshape(len(cts), -1),
                    axis=1).sum(axis=0)
                per_trial[:, t] = counts / len(cts)
            else:
                per_trial[ri, t] = sum(
                    inverted_fraction(reference, ct) for ct in cts) / len(cts)
    return _report(cfg, range(block_bits) if per_bit else rounds, per_trial)


@pytest.mark.parametrize(
    "protocol, overrides",
    [*sorted(TINY.items()), ("strict-key", TINY_REGION_STRICT_KEY), *TINY_GROUPED,
     TINY_SHORT_KEY, *STRICT_LANES],
)
def test_protocols_match_their_per_flip_definition(monkeypatch, protocol, overrides):
    # Exact equality, no tolerance: the plane-space reducers must give the
    # floats of the per-flip definition, also when a trial spans several
    # batches (here forced down to at most 5 lattices each, cut evenly)
    # and when whole trials share a batch (two per batch, the last group
    # partial for an odd trial count).
    cfg = default_config(protocol, **overrides)
    want = direct_report(cfg)
    got = run_protocol(cfg)
    assert got.ys == want.ys and got.stddevs == want.stddevs and got.xs == want.xs
    monkeypatch.setattr(experiments, "batch_size", lambda n: 5)
    assert run_protocol(cfg) == want
    size = 3 * lattices_per_trial(cfg) - 1
    monkeypatch.setattr(experiments, "batch_size", lambda n: size)
    assert run_protocol(cfg) == want


def test_protocols_build_no_blocks(monkeypatch):
    # Trials are built and reduced as planes: no block packing, no
    # per-flip byte work and no wall sets of tuples on the protocol path.
    def refuse(*args, **kwargs):
        raise AssertionError("byte-level path reached")

    monkeypatch.setattr(bitplane, "planes_to_block", refuse)
    monkeypatch.setattr(bitplane, "wall_mask", refuse)
    monkeypatch.setattr(experiments, "flip_bit", refuse)
    for protocol, overrides in sorted(TINY.items()):
        assert run_protocol(default_config(protocol, **overrides)).ys


# (key, n, region) cases that both flip kinds run through the builder.
FLIP_CASES = {
    # groups 0110 0110 0110 1100: (1, 2) three times, so a flip in one
    # of its copies leaves it a wall
    "repeated": (bytes([0b01100110, 0b01101100]), 2, None),
    "random": (trial_rng(71, 0).bytes(6), 3, None),
    # groups 0110 0111: walls (1, 2) and (1, 3), and a flip of the last
    # bit of either moves it onto the other, which stays a wall
    "onto-wall": (bytes([0b01100111]), 2, None),
    # region side 4: groups 0110 0110 1100 0000, (1, 2) twice cancels,
    # and a flip in one copy makes both cells walls
    "region-cancels": (bytes([0b01100110, 0b11000000]), 3, (2, 4, 4)),
    "region-random": (trial_rng(71, 1).bytes(9), 4, (4, 8, 8)),
    # region side 4: groups 0110 0111, (1, 2) and (1, 3); a flip moving
    # one onto the other lists that cell twice, which cancels it
    "region-onto-wall": (bytes([0b01100111]), 3, (2, 4, 4)),
}


@pytest.mark.parametrize(
    "flip_key, key, n, region",
    [
        *(pytest.param(flip_key, *case, id=f"{'key' if flip_key else 'text'}-{name}")
          for flip_key in (True, False) for name, case in FLIP_CASES.items()),
        # text flips at every n, under keys of n + 1 bytes: at n = 3 and
        # 5 their last bits fill no 2n-bit group and are dropped
        *(pytest.param(False, trial_rng(76, n).bytes(n + 1), n, None, id=f"text-n{n}")
          for n in range(1, 6)),
    ],
)
def test_flip_batches_match_flipped_blocks_and_keys(flip_key, key, n, region):
    # A group of two trials, as _diffs builds it: trial j's lattices
    # follow one another, each the trial's text under its key with one
    # key bit flipped, or with a row of plaintext bits flipped: pairs
    # (8j + k, 8j + 4 + k) of a block byte, in random order, or one bit a
    # lattice, as single-bit flips.
    keys = [key, trial_rng(72, 1).bytes(len(key))]
    texts = [trial_rng(72, n).bytes(block_size(n)), trial_rng(72, 2).bytes(block_size(n))]
    refs = planes_from_block(b"".join(texts), n)
    if flip_key:
        flips, cut, none = np.arange(8 * len(key)), 5, [-1]
    else:
        pairs = np.arange(8 * block_size(n)).reshape(-1, 2, 4).swapaxes(1, 2).reshape(-1, 2)
        flips = trial_rng(73, n).permutation(pairs)[:48]
        cut, none = 15, [[-1, -1]]
        assert len(flips) > cut or n == 1
    build = _flips(keys, n, region, refs, flip_key)
    # the first batch and the one-bit batch hold the reference (no flip),
    # the second only flips
    batches = [np.concatenate((none, flips[:cut])), flips[cut:]]
    if not flip_key:
        batches.append(np.concatenate(([-1], flips[:cut, 1])))
    for batch in batches:
        if not len(batch):
            continue
        planes, mask = build(batch)
        blocks, wall_sets = [], []
        for text, trial_key in zip(texts, keys):
            for row in batch:
                block, k = text, trial_key
                for i in np.atleast_1d(row):
                    if i < 0:
                        continue
                    if flip_key:
                        k = flip_bit(k, int(i))
                    else:
                        block = flip_bit(block, int(i))
                blocks.append(block)
                wall_sets.append(_region_walls(k, n, region))
        assert planes.shape[-1] == 2 * len(batch)
        assert np.array_equal(planes, planes_from_block(b"".join(blocks), n))
        lattices = [wall_mask(walls, n) for walls in wall_sets]
        assert np.array_equal(mask, np.concatenate(lattices, axis=-1))
        bits = plane_bits(mask, n)
        assert bits.shape == (1 << n, 2 * len(batch), 1 << n)
        for b, (walls, want) in enumerate(zip(wall_sets, lattices)):
            assert np.array_equal(bits[:, b:b + 1], plane_bits(want, n)), (b, walls)


def cell_parity(bit, n):
    """row + col of the cell of block bit `bit`, mod 2."""
    cell = bit // 4
    return (cell // (1 << n) + cell % (1 << n)) & 1


@pytest.mark.parametrize("protocol", ["avalanche-text", "strict-text", "single-bit"])
def test_text_trials_flip_each_bit_once(monkeypatch, protocol):
    # Through the trial loop, on the planes its builder gives, with
    # batches forced down to 5 lattices and then to groups of two trials
    # (the last group holding one): per trial the reference flips nothing,
    # every flip index appears in exactly one lattice, and every other
    # lattice flips one bit (single-bit) or a byte pair, bit k of cells 2j
    # and 2j + 1 of block byte j, one cell of each checkerboard class.
    cfg = default_config(protocol, **dict(TINY[protocol], trials=3))
    n, side = cfg.n, 1 << cfg.n
    flips = ([cfg.bit] if protocol == "single-bit"
             else list(range(8 * cfg.block_len)))
    per_trial = lattices_per_trial(cfg)
    groups = []
    flips_builder = experiments._flips

    def recording(keys, n, region, refs, flip_key):
        batches = []
        groups.append((len(keys), batches))
        build = flips_builder(keys, n, region, refs, flip_key)

        def record(batch):
            batches.append(build(batch))
            return batches[-1]
        return record

    monkeypatch.setattr(experiments, "_flips", recording)
    for size in (5, 3 * per_trial - 1):
        groups.clear()
        monkeypatch.setattr(experiments, "batch_size", lambda n: size)
        run_protocol(cfg)
        k = max(1, size // per_trial)
        assert [trials for trials, _ in groups] == [
            min(k, cfg.trials - t) for t in range(0, cfg.trials, k)]
        t = 0
        for trials, batches in groups:
            # per trial, the block bits each of its lattices flips
            lattices_flips = [[] for _ in range(trials)]
            for planes, _ in batches:
                per = planes.shape[-1] // trials
                for j in range(trials):
                    text = trial_rng(cfg.seed, t + j).bytes(cfg.block_len)
                    bits = [
                        plane_bits(p, n).reshape(side, trials, per, side)[:, j]
                        ^ plane_bits(r, n)
                        for p, r in zip(planes, planes_from_block(text, n))
                    ]
                    for b in range(per):
                        lattices_flips[j].append(sorted(
                            4 * (row * side + col) + plane
                            for plane in range(4)
                            for row, col in zip(*np.nonzero(bits[plane][:, b]))))
            for rows in lattices_flips:
                assert len(rows) == per_trial
                assert rows[0] == []
                assert sorted(i for row in rows for i in row) == flips
                for row in rows[1:]:
                    if protocol == "single-bit":
                        assert row == [cfg.bit]
                        continue
                    assert len(row) == 2 and row[1] - row[0] == 4 and row[0] % 8 < 4
                    assert cell_parity(row[0], n) != cell_parity(row[1], n)
            t += trials
        assert t == cfg.trials


@pytest.mark.parametrize("n", range(1, 5))
def test_opposite_parity_flips_invert_disjoint_bits(n):
    # The fact the text trials rest on, checked on the per-cell engine:
    # the flips of bit k of the two cells of one block byte, 8j + k and
    # 8j + 4 + k, one cell of each checkerboard class, invert disjoint
    # sets of ciphertext bits, and flipping both inverts exactly their
    # union.
    side = 1 << n
    rng = trial_rng(75, n)
    region = (side // 2, 0, side // 2) if n > 1 else (0, 0, 2)
    for case in range(6):
        text = rng.bytes(block_size(n))
        key = rng.bytes(n)
        walls = _region_walls(key, n, region if case % 2 else None)
        i = 8 * int(rng.integers(block_size(n))) + int(rng.integers(4))
        j = i + 4
        assert cell_parity(i, n) != cell_parity(j, n)
        for r in (0, 1, 2, int(rng.integers(3, 4 * side))):
            params = CipherParams(n, r, walls)

            def diff(block):
                ct = encrypt_block(block, params, engine="reference")
                return int.from_bytes(ct, "big") ^ int.from_bytes(ref, "big")

            ref = encrypt_block(text, params, engine="reference")
            d_i, d_j = diff(flip_bit(text, i)), diff(flip_bit(text, j))
            assert d_i & d_j == 0
            assert diff(flip_bit(flip_bit(text, i), j)) == d_i | d_j
            assert d_i and d_j  # each flip inverts at least its own bits


def round_loop_calls(monkeypatch, cfg):
    """(lattices, largest round count) of each round loop call that
    run_protocol(cfg) makes."""
    calls = []

    def counting(planes, mask, counts):
        calls.append((planes.shape[-1], max(counts)))
        return cipher._trajectory(planes, mask, counts)

    monkeypatch.setattr(experiments, "_trajectory", counting)
    run_protocol(cfg)
    return calls


def lattice_rounds(monkeypatch, cfg):
    """Lattices times rounds that run_protocol(cfg) runs in the round loop."""
    return sum(lattices * top for lattices, top in round_loop_calls(monkeypatch, cfg))


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_round_loop_work(monkeypatch, protocol):
    # Text curves and strict-text run their flips two to a lattice, a
    # byte pair, one from each checkerboard class; key flips and
    # single-bit's one flip take a lattice each.
    flip_key = PROTOCOLS[protocol].flips == "key"
    per_bit = PROTOCOLS[protocol].per_bit
    cfg = default_config(
        protocol, n=3, key_len=3, trials=2, seed=8,
        rounds_range=(7, 1, 7) if per_bit else (0, 3, 9),
        wall_region=(0, 4, 4) if protocol == "avalanche-key-concentrated" else None,
        **({"bit": 13} if protocol == "single-bit" else {}))
    flips = 8 * (cfg.key_len if flip_key else cfg.block_len)
    if protocol == "single-bit":
        lattices = 2
    elif flip_key:
        lattices = 1 + flips
    else:
        lattices = 1 + flips // 2
    top = cfg.round_values()[-1]
    assert lattice_rounds(monkeypatch, cfg) == cfg.trials * lattices * top


@pytest.mark.parametrize("protocol, per_batch", [("strict-key", 63), ("single-bit", 2048)])
def test_trials_share_round_loop_batches(monkeypatch, protocol, per_batch):
    # At n=4 a batch holds 4096 lattices: 63 strict-key trials of 65
    # lattices, or 2048 single-bit trials of 2, so T trials make
    # ceil(T / per_batch) round loop calls and the same lattice-rounds as
    # one call per trial would.
    for trials in (1, per_batch, per_batch + 1, 2 * per_batch + 2):
        cfg = default_config(protocol, trials=trials, rounds_range=(2, 1, 2), seed=9)
        assert batch_size(cfg.n) == 4096
        calls = round_loop_calls(monkeypatch, cfg)
        assert len(calls) == -(-trials // per_batch)
        work = sum(lattices * top for lattices, top in calls)
        assert work == trials * lattices_per_trial(cfg) * 2


def test_strict_byte_fields_count_past_255_lattices(monkeypatch):
    # _strict counts each bit in a byte of the lanes, over at most 255
    # lattices of a trial at a time. With a round loop that inverts every
    # bit of every lattice but each trial's reference, each trial of more
    # than 255 lattices in one batch must count exactly L - 1 for every
    # bit: a byte that carried into the next, or a chunk edge off by one,
    # would not. Three strict-text trials of 513 lattices at n=4 (uint16
    # lanes), and two strict-key trials of 281 at n=7 (two uint64 words)
    # in a batch made large enough to hold both.
    for protocol, overrides, size in (
        ("strict-text", dict(trials=3), batch_size(4)),
        ("strict-key", dict(n=7, key_len=35, trials=2), 2 * 281),
    ):
        cfg = default_config(protocol, rounds_range=(1, 1, 1), **overrides)
        per = lattices_per_trial(cfg)
        assert per > 255 and cfg.trials * per <= size
        ones = planes_from_block(b"\xff" * cfg.block_len, cfg.n)

        def inverting(planes, mask, counts):
            for _ in counts:
                out = np.repeat(ones, planes.shape[-1], axis=-1)
                out.reshape(out.shape[:3] + (-1, per))[..., 0] = 0
                yield out

        monkeypatch.setattr(experiments, "batch_size", lambda n: size)
        monkeypatch.setattr(experiments, "_trajectory", inverting)
        report = run_protocol(cfg)
        flips = 8 * (cfg.key_len if protocol == "strict-key" else cfg.block_len)
        bits = 8 * cfg.block_len
        assert report.ys == ((per - 1) / flips,) * bits
        assert report.stddevs == (0.0,) * bits


def test_long_trials_split_into_even_batches(monkeypatch):
    # A trial longer than a batch is cut into ceil(L / batch_size(n))
    # near-equal batches, not full ones and a small tail: one default
    # avalanche-key trial at n=6, 1 + 384 lattices, runs 2 batches of 192
    # and 193 (not 256 and 129), the n=5 text trial of 1 + 2048 lattices
    # 3 of 683 (not 1024, 1024 and 1).
    cfg = default_config("avalanche-key", trials=1)
    assert (cfg.n, batch_size(cfg.n)) == (6, 256)
    assert round_loop_calls(monkeypatch, cfg) == [(192, 200), (193, 200)]
    cfg = default_config("strict-text", n=5, trials=1, rounds_range=(3, 1, 3))
    calls = round_loop_calls(monkeypatch, cfg)
    assert sorted({lattices for lattices, _ in calls}) == [683]
    assert len(calls) == 3 and sum(lattices for lattices, _ in calls) == 2049


# --- emitters --------------------------------------------------------------

def make_report(xs, ys, protocol="avalanche-text", n=2):
    cfg = ExperimentConfig(protocol, n, (1, 1, max(len(xs), 1)), 1, 0, 1)
    return ExperimentReport(cfg, tuple(xs), tuple(ys), tuple(0.0 for _ in xs))


def test_emit_csv_layout(tmp_path):
    report = make_report((1, 2, 3), (0.5, 0.25, 0.125))
    path = tmp_path / "out.csv"
    emit_csv(report, path)
    assert path.read_text(encoding="utf-8") == (
        "x,y,stddev\n1,0.5,0.0\n2,0.25,0.0\n3,0.125,0.0\n"
    )


def test_emit_csv_empty_report_rejected(tmp_path):
    report = make_report((), ())
    with pytest.raises(ParameterError):
        emit_csv(report, tmp_path / "never.csv")


def test_emit_svg_curve(tmp_path):
    xs = tuple(range(10, 210, 10))
    report = make_report(xs, tuple(0.4 for _ in xs))
    path = tmp_path / "curve.svg"
    emit_svg_plot(report, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.count('r="3"') == 20  # one dot per plotted point
    assert "polyline" in text
    assert text.count("stroke-dasharray") == 2  # 0.25 and 0.5 guides


def test_emit_svg_scatter(tmp_path):
    cfg = default_config("strict-key", trials=1, seed=0)
    ys = tuple(0.47 for _ in range(1024))
    report = ExperimentReport(cfg, tuple(range(1024)), ys, tuple(0.0 for _ in ys))
    path = tmp_path / "scatter.svg"
    emit_svg_plot(report, path)
    text = path.read_text(encoding="utf-8")
    assert text.count('r="1"') == 1024
    assert "polyline" not in text


def test_emit_svg_deterministic(tmp_path):
    report = make_report((1, 2), (0.1, 0.2))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_plot(report, a)
    emit_svg_plot(report, b)
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ParameterError):
        emit_svg_plot(make_report((), ()), tmp_path / "no.svg")
