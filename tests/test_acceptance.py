"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see every line;
tolerances are fixed here and nowhere else."""

import random
import time
from itertools import combinations_with_replacement

from hppcrypt import bitplane as bp
from hppcrypt import lattice as ref
from hppcrypt.cipher import (
    CipherParams,
    batch_size,
    decrypt_block,
    default_rounds,
    derive_walls,
    encrypt_block,
    keyspace_count,
)
from hppcrypt.experiments import default_config, run_protocol, trial_rng
from hppcrypt.lattice import block_size, from_bytes, to_bytes

from helpers import (
    batch_mask, cell, collided, parity_counts, particle_count, propagated,
    random_lattice, random_walls)


def check(num, label, ok, details):
    print(f"[acceptance] criterion {num:2d} ({label}): "
          f"{'PASS' if ok else 'FAIL'} {details}")
    assert ok, f"criterion {num} ({label}): {details}"


def test_criterion_1_gold_vector():
    start = time.perf_counter()
    lat = from_bytes(bytes.fromhex("90A2F5155D100000"), 2)
    step1 = ref.propagate(ref.collide(lat))
    step2 = ref.propagate(ref.collide(step1))
    ok = (
        to_bytes(step1) == bytes.fromhex("1830A9F248821410")
        and to_bytes(step2) == bytes.fromhex("179002A850F85010")
    )
    elapsed = time.perf_counter() - start
    check(1, "gold vector", ok and elapsed < 1.0,
          f"two steps byte-exact in {elapsed * 1e3:.1f} ms")


def test_criterion_2_involution():
    start = time.perf_counter()
    rnd = random.Random(1002)
    failures = 0
    for _ in range(200):
        n = rnd.randint(2, 6)
        rounds = rnd.randint(0, default_rounds(n))
        key = rnd.randbytes(rnd.randint((2 * n + 7) // 8, 16))
        params = CipherParams(n, rounds, derive_walls(key, n))
        block = rnd.randbytes(block_size(n))
        if encrypt_block(encrypt_block(block, params), params) != block:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and decrypt_block is encrypt_block and elapsed < 30.0
    check(2, "involution", ok,
          f"200 random cases, {failures} failures, decrypt is encrypt, "
          f"{elapsed:.1f} s")


def test_criterion_3_conservation():
    rnd = random.Random(1003)
    bad = 0
    for _ in range(100):
        n = rnd.randint(2, 4)
        lat = random_lattice(rnd, n)
        walls = random_walls(rnd, n, rnd.randint(0, 6))
        count = particle_count(lat)
        for out in (
            ref.collide(lat),
            ref.propagate(lat),
            ref.reflect(lat, walls),
            ref.invert_all(lat),
        ):
            if particle_count(out) != count:
                bad += 1
        rounds = rnd.randint(0, 20)
        params = CipherParams(n, rounds, walls)
        block = to_bytes(lat)
        ct = encrypt_block(block, params)
        ct_lat = from_bytes(ct, n)
        if particle_count(ct_lat) != count:
            bad += 1
        even_in, odd_in = parity_counts(lat)
        even_out, _ = parity_counts(ct_lat)
        if even_out != (odd_in if rounds % 2 else even_in):
            bad += 1
    check(3, "conservation", bad == 0,
          f"popcount and parity-mass exact on 100 cases ({bad} violations)")


def test_criterion_4_engine_equivalence():
    start = time.perf_counter()
    rnd = random.Random(1004)
    mismatches = 0
    # The lattices run through each primitive a full batch at a time, with
    # the draws in the same order as one lattice at a time; every lattice
    # is still checked against the oracle on its own.
    size, chunk = block_size(6), batch_size(6)
    for first in range(0, 1000, chunk):
        lats, walls = [], []
        for _ in range(min(chunk, 1000 - first)):
            lats.append(random_lattice(rnd, 6))
            walls.append(random_walls(rnd, 6, rnd.randint(0, 32)))
        planes = bp.planes_from_block(b"".join(map(to_bytes, lats)), 6)
        mask = batch_mask(walls, 6)
        for got, want in (
            (collided(planes, 0), lambda lat, w: ref.collide(lat)),
            (collided(planes, mask),
             lambda lat, w: ref.reflect(ref.collide(lat), w)),
            (propagated(planes), lambda lat, w: ref.propagate(lat)),
            (bp.reflect_planes(*planes, mask), ref.reflect),
            (bp.invert_planes(*planes), lambda lat, w: ref.invert_all(lat)),
        ):
            block = bp.planes_to_block(got)
            for b, (lat, w) in enumerate(zip(lats, walls)):
                if from_bytes(block[b * size:(b + 1) * size], 6) != want(lat, w):
                    mismatches += 1
    for i in range(50):
        rounds = rnd.randint(0, 16) if i < 45 else rnd.choice([32, 64, 128])
        params = CipherParams(6, rounds, random_walls(rnd, 6, 32))
        block = rnd.randbytes(block_size(6))
        if encrypt_block(block, params) != encrypt_block(block, params, "reference"):
            mismatches += 1
    elapsed = time.perf_counter() - start
    check(4, "engine equivalence", mismatches == 0,
          f"1000x5 primitives + 50 encryptions bit-identical on 64x64 "
          f"({mismatches} mismatches, {elapsed:.0f} s)")


def test_criterion_5_fig7_key_avalanche():
    # n=6, 2048-byte blocks, 48-byte keys, 5 trials; r subsampled to
    # {10, 60, 128, 200} as permitted.
    points = {}
    for r in (10, 60, 128, 200):
        cfg = default_config("avalanche-key", rounds_range=(r, 1, r), seed=42)
        points[r] = run_protocol(cfg).ys[0]
    ok = (
        abs(points[10] - 0.009) <= 0.005
        and abs(points[60] - 0.425) <= 0.015
        and abs(points[200] - 0.490) <= 0.010
    )
    rs = sorted(points)
    monotone = all(points[a] <= points[b] + 0.01 for a, b in zip(rs, rs[1:]))
    check(5, "fig 7 key avalanche", ok and monotone,
          f"p(10)={points[10]:.4f} p(60)={points[60]:.4f} "
          f"p(128)={points[128]:.4f} p(200)={points[200]:.4f}, monotone")


def test_criterion_6_fig8_text_plateau():
    # n=4, 128-byte blocks, 8-byte keys, 20 trials; plateau sampled at
    # r in {100, 208}.
    cfg = default_config("avalanche-text", rounds_range=(100, 108, 208), seed=42)
    report = run_protocol(cfg)
    plateau = report.mean_y()
    ok = abs(plateau - 0.240) <= 0.005 and plateau < 0.26
    check(6, "fig 8 text plateau", ok,
          f"plateau mean over r in [100,208] = {plateau:.4f} "
          f"(checkerboard ceiling, not 0.5)")


def test_criterion_7_strict_avalanche_means():
    key_report = run_protocol(default_config("strict-key", trials=200, seed=42))
    text_report = run_protocol(default_config("strict-text", trials=200, seed=42))
    key_mean = key_report.mean_y()
    text_mean = text_report.mean_y()
    ok = abs(key_mean - 0.47) <= 0.02 and abs(text_mean - 0.25) <= 0.02
    check(7, "fig 10/11 strict means", ok,
          f"key flips: mean={key_mean:.4f} (0.47 +/- 0.02); "
          f"text flips: mean={text_mean:.4f} (0.25 +/- 0.02); N=200")


def test_criterion_8_fig12_single_bit_split():
    cfg = default_config("single-bit", trials=1000, seed=42, bit=0)
    report = run_protocol(cfg)
    zero_set = {i for i, y in enumerate(report.ys) if y == 0.0}
    side = 1 << cfg.n
    # flipped cell (0,0), 64 rounds: reachable cells have even row+col
    expected_zero = {
        i for i in range(1024)
        if (((i // 4) // side) + ((i // 4) % side)) & 1 == 1
    }
    hot = [y for y in report.ys if y > 0.0]
    hot_mean = sum(hot) / len(hot)
    ok = (
        len(zero_set) == 512
        and zero_set == expected_zero
        and abs(hot_mean - 0.5) <= 0.03
    )
    check(8, "fig 12 single-bit parity split", ok,
          f"{len(zero_set)}/1024 bits at exactly 0, zero set = opposite "
          f"parity class, other half mean={hot_mean:.4f}")


def test_criterion_9_keyspace():
    big = keyspace_count(8, 256)
    small = keyspace_count(6, 32)
    enum_ok = all(
        keyspace_count(n, k)
        == sum(1 for _ in combinations_with_replacement(range(1 << (2 * n)), k))
        for n in (1, 2)
        for k in range(5)
    )
    ok = (
        len(str(big)) == 727
        and str(big)[0] == "2"
        and len(str(small)) == 81
        and str(small).startswith("16")
        and enum_ok
    )
    check(9, "key-space count", ok,
          f"C(2^16+255,256): 727 digits leading 2; C(2^12+31,32) ~ 1.6e80; "
          f"enumeration oracle matches for tiny lattices")


def test_criterion_10_leak_radius():
    # Single wall, rounds=16, n=6: every cell farther than 16 from the
    # wall decodes exactly under the wall-free key.
    rng = trial_rng(1010, 0)
    block = rng.bytes(block_size(6))
    wall = (32, 32)
    rounds, side = 16, 64
    ct = encrypt_block(block, CipherParams(6, rounds, frozenset({wall})))
    back = encrypt_block(ct, CipherParams(6, rounds, frozenset()))
    original = from_bytes(block, 6)
    decoded = from_bytes(back, 6)
    far_bad = near_diff = 0
    for r in range(side):
        dr = min(abs(r - wall[0]), side - abs(r - wall[0]))
        for c in range(side):
            dc = min(abs(c - wall[1]), side - abs(c - wall[1]))
            if cell(original, r, c) != cell(decoded, r, c):
                if dr + dc > rounds:
                    far_bad += 1
                else:
                    near_diff += 1
    ok = far_bad == 0 and near_diff > 0
    check(10, "leak radius", ok,
          f"cells beyond distance 16 decode exactly ({far_bad} violations); "
          f"{near_diff} cells scrambled inside the radius")
