"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import pytest

import run
import speed
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# encrypt_block calls and rounds of one traced repetition at the tiny
# scale, from the configs in workloads.make().
TINY_COUNTS = {
    "stream-n6": (2 * 4096 // 32, 2 * 4096 // 32 * 16),
    "avalanche-text": (2 * 1025, 1025 * (8 + 16)),
    "strict-key": (4 * 65, 4 * 65 * 64),
    "image-n9": (2, 2 * 32),
}


@lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0):
    """Lines printed by one tiny run; `attempt` tells repeated runs apart."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
               if line.split()[0] in spec or line.startswith("fail_frac")}
    assert printed == {**spec, "fail_frac": "ratio"}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = (json.loads(bench(workload, 1, attempt)[-1])["metrics"]
                     for attempt in (0, 1))
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    calls, rounds = TINY_COUNTS[workload]
    assert first["cipher.encrypt_block.calls"]["value"] == calls
    assert first["cipher.rounds"]["value"] == rounds


def test_corrupted_ciphertext_counts_as_failure(monkeypatch):
    hpp = run.load_program()
    encrypt_stream = hpp.cipher.encrypt_stream

    def corrupt(*args, **kwargs):
        container = encrypt_stream(*args, **kwargs)
        payload = bytearray(container.payload)
        payload[0] ^= 0x10
        return dataclasses.replace(container, payload=bytes(payload))

    monkeypatch.setattr(hpp.cipher, "encrypt_stream", corrupt)
    result = run.run(run.parse_args(
        ["--workload", "stream-n6", "--seconds", "0.2", "--scale", "tiny"]))
    line = run.summary(result, trace=0)
    assert result["fail_frac"] > 0
    assert not line["correct"] and 0 < line["failed"] <= line["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-n6",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""


def test_timed_samples_speed_inside_the_block():
    start = perf_counter()
    with speed.Timed() as timed:
        while perf_counter() - start < 0.6:
            pass
    elapsed = perf_counter() - start
    assert len(timed.calibration) >= 4  # before, after and inside
    assert 0 < timed.seconds < elapsed
    assert timed.scaled > 0
