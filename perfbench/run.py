"""Seeded benchmark for hppcrypt.

    python3 perfbench/run.py --workload stream-n6 --seed 0 --seconds 28 --trace 0

A single-process, single-thread, closed loop: the next repetition of the
workload body starts only when the previous one has returned, until
--seconds have passed. Every output is checked outside the timed region.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, and with --trace 1 the per-layer metrics of one traced
repetition (see spans.py). The lines above it and a result file under
perfbench/out/ hold the rest, provenance included.

The program is imported from src/ next to this directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# numpy is imported lazily: hppcrypt imports it, and its import time
# belongs to the program's set-up.
import spans
import workloads
from speed import REFERENCE_CALIBRATION_S, Timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus fresh child processes


class ProgramMissing(Exception):
    pass


def load_program(root: Path = ROOT) -> SimpleNamespace:
    src = (root / "src").resolve()
    if not (src / "hppcrypt" / "__init__.py").is_file():
        raise ProgramMissing(f"no hppcrypt sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("hppcrypt")
    if Path(package.__file__).resolve().parent != src / "hppcrypt":
        raise ProgramMissing(f"hppcrypt was imported from {package.__file__}")
    modules = {m: importlib.import_module(f"hppcrypt.{m}") for m in spans.TARGETS}
    return SimpleNamespace(package=package, modules=modules, **modules)


def set_up(workload, seed: int, workdir: Path):
    """Import, input generation and one warm-up call. Returns the program,
    the workload state and the Timed set-up."""
    with Timed() as timed:
        hpp = load_program()
        state = workload.prepare(hpp, seed, workdir)
        workload.warm_up(hpp, state)
    return hpp, state, timed


def set_up_in_child(args) -> float:
    """Scaled set-up seconds of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_reps(workload, hpp, state, checks, budget: float, first_rep: int) -> list[Timed]:
    """Closed loop: time repetitions until the next one would overrun
    `budget` seconds; always at least one."""
    reps: list[Timed] = []
    rep = first_rep
    start = perf_counter()
    while True:
        with Timed() as timed:
            out = body(workload, hpp, state, rep, checks)
        reps.append(timed)
        if out is not None:
            workload.check(hpp, state, rep, out, checks)
        rep += 1
        if perf_counter() - start + statistics.median(r.seconds for r in reps) > budget:
            return reps


def body(workload, hpp, state, rep, checks):
    """One repetition; a program error counts as a failed check."""
    try:
        return workload.body(hpp, state, rep)
    except hpp.package.HppError as exc:
        checks.expect(False, f"repetition {rep} raised {exc!r}")
        return None


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload, hpp) -> dict:
    return {
        "workload": workload.name,
        "config": workload.config(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "hppcrypt_version": hpp.package.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(args) -> dict:
    """One benchmark run; returns the full result record."""
    workload = workloads.make(args.workload, args.scale)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        hpp, state, own_setup = set_up(workload, args.seed, Path(tmp))
        setup = [own_setup.scaled]
        setup += [set_up_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        checks = workloads.Checks()
        layers = None
        budget, rep = args.seconds, 0
        if args.trace:
            tracer = spans.Tracer()
            start = perf_counter()
            with tracer.installed(hpp.package, hpp.modules):
                out = body(workload, hpp, state, rep, checks)
            traced_s = perf_counter() - start
            if out is not None:
                workload.check(hpp, state, rep, out, checks)
            budget, rep = budget - traced_s, 1
        reps = run_reps(workload, hpp, state, checks, budget, rep)
        workload.final_check(hpp, state, checks)
        measured_wall = statistics.median(r.seconds for r in reps)
        if args.trace:
            layers = tracer.metrics()
            layers["trace_overhead_frac"] = (traced_s / measured_wall - 1, "ratio")
            tracer.write(OUT / f"spans-{workload.name}.npz")

    wall = statistics.median(r.scaled for r in reps)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "trials_per_s": (workload.units_per_rep / wall, "1/s"),
        "MBps": (workload.cipher_bytes_per_rep / wall / 1e6, "MB/s"),
        "peak_rss_MB": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return {
        "provenance": provenance(args, workload, hpp),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "fail_frac": len(checks.failures) / checks.attempted,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "setup_s_samples": setup,
        "wall_s_samples": [r.scaled for r in reps],
        "measured_wall_s": measured_wall,
        "measured_wall_s_samples": [r.seconds for r in reps],
        "calibration_s_median": statistics.median(
            c for r in reps for c in r.calibration),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "trials_per_s_unit": f"{workload.units}s ({workload.units_per_rep} per repetition)",
    }


def report_lines(result: dict) -> list[str]:
    p = result["provenance"]
    lines = [f"# {p['workload']} seed={p['seed']} trace={p['trace']} "
             f"hppcrypt {p['hppcrypt_version']} commit {p['git_commit']} "
             f"python {p['python']} cpus {p['cpu_count']}"]
    for name, (value, unit) in result["end_to_end"].items():
        lines.append(f"{name:<40} {value:>14.6g} {unit}")
    lines.append(f"{'fail_frac':<40} {result['fail_frac']:>14.6g} ratio "
                 f"({len(result['failures'])}/{result['attempted']} checks)")
    lines.append(f"# wall_s is the median of {len(result['wall_s_samples'])} "
                 f"repetitions; trials_per_s counts {result['trials_per_s_unit']}")
    lines.append(f"# times at the reference speed; measured wall_s "
                 f"{result['measured_wall_s']:.6g} s with the calibration loop "
                 f"at {result['calibration_s_median']:.6g} s "
                 f"(reference {REFERENCE_CALIBRATION_S} s)")
    for name, (value, unit) in (result["per_layer"] or {}).items():
        lines.append(f"{name:<40} {value:>14.6g} {unit}")
    lines.extend(f"FAILED: {what}" for what in result["failures"])
    return lines


def summary(result: dict, trace: int) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            workload = workloads.make(args.workload, args.scale)
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
                timed = set_up(workload, args.seed, Path(tmp))[2]
            print(json.dumps({"setup_s": timed.scaled}))
            return 0
        result = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(report_lines(result)))
    line = summary(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
