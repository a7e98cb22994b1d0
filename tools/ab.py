"""One-process A/B timing of two hppcrypt source trees.

    python tools/ab.py OLD_ROOT NEW_ROOT --workload avalanche-text
    python tools/ab.py OLD_ROOT NEW_ROOT --workload strict-key --setup
    python tools/ab.py OLD_ROOT NEW_ROOT --round 7

Each ROOT is a directory holding src/hppcrypt, such as a `git archive`
of one commit. Both trees are imported into this one process under two
package names, so the two sides share an interpreter, a heap and the
machine's state at each moment, and a drift of the machine's speed
reaches both alike. A workload is built, as the benchmark builds it,
from perfbench/workloads.py next to this directory; one round of the
round loop on a full batch at lattice exponent N (--round N) is timed
as `hppcrypt bench --json` times its round layer. With --setup, a
workload's set-up is timed instead, as perfbench/run.py's set_up does
it: in a fresh Python process, the import of the tree and then the
workload's prepare and warm_up; set-ups have no outputs to compare.
Each repetition runs both sides once, the side that goes first
alternating, and checks that their outputs are equal and that each
passes its workload's check. The run prints, per side, the median and
quartiles of its times and the repetitions in which it was the faster,
then the ratio of the two medians and the median ratio of the two
times of one repetition. It exits with status 1 if any output differed
or failed a check. No bytecode is written, so neither tree nor
perfbench/ is edited.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"
SPANS = HERE.parent / "perfbench" / "spans.py"
MODULES = ("bitplane", "cipher", "cli", "experiments", "imaging", "lattice")
SIDES = ("old", "new")
# One round: CALLS runs to the tree's cli._BENCH_ROUNDS rounds and as
# many to none per sample.
CALLS = 10


def load_module(name: str, path: Path, package: bool = False):
    """Import the module (or, with `package`, the package whose
    __init__.py is `path`) at `path` under the name `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_program(root: Path, name: str, modules=MODULES) -> SimpleNamespace:
    """The hppcrypt tree under root/src as the package `name`, with the
    modules named in `modules` as attributes, as perfbench's workloads
    take it."""
    init = root / "src" / "hppcrypt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no hppcrypt sources under {root / 'src'}")
    package = load_module(name, init, package=True)
    modules = {m: importlib.import_module(f"{name}.{m}") for m in modules}
    return SimpleNamespace(package=package, **modules)


def plain(value):
    """`value` with every dataclass replaced by the tuple of its fields,
    so that outputs of the two trees, instances of two classes of one
    name, compare by their contents."""
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    return value


def workload_side(args, workloads, hpp, workdir: Path):
    """measure(rep) -> (seconds, output, failures) of one repetition of
    the workload's body, timed, then checked."""
    workload = workloads.make(args.workload, args.scale)
    state = workload.prepare(hpp, 0, workdir)
    workload.warm_up(hpp, state)

    def measure(rep):
        start = perf_counter()
        out = workload.body(hpp, state, rep)
        seconds = perf_counter() - start
        checks = workloads.Checks()
        workload.check(hpp, state, rep, out, checks)
        return seconds, plain(out), checks.failures

    return measure


def time_set_up(root: str, workload: str, scale: str) -> None:
    """Print the seconds this process takes to set `workload` up on the
    tree at `root`, as perfbench/run.py's set_up does: the import of the
    modules that perfbench's tracer wraps, then prepare and warm_up.
    Run in a fresh process by set_up_side."""
    workloads = load_module("perfbench_workloads", WORKLOADS)
    modules = tuple(load_module("perfbench_spans", SPANS).TARGETS)
    work = workloads.make(workload, scale)
    with tempfile.TemporaryDirectory(prefix="hppcrypt-ab-") as tmp:
        start = perf_counter()
        hpp = load_program(Path(root), "hppcrypt", modules)
        work.warm_up(hpp, work.prepare(hpp, 0, Path(tmp)))
        print(perf_counter() - start)


def set_up_side(args, root: Path):
    """measure(rep) -> (seconds, None, []) of one set-up of the workload
    on the tree at root, in a fresh process (time_set_up)."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import ab; "
            f"ab.time_set_up({str(root)!r}, {args.workload!r}, {args.scale!r})")

    def measure(rep):
        done = subprocess.run([sys.executable, "-B", "-c", code],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            raise SystemExit(f"error: set-up on {root} failed:\n{done.stderr}")
        return float(done.stdout), None, []

    return measure


def round_side(args, hpp):
    """measure(rep) -> (seconds, output, failures) of one round of the
    round loop on a full batch at lattice exponent args.round: CALLS runs to
    the tree's cli._BENCH_ROUNDS rounds and as many to none, timed in
    turn, the difference divided by the rounds and calls. The output is
    the ciphertext planes' bytes. The batch and its walls are built as
    cli._layer_times builds them, here from names every tree since the
    round layer has, so that a tree from before any shared helper can be
    timed too."""
    import numpy as np

    cipher, bitplane, n = hpp.cipher, hpp.bitplane, args.round
    rounds = hpp.cli._BENCH_ROUNDS
    lattices = cipher.batch_size(n)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(n)))
    key, data = rng.bytes(16), rng.bytes(lattices * hpp.lattice.block_size(n))
    planes = bitplane.planes_from_block(data, n)
    walls = cipher._key_coordinates(np.frombuffer(key, dtype=np.uint8), n)
    mask = bitplane.coordinate_mask(np.tile(walls, (lattices, 1, 1)), n)

    def run_to(count):
        start = perf_counter()
        for _ in range(CALLS):
            (out,) = cipher._trajectory(planes, mask, (count,))
        return perf_counter() - start, out

    def measure(rep):
        zero, _ = run_to(0)
        full, out = run_to(rounds)
        return (full - zero) / rounds / CALLS, out.tobytes(), []

    measure.rounds = rounds
    return measure


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the first tree")
    parser.add_argument("new", type=Path, help="root of the second tree")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="a workload of perfbench/workloads.py")
    target.add_argument("--round", type=int, metavar="N",
                        help="one round of the round loop on a full batch "
                        "at lattice exponent N")
    parser.add_argument("--setup", action="store_true",
                        help="with --workload, time a fresh process's set-up "
                        "of the workload instead of its body")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="workload size, as perfbench/run.py takes it")
    parser.add_argument("--reps", type=int, default=11,
                        help="repetitions, each timing both sides once")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.setup and args.workload is None:
        parser.error("--setup needs --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    workloads = load_module("perfbench_workloads", WORKLOADS)
    if args.workload is not None and args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    with tempfile.TemporaryDirectory(prefix="hppcrypt-ab-") as tmp:
        measures = {}
        for side, root in zip(SIDES, (args.old, args.new)):
            if args.setup:
                measures[side] = set_up_side(args, root.resolve())
                continue
            hpp = load_program(root.resolve(), f"hppcrypt_{side}")
            if args.workload is None:
                measures[side] = round_side(args, hpp)
            else:
                workdir = Path(tmp) / side
                workdir.mkdir()
                measures[side] = workload_side(args, workloads, hpp, workdir)
        times = {side: [] for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        equal, failures = 0, []
        for rep in range(args.reps):
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                seconds, out, failed = measures[side](rep)
                times[side].append(seconds)
                results[side] = out
                failures += [f"{side} repetition {rep}: {what}" for what in failed]
            equal += results["old"] == results["new"]
            wins[min(SIDES, key=lambda side: times[side][-1])] += 1

    if args.workload is None:
        what = f"one round at n={args.round}, runs to {measures['new'].rounds} rounds"
        unit, scale = "us", 1e6
    else:
        what = f"workload {args.workload} ({args.scale}, seed 0)"
        what = f"set-up of {what} in fresh processes" if args.setup else what
        unit, scale = "ms", 1e3
    outputs = "" if args.setup else f", outputs equal in {equal}/{args.reps}"
    print(f"{what}: {args.reps} repetitions, sides alternating first{outputs}")
    print(f"{'side':<5} {'median':>12} {'q1':>12} {'q3':>12} {'wins':>5}  root")
    medians = {}
    for side, root in zip(SIDES, (args.old, args.new)):
        q1, medians[side], q3 = (t * scale for t in quartiles(times[side]))
        print(f"{side:<5} {medians[side]:>9.4g} {unit} {q1:>9.4g} {unit} "
              f"{q3:>9.4g} {unit} {wins[side]:>5}  {root}")
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    print(f"new/old: {medians['new'] / medians['old']:.4f} of the medians, "
          f"{statistics.median(ratios):.4f} median of the paired repetitions")
    for what in failures:
        print(f"FAILED: {what}")
    return 0 if equal == args.reps and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
