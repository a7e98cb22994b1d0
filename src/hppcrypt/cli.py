"""Command-line interface.

Subcommands: encrypt, decrypt, keyspace, experiment, img2block, block2img,
bench. The CLI only parses and presents: the library checks each value
(encrypt's ``--n`` and ``--rounds`` through ``stream_rounds``, before any
file is read, and ``--n`` elsewhere in ``keyspace_count`` or
``ExperimentConfig``). The experiment's flags and
its config file's keys come from one table, ``_EXPERIMENT_FIELDS``;
``_secret`` reads the one secret flag of encrypt or decrypt; bench times
each row, layer and protocol with ``_per_call_us``. A command checks its
parameters, then its output paths (``_check_outputs``), then works.
Diagnostics go to stderr, an error as one ``error:`` line. Exit status is
0 on success, 2 for bad parameters or usage (a ``ParameterError``, such as
a key that yields no walls or an empty wall set), 1 for I/O and
data-format failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import bitplane
from .cipher import (
    BATCH_CELLS,
    MAGIC,
    CipherContainer,
    CipherParams,
    approx_scientific,
    batch_size,
    decrypt_stream,
    default_rounds,
    encrypt_block,
    encrypt_stream,
    keyspace_count,
    min_recommended_rounds,
    ones_density,
    stream_rounds,
    _key_coordinates,
    _trajectory,
)
from .errors import FormatError, ParameterError
from .experiments import PROTOCOLS, default_config, emit_csv, emit_svg_plot, run_protocol
from .lattice import block_size, from_bytes, parse_walls_text, to_bytes
from .imaging import image_to_lattice, lattice_to_image, read_pgm, write_pgm


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{name} must be an integer, got {text!r}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path} is not UTF-8 text (bad byte at offset {exc.start})"
        ) from None


def _check_outputs(*paths) -> None:
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _secret(args) -> tuple[bytes | None, frozenset | None]:
    """The key and the wall set of encrypt or decrypt, from the one flag
    argparse let through: the other of the two is None."""
    if args.walls_file is not None:
        return None, parse_walls_text(_read_text(args.walls_file))
    if args.key_file is not None:
        return Path(args.key_file).read_bytes(), None
    try:
        return bytes.fromhex(args.key_hex), None
    except ValueError:
        raise ParameterError(f"invalid hex key {args.key_hex!r}") from None


def cmd_encrypt(args) -> int:
    n = args.n
    rounds = stream_rounds(n, args.rounds)  # before any file is read
    _check_outputs(args.outfile)
    data = Path(args.infile).read_bytes()
    key, walls = _secret(args)
    container = encrypt_stream(data, key, n, rounds, walls)
    if container.rounds < min_recommended_rounds(n):
        _warn(
            f"{container.rounds} rounds is below 2^n={min_recommended_rounds(n)}: "
            "wall influence may not cover the lattice"
        )
    density = ones_density(data)
    if data and abs(density - 0.5) > 0.1:  # an empty file has no density
        _warn(
            f"bit density {density:.3f} is far from 0.5 and is preserved "
            "exactly by the cipher; consider compressing the input first"
        )
    Path(args.outfile).write_bytes(container.to_bytes())
    print(
        f"encrypted {len(data)} bytes into {container.block_count()} "
        f"block(s) of {block_size(n)} bytes (n={n}, rounds={container.rounds})"
    )
    return 0


def cmd_decrypt(args) -> int:
    _check_outputs(args.outfile)
    raw = Path(args.infile).read_bytes()
    key, walls = _secret(args)
    container = CipherContainer.from_bytes(raw)
    plain = decrypt_stream(container, key, walls=walls)
    Path(args.outfile).write_bytes(plain)
    print(
        f"decrypted {container.block_count()} block(s) to {len(plain)} bytes "
        f"(n={container.n}, rounds={container.rounds})"
    )
    return 0


def cmd_keyspace(args) -> int:
    count = keyspace_count(args.n, args.walls)
    print(count)
    print(f"≈ {approx_scientific(count)}")
    return 0


def _parse_rounds_range(name: str, text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            r = int(parts[0])
            return (r, 1, r)
        if len(parts) == 3:
            return (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ParameterError(f"{name} must be an integer or start:step:stop, got {text!r}")


def _parse_region(name: str, text: str) -> tuple[int, int, int]:
    try:
        row0, col0, size = (int(p) for p in text.split(","))
        return (row0, col0, size)
    except ValueError:
        raise ParameterError(f"{name} must be row0,col0,size, got {text!r}") from None


# The keys of an experiment config file besides protocol, each with the
# field it sets, the parser of its text and the help of the flag of the
# same name (--key-len for key_len), which wins over the file.
_EXPERIMENT_FIELDS = {
    "n": ("n", _integer, None),
    "trials": ("trials", _integer, None),
    "rounds": ("rounds_range", _parse_rounds_range,
               "round count or start:step:stop range"),
    "key_len": ("key_len", _integer, "key length in bytes"),
    "region": ("wall_region", _parse_region, "row0,col0,size wall restriction"),
    "seed": ("seed", _integer, "default: HPP_SEED env var, then 0"),
    "bit": ("bit", _integer, "plaintext bit for single-bit"),
}


def _parse_config_file(path: str) -> dict:
    conf = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"bad config line {lineno}: {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in conf:
            raise FormatError(f"bad config line {lineno}: repeated key {key!r}")
        conf[key] = value
    return conf


def cmd_experiment(args) -> int:
    file_conf = _parse_config_file(args.config) if args.config else {}
    valid_keys = ("protocol", *_EXPERIMENT_FIELDS)
    for key in file_conf:
        if key not in valid_keys:
            raise ParameterError(
                f"unknown config key {key!r}; valid keys: {', '.join(valid_keys)}"
            )
    protocol = args.protocol or file_conf.get("protocol")
    if protocol is None:
        raise ParameterError("experiment needs --protocol (or protocol= in --config)")

    overrides: dict = {}
    for key, (field, parse, _) in _EXPERIMENT_FIELDS.items():
        text = getattr(args, key)
        if text is None:
            text = file_conf.get(key)
        if text is not None:
            overrides[field] = parse(key, text)
    if "seed" not in overrides:
        overrides["seed"] = _integer("HPP_SEED", os.environ.get("HPP_SEED", "0"))

    config = default_config(protocol, **overrides)
    _check_outputs(args.csv, args.svg)
    report = run_protocol(config)

    for path, emit in ((args.csv, emit_csv), (args.svg, emit_svg_plot)):
        if path:
            emit(report, path)
            print(f"wrote {path}")

    print(f"protocol={protocol} n={config.n} trials={config.trials} seed={config.seed}")
    if not PROTOCOLS[protocol].per_bit:
        for x, y, s in zip(report.xs, report.ys, report.stddevs):
            print(f"r={x} p={y:.5f} stddev={s:.5f}")
    elif PROTOCOLS[protocol].flips == "bit":
        zero = sum(1 for y in report.ys if y == 0.0)
        hot = [y for y in report.ys if y > 0.0]
        mean_hot = sum(hot) / len(hot) if hot else 0.0
        print(
            f"bit={config.bit}: {zero}/{len(report.ys)} ciphertext bits never "
            f"invert; the other {len(hot)} invert with mean probability "
            f"{mean_hot:.4f}"
        )
    else:
        ys = report.ys
        print(
            f"bits={len(ys)} mean={report.mean_y():.4f} "
            f"min={min(ys):.4f} max={max(ys):.4f}"
        )
    return 0


def cmd_img2block(args) -> int:
    _check_outputs(args.outfile)
    image = read_pgm(args.infile)
    block = to_bytes(image_to_lattice(image))
    Path(args.outfile).write_bytes(block)
    print(f"wrote {len(block)}-byte block from {image.width}x{image.height} image")
    return 0


def _infer_exponent(length: int) -> int:
    n = max(1, length.bit_length() // 2)  # 2^(2n-1) has 2n bits
    if block_size(n) != length:
        raise FormatError(f"{length} bytes is not a 2^(2n-1) block size")
    return n


def cmd_block2img(args) -> int:
    _check_outputs(args.outfile)
    block = Path(args.infile).read_bytes()
    try:
        n = _infer_exponent(len(block))
    except FormatError:
        if block[:4] != MAGIC:
            raise
        # A single-block container, 18 + 2^(2n-1) bytes, is never a
        # block size, so a block that starts with the magic is never
        # taken for one. Single-block containers render directly, so
        # an encrypted image can be viewed without decrypting it.
        container = CipherContainer.from_bytes(block)
        if container.block_count() != 1:
            raise FormatError(
                f"container holds {container.block_count()} blocks, "
                "can only render exactly one"
            ) from None
        block, n = container.payload, container.n
    image = lattice_to_image(from_bytes(block, n))
    write_pgm(image, args.outfile)
    print(f"wrote {image.width}x{image.height} PGM")
    return 0


# The longest --min-time bench accepts: it times six engine rows, and
# with --json 42 layer timings (seven at each of six n) and six
# protocols more, so a run takes at least 6 (54) times this.
MAX_BENCH_SECONDS = 60.0


def cmd_bench(args) -> int:
    if not 0 < args.min_time <= MAX_BENCH_SECONDS:  # also refuses nan
        raise ParameterError(
            f"--min-time must be in (0, {MAX_BENCH_SECONDS:g}] seconds, "
            f"got {args.min_time}"
        )
    _check_outputs(args.json)
    print(f"{'n':>3} {'rounds':>6} {'engine':>10} {'blocks/s':>10} {'kB/s':>10}")
    rows = []
    for n in (4, 5, 6):
        rounds = default_rounds(n)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(n)))
        key = rng.bytes(16)
        block = rng.bytes(block_size(n))
        params = CipherParams.from_key(key, n, rounds)
        if encrypt_block(block, params, "reference") != encrypt_block(block, params):
            print("error: engine checksum mismatch, aborting", file=sys.stderr)
            return 1
        # The reference engine encrypts one block at a time; the bit-plane
        # engine is timed as streams use it, one full batch per call.
        blocks = batch_size(n)
        data = rng.bytes(blocks * block_size(n))
        for engine, per_call, run in (
            ("reference", 1, lambda: encrypt_block(block, params, "reference")),
            ("bitplane", blocks, lambda: encrypt_stream(data, key, n, rounds)),
        ):
            rate = per_call * 1e6 / _per_call_us(run, args.min_time)
            kb = rate * block_size(n) / 1000
            print(f"{n:>3} {rounds:>6} {engine:>10} {rate:>10.2f} {kb:>10.1f}")
            rows.append(dict(n=n, rounds=rounds, engine=engine, blocks_per_s=rate,
                             kB_per_s=kb))
    if args.json:
        layers = {str(n): _layer_times(n, args.min_time) for n in _LAYER_EXPONENTS}
        report = dict(
            machine=dict(python=platform.python_version(), numpy=np.__version__,
                         cpu_count=os.cpu_count()),
            min_time_s=args.min_time, batch_cells=BATCH_CELLS,
            rows=rows, layers=layers, protocols=_protocol_times(args.min_time))
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _per_call_us(fn, min_time: float) -> float:
    """Microseconds per call of fn: the best of up to five runs of at
    least min_time / 5 seconds each, which share min_time between them:
    once the runs have taken min_time in all, no other starts, so a call
    slower than min_time is made once."""
    best, spent = float("inf"), 0.0
    for _ in range(5):
        count = 0
        start = time.perf_counter()
        while True:
            fn()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time / 5:
                break
        best = min(best, elapsed / count)
        spent += elapsed
        if spent >= min_time:
            break
    return best * 1e6


def _protocol_times(min_time: float) -> dict:
    """Wall seconds of one run_protocol call of each protocol at its
    defaults with its record's bench_trials, with the config's fields."""
    times = {}
    for name, record in PROTOCOLS.items():
        config = default_config(name, trials=record.bench_trials)
        us = _per_call_us(lambda: run_protocol(config), min_time)
        times[name] = dict(config=dataclasses.asdict(config), wall_s=us / 1e6)
    return times


# Rounds the per-layer bench runs to time one round of the round loop.
_BENCH_ROUNDS = 16

# The lattice exponents bench --json times layer by layer: one of each
# row kind, one uint8, uint16, uint32 or uint64 word at n = 3 to 6, two
# uint64 words at n = 7, the first row of several, and eight at n = 9,
# the block of a 512x512 image.
_LAYER_EXPONENTS = (3, 4, 5, 6, 7, 9)


def _layer_times(n: int, min_time: float) -> dict:
    """Microseconds per full batch of each layer of the fast engine at
    lattice exponent n, on random blocks under the walls of a random
    16-byte key: unpacking, M, P, packing, "wall_mask" (coordinate_mask
    on every lattice's key coordinates at once) and one round, from runs
    to _BENCH_ROUNDS rounds and to 0, both of which build their calls.
    M and P replay the round loop's own calls from bitplane.round_plans,
    its first M and plan 0 without its M half, so they add up to most of
    a round."""
    lattices = batch_size(n)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(n)))
    key, data = rng.bytes(16), rng.bytes(lattices * block_size(n))
    planes = bitplane.planes_from_block(data, n)
    coords = np.tile(_key_coordinates(np.frombuffer(key, np.uint8), n), (lattices, 1, 1))
    mask = bitplane.coordinate_mask(coords, n)
    collide, plans, _ = bitplane.round_plans(planes, mask)
    propagate = plans[0][:-len(collide)]

    def run_to(rounds):
        return lambda: next(_trajectory(planes, mask, (rounds,)))

    us = {
        name: _per_call_us(fn, min_time)
        for name, fn in (
            ("planes_from_block", lambda: bitplane.planes_from_block(data, n)),
            ("collide_planes", lambda: bitplane.run_calls(collide)),
            ("propagate_planes", lambda: bitplane.run_calls(propagate)),
            ("planes_to_block", lambda: bitplane.planes_to_block(planes)),
            ("wall_mask", lambda: bitplane.coordinate_mask(coords, n)),
            ("round_0", run_to(0)),
            ("round_k", run_to(_BENCH_ROUNDS)),
        )
    }
    us["round"] = (us.pop("round_k") - us.pop("round_0")) / _BENCH_ROUNDS
    return dict(lattices=lattices, us_per_batch=us)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hppcrypt",
        description="HPP lattice-gas block cipher, key-space calculator, "
        "avalanche experiments and PGM bridge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p):
        secret = p.add_mutually_exclusive_group(required=True)
        secret.add_argument("--key-hex", help="secret key as a hex string")
        secret.add_argument("--key-file", help="secret key as a raw bytes file")
        secret.add_argument("--walls-file", help="explicit wall list (row,col per line)")

    p = sub.add_parser("encrypt", help="encrypt a file into a container")
    p.add_argument("--n", type=int, required=True, help="lattice exponent")
    p.add_argument("--rounds", type=int, help="default 2^(n+1)")
    add_key_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a container file")
    add_key_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("keyspace", help="count wall configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-K", "--walls", type=int, required=True, help="wall count")
    p.set_defaults(func=cmd_keyspace)

    p = sub.add_parser("experiment", help="run an avalanche protocol")
    p.add_argument("--protocol", choices=PROTOCOLS)
    for key, (_, _, help_text) in _EXPERIMENT_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"), help=help_text)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--csv", help="write points as CSV")
    p.add_argument("--svg", help="write a chart as SVG")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("img2block", help="PGM image to raw lattice block")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_img2block)

    p = sub.add_parser("block2img", help="raw lattice block to PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_block2img)

    p = sub.add_parser("bench", help="compare engine throughput")
    p.add_argument("--min-time", type=float, default=0.25, help="seconds per engine")
    p.add_argument("--json", help="also time each engine layer and write all as JSON")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
