import contextlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hppcrypt import cli
from hppcrypt.cipher import (
    BATCH_CELLS, MAX_ROUNDS, batch_size, encrypt_stream, keyspace_count)
from hppcrypt.cli import main
from hppcrypt.errors import FormatError
from hppcrypt.experiments import MAX_CELL_ROUNDS
from hppcrypt.imaging import GrayImage, read_pgm, write_pgm


def run(*argv):
    return main(list(argv))


def test_encrypt_decrypt_round_trip(tmp_path, capsys):
    rnd = random.Random(0)
    plain = tmp_path / "plain.bin"
    plain.write_bytes(rnd.randbytes(10 * 1024))
    box = tmp_path / "data.hppc"
    out = tmp_path / "back.bin"

    assert run("encrypt", "--n", "5", "--key-hex", "a1b2c3d4e5f60718",
               "--in", str(plain), "--out", str(box)) == 0
    assert run("decrypt", "--key-hex", "a1b2c3d4e5f60718",
               "--in", str(box), "--out", str(out)) == 0
    assert out.read_bytes() == plain.read_bytes()
    err = capsys.readouterr().err
    assert "warning" not in err


def test_low_rounds_warning(tmp_path, capsys):
    rnd = random.Random(1)
    plain = tmp_path / "p.bin"
    plain.write_bytes(rnd.randbytes(2048))
    assert run("encrypt", "--n", "6", "--rounds", "16", "--key-hex", "00ff00ff",
               "--in", str(plain), "--out", str(tmp_path / "c.hppc")) == 0
    assert "wall influence may not cover" in capsys.readouterr().err


def test_density_warning(tmp_path, capsys):
    plain = tmp_path / "zeros.bin"
    plain.write_bytes(bytes(512))
    assert run("encrypt", "--n", "4", "--key-hex", "beef",
               "--in", str(plain), "--out", str(tmp_path / "c.hppc")) == 0
    assert "density" in capsys.readouterr().err



def test_empty_file_round_trips_without_warning(tmp_path, capsys):
    # An empty file has no bits, so no density to warn about.
    plain = tmp_path / "empty.bin"
    plain.write_bytes(b"")
    box, out = tmp_path / "c.hppc", tmp_path / "back.bin"
    assert run("encrypt", "--n", "2", "--key-hex", "a1",
               "--in", str(plain), "--out", str(box)) == 0
    assert capsys.readouterr().err == ""
    assert run("decrypt", "--key-hex", "a1", "--in", str(box), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b""

def test_invalid_hex_key_exits_2(tmp_path, capsys):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"data")
    code = run("encrypt", "--n", "4", "--key-hex", "not-hex",
               "--in", str(plain), "--out", str(tmp_path / "c.hppc"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_key_exits_2(tmp_path):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"data")
    assert run("encrypt", "--n", "4",
               "--in", str(plain), "--out", str(tmp_path / "c.hppc")) == 2


def test_unreadable_input_exits_1(tmp_path):
    assert run("encrypt", "--n", "4", "--key-hex", "aa",
               "--in", str(tmp_path / "absent.bin"),
               "--out", str(tmp_path / "c.hppc")) == 1


def test_corrupt_container_exits_1(tmp_path):
    bad = tmp_path / "bad.hppc"
    bad.write_bytes(b"not a container at all")
    assert run("decrypt", "--key-hex", "aa",
               "--in", str(bad), "--out", str(tmp_path / "o.bin")) == 1


@pytest.mark.parametrize("n, rounds, message", [
    (40, 8, "lattice exponent 40 in header is outside [2, 12]"),
    (2, 2**32 - 1, "4294967295 rounds in header exceeds the limit of 65536"),
], ids=["n=40", "rounds=2^32-1"])
def test_hostile_container_header_exits_1(tmp_path, capsys, n, rounds, message):
    # 26 bytes: the 18-byte header and one 8-byte block of payload
    bad = tmp_path / "hostile.hppc"
    bad.write_bytes(struct.pack(">4sBBIQ", b"HPPC", 1, n, rounds, 8) + bytes(8))
    start = time.perf_counter()
    code = run("decrypt", "--key-hex", "a1b2c3d4",
               "--in", str(bad), "--out", str(tmp_path / "o.bin"))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {message}"]


def test_encrypt_round_count_limit(tmp_path, capsys):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"\x5a" * 8)
    box, back = tmp_path / "c.hppc", tmp_path / "back.bin"
    assert run("encrypt", "--n", "2", "--rounds", str(MAX_ROUNDS + 1),
               "--key-hex", "a1", "--in", str(plain), "--out", str(box)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: rounds must be at most {MAX_ROUNDS}, got {MAX_ROUNDS + 1}"
    ]
    assert not box.exists()
    # the largest round count encrypt accepts still decrypts
    assert run("encrypt", "--n", "2", "--rounds", str(MAX_ROUNDS),
               "--key-hex", "a1", "--in", str(plain), "--out", str(box)) == 0
    assert run("decrypt", "--key-hex", "a1", "--in", str(box), "--out", str(back)) == 0
    assert back.read_bytes() == plain.read_bytes()


def test_encrypt_refuses_before_it_warns(tmp_path, capsys):
    # An all-zero input would draw a density warning, but a round count
    # over the limit is refused first: one error line and no file.
    plain = tmp_path / "zeros.bin"
    plain.write_bytes(bytes(8))
    box = tmp_path / "c.hppc"
    assert run("encrypt", "--n", "2", "--rounds", str(MAX_ROUNDS + 1),
               "--key-hex", "a1", "--in", str(plain), "--out", str(box)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: rounds must be at most {MAX_ROUNDS}, got {MAX_ROUNDS + 1}"
    ]
    assert not box.exists()


def test_walls_file_flow(tmp_path):
    rnd = random.Random(2)
    plain = tmp_path / "p.bin"
    plain.write_bytes(rnd.randbytes(300))
    walls = tmp_path / "walls.txt"
    walls.write_text("1,2\n7,13\n12,4\n")
    box = tmp_path / "c.hppc"
    out = tmp_path / "o.bin"
    assert run("encrypt", "--n", "4", "--walls-file", str(walls),
               "--in", str(plain), "--out", str(box)) == 0
    assert run("decrypt", "--walls-file", str(walls),
               "--in", str(box), "--out", str(out)) == 0
    assert out.read_bytes() == plain.read_bytes()

    walls.write_text("1;2\n")
    assert run("encrypt", "--n", "4", "--walls-file", str(walls),
               "--in", str(plain), "--out", str(box)) == 1


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_empty_walls_file_exits_2(tmp_path, capsys, command):
    # A wall file of comments only is an empty wall set: no secret at all.
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(512))  # all zeros: encrypt would warn on density
    box = tmp_path / "c.hppc"
    box.write_bytes(encrypt_stream(b"data", b"key", 4).to_bytes())
    walls = tmp_path / "walls.txt"
    walls.write_text("# no walls\n\n")
    out = tmp_path / "out.bin"
    src, argv = (plain, ("--n", "4")) if command == "encrypt" else (box, ())
    assert run(command, *argv, "--walls-file", str(walls),
               "--in", str(src), "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", "error: wall set is empty: need at least one wall\n")
    assert not out.exists()


@pytest.mark.parametrize("n", range(1, 13))
def test_infer_exponent_of_every_block_size(n):
    size = 1 << (2 * n - 1)
    assert cli._infer_exponent(size) == n
    for length in (0, 1, size - 1, size + 1, 2 * size):
        with pytest.raises(FormatError, match=f"^{length} bytes is not"):
            cli._infer_exponent(length)


def test_key_file_flow(tmp_path):
    rnd = random.Random(6)
    plain = tmp_path / "p.bin"
    plain.write_bytes(rnd.randbytes(500))
    key = tmp_path / "secret.key"
    key.write_bytes(rnd.randbytes(16))
    box = tmp_path / "c.hppc"
    out = tmp_path / "o.bin"
    assert run("encrypt", "--n", "4", "--key-file", str(key),
               "--in", str(plain), "--out", str(box)) == 0
    assert run("decrypt", "--key-file", str(key),
               "--in", str(box), "--out", str(out)) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_block2img_rejects_multi_block_container(tmp_path):
    rnd = random.Random(7)
    plain = tmp_path / "p.bin"
    plain.write_bytes(rnd.randbytes(300))  # three 128-byte blocks at n=4
    box = tmp_path / "c.hppc"
    assert run("encrypt", "--n", "4", "--key-hex", "0123",
               "--in", str(plain), "--out", str(box)) == 0
    assert run("block2img", "--in", str(box), "--out", str(tmp_path / "o.pgm")) == 1


def test_experiment_concentrated_region_flag(tmp_path, capsys):
    assert run("experiment", "--protocol", "avalanche-key-concentrated",
               "--n", "4", "--trials", "1", "--rounds", "4", "--key-len", "2",
               "--region", "2,2,4", "--seed", "1") == 0
    assert "r=4 p=" in capsys.readouterr().out
    assert run("experiment", "--protocol", "avalanche-key-concentrated",
               "--n", "4", "--trials", "1", "--rounds", "4",
               "--region", "9,9,9", "--seed", "1") == 2


def test_keyspace_published_values(capsys):
    assert run("keyspace", "--n", "8", "-K", "256") == 0
    out = capsys.readouterr().out
    assert "≈ 2.0e726" in out
    assert run("keyspace", "--n", "6", "--walls", "32") == 0
    assert "≈ 1.6e80" in capsys.readouterr().out


def test_keyspace_single_wall(capsys):
    assert run("keyspace", "--n", "4", "-K", "1") == 0
    assert "256" in capsys.readouterr().out


@pytest.mark.parametrize("n, walls", [
    ("12", "2000"),  # 8,714 digits, beyond Python's int-to-str limit
    ("12", "1" + "0" * 100),  # C(top, 2^24 - 1): unbounded work
    ("2", "1" + "0" * 400),  # beyond a float
    ("2", "9" * 4000),
], ids=["n12-K2000", "n12-K1e100", "n2-K1e400", "n2-K4000digits"])
def test_keyspace_huge_count_exits_2(capsys, monkeypatch, n, walls):
    def refuse(*args):
        raise AssertionError("math.comb reached")

    monkeypatch.setattr(math, "comb", refuse)
    assert run("keyspace", "--n", n, "-K", walls) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1
    assert "more than 4000 digits" in err


def test_keyspace_digit_limit_is_exact(capsys):
    assert run("keyspace", "--n", "12", "-K", "845") == 0
    assert "≈ 6.6e3996" in capsys.readouterr().out
    assert run("keyspace", "--n", "12", "-K", "846") == 2
    assert "more than 4000 digits" in capsys.readouterr().err


def test_unknown_protocol_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("experiment", "--protocol", "bogus")
    assert exc.value.code == 2


def test_experiment_missing_protocol_exits_2(capsys):
    assert run("experiment") == 2


def test_experiment_writes_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    svg = tmp_path / "out.svg"
    assert run("experiment", "--protocol", "avalanche-key", "--n", "3",
               "--trials", "2", "--rounds", "2:2:6", "--key-len", "3",
               "--seed", "7", "--csv", str(csv), "--svg", str(svg)) == 0
    out = capsys.readouterr().out
    assert csv.read_text().startswith("x,y,stddev\n")
    assert svg.read_text().startswith("<svg")
    assert "r=2 p=" in out and "r=6 p=" in out


def test_experiment_single_bit_split(capsys):
    assert run("experiment", "--protocol", "single-bit", "--trials", "64",
               "--seed", "3", "--bit", "0") == 0
    assert "512/1024 ciphertext bits never invert" in capsys.readouterr().out


def test_experiment_config_file(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# avalanche run\nprotocol=avalanche-text\nn=3\ntrials=2\n"
        "rounds=2:2:4\nkey_len=3\nseed=9\n"
    )
    csv = tmp_path / "out.csv"
    assert run("experiment", "--config", str(conf), "--csv", str(csv)) == 0
    assert "protocol=avalanche-text" in capsys.readouterr().out
    first = csv.read_bytes()

    # explicit flags win over the file
    assert run("experiment", "--config", str(conf), "--trials", "1",
               "--csv", str(csv)) == 0
    assert csv.read_bytes() != first


@pytest.fixture
def no_run(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the protocol ran on a bad config")

    monkeypatch.setattr("hppcrypt.cli.run_protocol", no_work)


HUGE = 1 << 70  # 1180591620717411303424


@pytest.mark.parametrize("line, env_seed, message", [
    ("n=abc", None, "n must be an integer, got 'abc'"),
    ("n=1", None, "n must be in [2, 12], got 1"),
    ("n=13", None, "n must be in [2, 12], got 13"),
    ("seed=zz", None, "seed must be an integer, got 'zz'"),
    ("bit=q", None, "bit must be an integer, got 'q'"),
    ("trails=2", None, "unknown config key 'trails'; valid keys: protocol, n, trials"),
    ("", "xyz", "HPP_SEED must be an integer, got 'xyz'"),
    (f"key_len={HUGE}", None,
     f"key length must be in [1, 128] bytes for n=4, got {HUGE}"),
    (f"protocol=strict-key\nkey_len={HUGE}", None,
     f"key length must be in [1, 128] bytes for n=4, got {HUGE}"),
    (f"trials={HUGE}", None, f"trials must be in [1, 65536], got {HUGE}"),
    (f"seed={1 << 64}", None, f"seed must be in [0, 2^64), got {1 << 64}"),
    ("seed=-1", None, "seed must be in [0, 2^64), got -1"),
    ("", str(1 << 64), f"seed must be in [0, 2^64), got {1 << 64}"),
    ("protocol=strict-text\nn=11\ntrials=4096\nrounds=1", None,
     "a report of 16777216 points x 4096 trials exceeds 16777216 values"),
    ("trials=65536\nrounds=0:1:65536", None,
     "a report of 65537 points x 65536 trials exceeds 16777216 values"),
    ("n=5\nkey_len=1", None,
     "key of 1 bytes yields no walls: need at least 10 bits"),
], ids=["n=abc", "n=1", "n=13", "seed=zz", "bit=q", "trails=2", "HPP_SEED=xyz",
        "key_len=huge-text", "key_len=huge-key", "trials=huge", "seed=2^64",
        "seed=-1", "HPP_SEED=2^64", "report=strict-n11", "report=curve",
        "key_len=short-text"])
def test_experiment_hostile_config_exits_2(tmp_path, capsys, monkeypatch, no_run,
                                           line, env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("HPP_SEED", raising=False)
    else:
        monkeypatch.setenv("HPP_SEED", env_seed)
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "protocol=avalanche-text\ntrials=1\nrounds=2\nkey_len=3\n" + line + "\n"
    )
    start = time.perf_counter()
    assert run("experiment", "--config", str(conf)) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize("flag", ["--config", "--walls-file"])
def test_non_utf8_text_file_exits_1(tmp_path, capsys, no_run, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe n=4\n")
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(8))
    if flag == "--config":
        argv = ("experiment", "--config", str(bad))
    else:
        argv = ("encrypt", "--n", "2", "--walls-file", str(bad),
                "--in", str(plain), "--out", str(tmp_path / "c.hppc"))
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad} is not UTF-8 text (bad byte at offset 0)"
    ]
    assert not (tmp_path / "c.hppc").exists()


@pytest.mark.parametrize("flags, config", [
    (("--protocol", "strict-key", "--n", "2", "--rounds", "100000000",
      "--trials", "1", "--key-len", "1"), None),
    ((), "protocol=avalanche-text\nn=3\ntrials=1\nkey_len=3\n"
         "rounds=0:1:100000000\n"),
], ids=["flag", "config"])
def test_experiment_rounds_limit(tmp_path, capsys, no_run, flags, config):
    if config is not None:
        conf = tmp_path / "exp.conf"
        conf.write_text(config)
        flags = ("--config", str(conf))
    start = time.perf_counter()
    assert run("experiment", *flags) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.splitlines() == [
        f"error: rounds must be at most {MAX_ROUNDS}, got 100000000"
    ]


@pytest.mark.parametrize("flags", [
    ("--protocol", "avalanche-text", "--n", "12", "--trials", "1", "--rounds", "1"),
    ("--protocol", "avalanche-text", "--n", "11", "--trials", "1", "--rounds", "1"),
    ("--protocol", "avalanche-key", "--n", "6", "--trials", "255",
     "--rounds", "0:1:65535"),
], ids=["text-n12", "text-n11", "key-n6"])
def test_experiment_cell_round_limit(capsys, no_run, flags):
    start = time.perf_counter()
    assert run("experiment", *flags) == 2
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a run of ")
    assert lines[0].endswith(f"exceeds {MAX_CELL_ROUNDS} cell-rounds")


def test_experiment_seed_env_fallback(tmp_path, capsys, monkeypatch):
    args = ("experiment", "--protocol", "avalanche-text", "--n", "3",
            "--trials", "1", "--rounds", "4", "--key-len", "3")
    monkeypatch.setenv("HPP_SEED", "11")
    assert run(*args) == 0
    out_env = capsys.readouterr().out
    assert "seed=11" in out_env
    assert run(*args, "--seed", "11") == 0
    assert capsys.readouterr().out == out_env


def test_image_round_trip(tmp_path):
    rnd = random.Random(3)
    image = GrayImage(32, 32, bytes(rnd.randrange(16) for _ in range(1024)))
    src = tmp_path / "in.pgm"
    write_pgm(image, src)
    block = tmp_path / "img.block"
    back = tmp_path / "out.pgm"
    assert run("img2block", "--in", str(src), "--out", str(block)) == 0
    assert len(block.read_bytes()) == 512
    assert run("block2img", "--in", str(block), "--out", str(back)) == 0
    assert read_pgm(back) == image


def test_block2img_infers_exponent(tmp_path, capsys):
    rnd = random.Random(4)
    block = tmp_path / "b.block"
    block.write_bytes(rnd.randbytes(2048))
    assert run("block2img", "--in", str(block), "--out", str(tmp_path / "o.pgm")) == 0
    assert "64x64" in capsys.readouterr().out

    block.write_bytes(rnd.randbytes(100))
    assert run("block2img", "--in", str(block), "--out", str(tmp_path / "o.pgm")) == 1


def test_img2block_rejects_non_square(tmp_path):
    src = tmp_path / "rect.pgm"
    src.write_bytes(b"P5 4 2 15\n" + bytes(8))
    assert run("img2block", "--in", str(src), "--out", str(tmp_path / "b.block")) == 1


@pytest.mark.parametrize("raster", [b"P5 3 1 10\n" + bytes([3, 12, 11]),
                                    b"P2 3 1 10\n3 12 11\n"])
def test_img2block_rejects_sample_above_maxval(tmp_path, capsys, raster):
    src = tmp_path / "over.pgm"
    src.write_bytes(raster)
    assert run("img2block", "--in", str(src), "--out", str(tmp_path / "b.block")) == 1
    assert capsys.readouterr().err == "error: sample 12 exceeds maxval 10\n"
    assert not (tmp_path / "b.block").exists()


def test_image_encryption_demo_chain(tmp_path, capsys):
    # 64x64 image, one central wall, 128 rounds: the rendered ciphertext
    # is noise-like, differing from the original in over 40% of its bits.
    rnd = random.Random(5)
    image = GrayImage(64, 64, bytes(rnd.randrange(16) for _ in range(4096)))
    src = tmp_path / "in.pgm"
    write_pgm(image, src)
    block = tmp_path / "img.block"
    box = tmp_path / "img.hppc"
    walls = tmp_path / "wall.txt"
    walls.write_text("32,32\n")
    noisy = tmp_path / "enc.pgm"

    assert run("img2block", "--in", str(src), "--out", str(block)) == 0
    assert run("encrypt", "--n", "6", "--rounds", "128", "--walls-file", str(walls),
               "--in", str(block), "--out", str(box)) == 0
    assert run("block2img", "--in", str(box), "--out", str(noisy)) == 0

    scrambled = read_pgm(noisy)
    diff_bits = sum(
        (a ^ b).bit_count() for a, b in zip(image.pixels, scrambled.pixels)
    )
    assert diff_bits / (4 * 4096) > 0.4


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One `hppcrypt bench --json` run for the bench tests: the table rows
    it prints and the report it writes."""
    path = tmp_path_factory.mktemp("bench") / "bench.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run("bench", "--min-time", "0.02", "--json", str(path)) == 0
    table = [l for l in out.getvalue().splitlines() if l.strip()][1:]
    return table, json.loads(path.read_text())


def test_bench_rows_and_engine_order(bench):
    rows, _ = bench
    assert len(rows) == 6  # two engines for each of n in {4, 5, 6}
    rates = {}
    for row in rows:
        fields = row.split()
        rates[(fields[0], fields[2])] = float(fields[3])
    for n in ("4", "5", "6"):
        assert rates[(n, "bitplane")] >= rates[(n, "reference")]


def test_bench_json_has_rows_layers_and_machine(bench):
    table, report = bench
    assert set(report) == {"machine", "min_time_s", "batch_cells", "rows", "layers"}
    assert set(report["machine"]) == {"python", "numpy", "cpu_count"}
    assert report["min_time_s"] == 0.02
    assert report["batch_cells"] == BATCH_CELLS
    # the rows the table prints, in its order
    assert [(str(r["n"]), str(r["rounds"]), r["engine"]) for r in report["rows"]] == [
        tuple(line.split()[:3]) for line in table]
    for row in report["rows"]:
        assert set(row) == {"n", "rounds", "engine", "blocks_per_s", "kB_per_s"}
    assert set(report["layers"]) == {"4", "5", "6"}
    for n, layer in report["layers"].items():
        assert layer["lattices"] == batch_size(int(n))
        assert set(layer["us_per_batch"]) == {
            "planes_from_block", "collide_planes", "propagate_planes",
            "planes_to_block", "wall_mask", "round"}
        assert all(us > 0 for name, us in layer["us_per_batch"].items()
                   if name != "round")


@pytest.mark.parametrize(
    "value, ok",
    [("nan", False), ("inf", False), ("-inf", False), ("0", False),
     ("-1", False), ("61", False), ("1e400", False), ("0.001", True),
     ("60", True)],
)
def test_bench_min_time_must_be_finite_and_positive(capsys, monkeypatch, value, ok):
    # The timed calls are stubs that give up after a few thousand calls,
    # so a --min-time the loop never reaches fails here instead of hanging.
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        if len(calls) > 5000:
            raise AssertionError("bench kept timing")
        return b"block"

    monkeypatch.setattr(cli, "encrypt_block", stub)
    monkeypatch.setattr(cli, "encrypt_stream", stub)
    clock = iter(range(10**6))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    assert run("bench", f"--min-time={value}") == (0 if ok else 2)
    out, err = capsys.readouterr()
    if ok:
        assert len(out.splitlines()) == 7
    else:
        assert calls == [] and out == ""
        assert err.count("error:") == 1 and "--min-time" in err


@pytest.mark.parametrize("call_s, calls", [(2.0, 1), (0.3, 4), (1 / 64, 65)])
def test_bench_runs_share_min_time(monkeypatch, call_s, calls):
    # The bench timer's five runs share min_time (1 s here, on a clock that
    # only the timed call moves): a call slower than all of it is made
    # once, one of 0.3 s four times (0.3 s a run, stopping at 1.2 s), and
    # a fast one fills five runs of at least 0.2 s: 13 calls of 1/64 s each.
    clock, made = [0.0], []

    def call():
        made.append(1)
        clock[0] += call_s

    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    assert cli._per_call_us(call, 1.0) == pytest.approx(call_s * 1e6)
    assert len(made) == calls


def run_module(*argv):
    """`python -m hppcrypt` in a new process, on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "hppcrypt", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point():
    done = run_module("keyspace", "--n", "8", "-K", "256")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == str(keyspace_count(8, 256))
    assert done.stderr == ""
    done = run_module("keyspace", "--n", "13", "-K", "256")
    assert done.returncode == 2
    assert done.stdout == ""
    assert [line for line in done.stderr.splitlines() if "error" in line] == [
        "hppcrypt keyspace: error: argument --n: n must be in [2, 12], got 13"]
