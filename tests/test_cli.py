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
from hppcrypt.experiments import MAX_CELL_ROUNDS, PROTOCOLS, default_config
from hppcrypt.imaging import GrayImage, read_pgm, write_pgm

from helpers import torus_distance


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
    box = tmp_path / "c.hppc"
    code = run("encrypt", "--n", "4", "--key-hex", "not-hex",
               "--in", str(plain), "--out", str(box))
    assert code == 2
    assert capsys.readouterr() == ("", "error: invalid hex key 'not-hex'\n")
    assert not box.exists()


def test_missing_key_exits_2(tmp_path, capsys):
    # No secret flag is an argparse usage error, before the input is read.
    box = tmp_path / "c.hppc"
    with pytest.raises(SystemExit) as exc:
        run("encrypt", "--n", "4",
            "--in", str(tmp_path / "absent.bin"), "--out", str(box))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "hppcrypt encrypt: error: one of the arguments --key-hex --key-file "
        "--walls-file is required")
    assert not box.exists()


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
@pytest.mark.parametrize("first, second", [
    ("--key-hex", "--key-file"), ("--key-hex", "--walls-file"),
    ("--key-file", "--walls-file")], ids=["hex+file", "hex+walls", "file+walls"])
def test_two_secret_flags_exit_2(tmp_path, capsys, command, first, second):
    # Exactly one secret: a pair is a usage error before any file is read.
    # Every path given is missing, so a read would exit 1, not 2.
    values = {"--key-hex": "a1b2", "--key-file": str(tmp_path / "absent.key"),
              "--walls-file": str(tmp_path / "absent.txt")}
    box = tmp_path / "out.bin"
    argv = ("--n", "3") if command == "encrypt" else ()
    with pytest.raises(SystemExit) as exc:
        run(command, *argv, first, values[first], second, values[second],
            "--in", str(tmp_path / "absent.bin"), "--out", str(box))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"hppcrypt {command}: error: argument {second}: "
        f"not allowed with argument {first}")
    assert not box.exists()


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
    # A container at the largest round count encrypt accepts loads and
    # decrypts. An empty file has no block, so no round runs.
    plain.write_bytes(b"")
    assert run("encrypt", "--n", "2", "--rounds", str(MAX_ROUNDS),
               "--key-hex", "a1", "--in", str(plain), "--out", str(box)) == 0
    assert f"rounds={MAX_ROUNDS})" in capsys.readouterr().out
    assert run("decrypt", "--key-hex", "a1", "--in", str(box), "--out", str(back)) == 0
    assert capsys.readouterr().out == (
        f"decrypted 0 block(s) to 0 bytes (n=2, rounds={MAX_ROUNDS})\n")
    assert back.read_bytes() == b""


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
    assert run("keyspace", "--n", "1", "-K", "1") == 0
    assert capsys.readouterr().out == "4\n≈ 4.0e0\n"


def test_experiment_runs_at_n1(capsys):
    # n=1 has no default key length, but takes one of a byte
    assert run("experiment", "--protocol", "strict-key", "--n", "1",
               "--key-len", "1", "--trials", "4", "--seed", "2") == 0
    assert capsys.readouterr().out.startswith(
        "protocol=strict-key n=1 trials=4 seed=2\nbits=16 mean=")


@pytest.mark.parametrize("n", ["0", "13"])
@pytest.mark.parametrize("command, message", [
    ("encrypt", "n must be in [2, 12], got {}"),
    ("keyspace", "lattice exponent must be in [1, 12], got {}"),
], ids=["encrypt", "keyspace"])
def test_exponent_range_comes_from_the_library(tmp_path, capsys, command, message, n):
    # --n parses as an integer; encrypt_stream and keyspace_count each
    # refuse an n outside their own range (ExperimentConfig's is checked
    # by test_experiment_hostile_config_exits_2).
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"data")
    box = tmp_path / "c.hppc"
    argv = {
        "encrypt": ("--key-hex", "a1b2", "--in", str(plain), "--out", str(box)),
        "keyspace": ("-K", "1"),
    }[command]
    assert run(command, "--n", n, *argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(n)}\n")
    assert not box.exists()


@pytest.mark.parametrize("flags, message", [
    (("--n", "13"), "n must be in [2, 12], got 13"),
    (("--n", "2", "--rounds", str(MAX_ROUNDS + 1)),
     f"rounds must be at most {MAX_ROUNDS}, got {MAX_ROUNDS + 1}"),
    (("--n", "2", "--rounds", "-1"), "rounds must be >= 0, got -1"),
], ids=["n13", "rounds-over", "rounds-negative"])
def test_encrypt_checks_n_and_rounds_before_any_file(tmp_path, capsys, flags, message):
    # The key file, the input and the output directory are all missing:
    # a bad n or round count is still what encrypt reports, with the
    # library's message, and no output file is made.
    missing = tmp_path / "missing"
    out = missing / "c.hppc"
    assert run("encrypt", *flags, "--key-file", str(missing / "key"),
               "--in", str(missing / "p.bin"), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists() and not missing.exists()


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


@pytest.mark.parametrize("argv", [
    ("experiment", "--protocol", "strict-key", "--csv", "{tmp}/ok.csv",
     "--svg", "{tmp}/gone/x.svg"),
    ("experiment", "--protocol", "avalanche-text", "--csv", "{tmp}/gone/x.csv"),
    ("bench", "--json", "{tmp}/gone/x.json"),
    ("encrypt", "--n", "4", "--key-hex", "aa", "--in", "{tmp}/absent.bin",
     "--out", "{tmp}/gone/c.hppc"),
    ("decrypt", "--key-hex", "aa", "--in", "{tmp}/absent.hppc", "--out", "{tmp}/gone/p"),
    ("img2block", "--in", "{tmp}/absent.pgm", "--out", "{tmp}/gone/b"),
    ("block2img", "--in", "{tmp}/absent.block", "--out", "{tmp}/gone/i.pgm"),
])
def test_output_in_a_missing_directory_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, no_run, argv):
    def no_timing(*args, **kwargs):
        raise AssertionError("bench timed with an output it cannot write")

    monkeypatch.setattr(cli, "_per_call_us", no_timing)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    missing = next(arg for arg in argv if "/gone/" in arg)
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []  # no CSV, no output of any kind


HUGE = 1 << 70  # 1180591620717411303424


@pytest.mark.parametrize("line, env_seed, message", [
    ("n=abc", None, "n must be an integer, got 'abc'"),
    # n=1 is a lattice an experiment takes; the base's 3-byte key is too long
    ("n=1", None, "key length must be in [1, 2] bytes for n=1, got 3"),
    ("n=13", None, "lattice exponent must be in [1, 12], got 13"),
    ("n=0", None, "lattice exponent must be in [1, 12], got 0"),
    ("bit=5", None, "bit is for single-bit only, got bit=5 for avalanche-text"),
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
], ids=["n=abc", "n=1", "n=13", "n=0", "bit=5", "seed=zz", "bit=q", "trails=2", "HPP_SEED=xyz",
        "key_len=huge-text", "key_len=huge-key", "trials=huge", "seed=2^64",
        "seed=-1", "HPP_SEED=2^64", "report=strict-n11", "report=curve",
        "key_len=short-text"])
def test_experiment_hostile_config_exits_2(tmp_path, capsys, monkeypatch, no_run,
                                           line, env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("HPP_SEED", raising=False)
    else:
        monkeypatch.setenv("HPP_SEED", env_seed)
    # the base config, each of its keys given only if the line has none
    conf = tmp_path / "exp.conf"
    given = {entry.partition("=")[0] for entry in line.splitlines()}
    base = ("protocol=avalanche-text", "trials=1", "rounds=2", "key_len=3")
    conf.write_text("".join(
        entry + "\n" for entry in base if entry.partition("=")[0] not in given) + line + "\n")
    start = time.perf_counter()
    assert run("experiment", "--config", str(conf)) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize("text, message", [
    ("protocol=strict-key\nprotocol=single-bit\n", "line 2: repeated key 'protocol'"),
    ("protocol=single-bit\ntrials=1\n# again\n trials = 1\n",
     "line 4: repeated key 'trials'"),
    ("protocol=single-bit\nseed=5\nn=3\nseed=\n", "line 4: repeated key 'seed'"),
], ids=["protocol", "same-value", "empty-value"])
def test_experiment_config_repeated_key_exits_1(tmp_path, capsys, no_run, text, message):
    # A key given twice is a malformed line, refused before any protocol
    # runs, with the same value or an empty one too: no value wins.
    conf = tmp_path / "exp.conf"
    conf.write_text(text)
    assert run("experiment", "--config", str(conf)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: bad config {message}"]


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


def test_block2img_reads_block_sizes_as_raw(tmp_path, capsys):
    # A raw block that starts with the container magic (pixels 4,8,5,0,
    # 5,0,4,3) renders as a block, its n inferred from its size; a
    # single-block container, whose length is no block size, still
    # renders. No --n can be given: the size fixes n.
    raw = tmp_path / "magic.block"
    raw.write_bytes(b"HPPC" + bytes(4))
    out = tmp_path / "o.pgm"
    assert run("block2img", "--in", str(raw), "--out", str(out)) == 0
    assert "4x4" in capsys.readouterr().out
    assert read_pgm(out).pixels == bytes([4, 8, 5, 0, 5, 0, 4, 3]) + bytes(8)
    box = tmp_path / "one.hppc"
    assert run("encrypt", "--n", "2", "--rounds", "4", "--key-hex", "0123",
               "--in", str(raw), "--out", str(box)) == 0
    assert len(box.read_bytes()) == 18 + 8
    assert run("block2img", "--in", str(box), "--out", str(out)) == 0
    assert "4x4" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run("block2img", "--n", "2", "--in", str(box), "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 2" in capsys.readouterr().err


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
    # Then the leak picture: encrypted with two walls at 16 rounds and
    # decrypted with one of them, every pixel farther than 16 from the
    # dropped wall (toroidal Manhattan distance) comes back exactly, and
    # some nearer pixel does not.
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

    both, kept = tmp_path / "both.txt", tmp_path / "kept.txt"
    both.write_text("32,32\n5,5\n")
    kept.write_text("5,5\n")
    leaky, decoded, leak = tmp_path / "leak.hppc", tmp_path / "leak.block", tmp_path / "leak.pgm"
    assert run("encrypt", "--n", "6", "--rounds", "16", "--walls-file", str(both),
               "--in", str(block), "--out", str(leaky)) == 0
    assert run("decrypt", "--walls-file", str(kept), "--in", str(leaky),
               "--out", str(decoded)) == 0
    assert run("block2img", "--in", str(decoded), "--out", str(leak)) == 0
    wrong = [divmod(i, 64) for i, (a, b) in enumerate(zip(image.pixels, read_pgm(leak).pixels))
             if a != b]
    assert wrong
    assert max(torus_distance(cell, (32, 32), 64) for cell in wrong) <= 16


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
    assert set(report) == {"machine", "min_time_s", "batch_cells", "rows", "layers",
                           "protocols"}
    assert set(report["machine"]) == {"python", "numpy", "cpu_count"}
    assert report["min_time_s"] == 0.02
    assert report["batch_cells"] == BATCH_CELLS
    # the rows the table prints, in its order
    assert [(str(r["n"]), str(r["rounds"]), r["engine"]) for r in report["rows"]] == [
        tuple(line.split()[:3]) for line in table]
    for row in report["rows"]:
        assert set(row) == {"n", "rounds", "engine", "blocks_per_s", "kB_per_s"}
    assert set(report["layers"]) == {"3", "4", "5", "6", "7", "9"}
    for n, layer in report["layers"].items():
        assert layer["lattices"] == batch_size(int(n))
        assert set(layer["us_per_batch"]) == {
            "planes_from_block", "collide_planes", "propagate_planes",
            "planes_to_block", "wall_mask", "round"}
        assert all(us > 0 for name, us in layer["us_per_batch"].items()
                   if name != "round")


def test_bench_json_times_every_protocol_at_its_config(bench):
    # One wall time per protocol, in PROTOCOLS' order, with the config it
    # ran: a protocol's defaults at the bench's trial count.
    _, report = bench
    protocols = report["protocols"]
    assert list(protocols) == list(PROTOCOLS)
    for protocol, entry in protocols.items():
        assert set(entry) == {"config", "wall_s"}
        config = entry["config"]
        want = default_config(protocol, trials=PROTOCOLS[protocol].bench_trials)
        assert config == json.loads(json.dumps(vars(want)))
        assert 0 < entry["wall_s"] < 60


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
    assert done.stderr == "error: lattice exponent must be in [1, 12], got 13\n"
