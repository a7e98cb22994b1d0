"""Fuzzing of every parser of untrusted input: container headers, PGM
files, wall lists and experiment config files. On any input each must
either succeed or raise an HppError (which the CLI turns into one
`error:` line and exit status 1 or 2), within a fixed time per example.
"""

import struct
import tempfile
import time
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from hppcrypt.cipher import CipherContainer
from hppcrypt.cli import main
from hppcrypt.errors import HppError
from hppcrypt.imaging import read_pgm
from hppcrypt.lattice import parse_walls_text

# Seconds one example may take; every input here is at most a few hundred
# bytes, so a parser that needs more is doing unbounded work.
LIMIT = 1.0

FUZZ = settings(deadline=None, max_examples=300)


def succeeds_or_refuses(parse, *args):
    start = time.perf_counter()
    try:
        parse(*args)
    except HppError:
        pass
    assert time.perf_counter() - start < LIMIT


def write_temp(data: bytes) -> Path:
    # hypothesis runs many examples per test, so no function-scoped tmp_path
    with tempfile.NamedTemporaryFile(delete=False) as f:
        f.write(data)
    return Path(f.name)


integers = st.one_of(st.integers(-2, 300), st.integers(-(2**70), 2**70))
headers = st.builds(
    lambda magic, version, n, rounds, length, payload:
        struct.pack(">4sBBIQ", magic, version, n, rounds, length) + payload,
    st.sampled_from([b"HPPC", b"HPPD"]),
    st.sampled_from([0, 1, 2]),
    st.integers(0, 255),
    st.one_of(st.integers(0, 70000), st.integers(0, 2**32 - 1)),
    st.one_of(st.integers(0, 200), st.integers(0, 2**64 - 1)),
    st.binary(max_size=80),
)


@given(st.one_of(st.binary(max_size=100), headers))
@FUZZ
def test_fuzz_container_from_bytes(data):
    succeeds_or_refuses(CipherContainer.from_bytes, data)


tokens = st.one_of(
    integers.map(str),
    st.sampled_from(["#c\n", "1e3", "0x10", "-0", "1_0", "9" * 5000]),
    st.text(max_size=6),
)
pgm_files = st.builds(
    lambda magic, head, raster: (
        magic + " ".join(head).encode("utf-8", "surrogatepass") + b"\n" + raster
    ),
    st.sampled_from([b"P2 ", b"P5 ", b"P5", b"P6 ", b""]),
    st.lists(tokens, max_size=5),
    st.one_of(
        st.binary(max_size=200),
        st.lists(integers.map(str), max_size=40).map(lambda v: " ".join(v).encode()),
    ),
)


@given(st.one_of(st.binary(max_size=200), pgm_files))
@FUZZ
def test_fuzz_read_pgm(data):
    path = write_temp(data)
    try:
        succeeds_or_refuses(read_pgm, path)
    finally:
        path.unlink()


wall_lines = st.one_of(
    st.tuples(integers, integers).map(lambda rc: f"{rc[0]},{rc[1]}"),
    st.sampled_from(["# c", "", " 1 , 2 ", "1,2,3", ",", "1_0,2", "9" * 5000 + ",1"]),
    st.text(max_size=12),
)


@given(st.one_of(st.text(max_size=200), st.lists(wall_lines, max_size=12).map("\n".join)))
@FUZZ
def test_fuzz_parse_walls_text(text):
    succeeds_or_refuses(parse_walls_text, text)


class Ran(Exception):
    """Raised instead of running the protocol of a config that parsed."""


config_keys = st.sampled_from(
    ["protocol", "n", "trials", "rounds", "key_len", "region", "seed", "bit", "trails", ""]
)
config_values = st.one_of(
    integers.map(str),
    st.sampled_from(["strict-key", "avalanche-text", "single-bit",
                     "avalanche-key-concentrated", "0:1:4", "8:0:4", "1,2,4", "0,0,2"]),
    st.lists(integers.map(str), min_size=2, max_size=4).map(":".join),
    st.lists(integers.map(str), min_size=2, max_size=4).map(",".join),
    st.text(max_size=8),
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map("=".join),
    st.text(max_size=12),
)
config_files = st.one_of(
    st.binary(max_size=120),
    st.lists(config_lines, max_size=8).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
)


@given(config_files)
@FUZZ
def test_fuzz_experiment_config(data):
    # A config that parses runs no protocol here: the protocol's own run
    # time is bounded by the config limits, not by the parser.
    path = write_temp(data)
    start = time.perf_counter()
    try:
        with mock.patch("hppcrypt.cli.run_protocol", side_effect=Ran), \
                mock.patch.dict("os.environ", {"HPP_SEED": "0"}):
            code = main(["experiment", "--config", str(path)])
        assert code in (1, 2)
    except Ran:
        pass
    finally:
        path.unlink()
    assert time.perf_counter() - start < LIMIT
