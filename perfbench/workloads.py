"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one repetition of its
body through the program's public functions, and checks the outputs
outside the timed region. Functions are always looked up on the module
(``hpp.cipher.encrypt_block``) at call time, so a traced run sees them.

Why these four:

* stream-n6: the file-encryption path, many small blocks under one key
  and one cached wall mask; per-block Python overhead and plane packing
  show here.
* avalanche-text: the text-avalanche protocol re-encrypts from round 0
  for every round count, so reuse of round prefixes shows here and only
  here.
* strict-key: every flipped key derives new walls and 65 short
  encryptions per trial thrash the wall-mask cache; the shape a batched
  engine targets, and one that prefix reuse should not move.
* image-n9: one 512x512 image is one huge block, so per-call overhead is
  irrelevant and the big-integer kernels and the PGM bridge dominate.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from types import SimpleNamespace

# Each cell of a 16-level image is one nibble.
_NIBBLE = bytes(b & 0xF for b in range(256))


def rep_seed(seed: int, rep: int) -> int:
    """Protocol seed of repetition `rep`: each repetition draws fresh
    trials, as a researcher's next run would, so no cache sees repeats."""
    return seed * 1000 + rep


def popcount(data: bytes) -> int:
    return int.from_bytes(data, "little").bit_count()


class Checks:
    """Correctness checks: each call of expect() is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name: str
    n: int
    rounds: int
    units: str  # what one unit of trials_per_s is
    units_per_rep: int
    cipher_bytes_per_rep: int  # bytes through encrypt_block per repetition

    def config(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "golden"}

    def prepare(self, hpp, seed: int, workdir: Path) -> SimpleNamespace:
        raise NotImplementedError

    def warm_up(self, hpp, state) -> None:
        """One encryption at the workload's geometry under a key the timed
        body never uses: lazy set-up finishes, data caches stay cold."""
        rnd = random.Random(f"warm-up {self.name}")
        key = rnd.randbytes(2 * self.n)
        block = rnd.randbytes(1 << (2 * self.n - 1))
        params = hpp.cipher.CipherParams(
            self.n, self.rounds, hpp.cipher.derive_walls(key, self.n))
        hpp.cipher.encrypt_block(block, params)

    def body(self, hpp, state, rep: int):
        raise NotImplementedError

    def check(self, hpp, state, rep: int, out, checks: Checks) -> None:
        raise NotImplementedError

    def final_check(self, hpp, state, checks: Checks) -> None:
        """Checks made once per run, after the timed repetitions."""


class Stream(Workload):
    """encrypt_stream then decrypt_stream of one seeded buffer under one
    key, at the default round count."""

    name = "stream-n6"
    units = "round trip"

    def __init__(self, n=6, data_bytes=1 << 20, key_len=48, reference_blocks=2):
        self.n = n
        self.rounds = 1 << (n + 1)  # the program's default_rounds(n)
        self.data_bytes = data_bytes
        self.key_len = key_len
        self.reference_blocks = reference_blocks
        self.units_per_rep = 1
        self.cipher_bytes_per_rep = 2 * data_bytes

    def prepare(self, hpp, seed, workdir):
        rnd = random.Random(seed)
        block = 1 << (2 * self.n - 1)
        return SimpleNamespace(
            data=rnd.randbytes(self.data_bytes),
            key=rnd.randbytes(self.key_len),
            reference=rnd.sample(range(self.data_bytes // block),
                                 self.reference_blocks),
            container=None,
        )

    def body(self, hpp, s, rep):
        container = hpp.cipher.encrypt_stream(s.data, s.key, self.n)
        return container, hpp.cipher.decrypt_stream(container, s.key)

    def check(self, hpp, s, rep, out, checks):
        container, plain = out
        checks.expect(plain == s.data, "stream round trip is exact")
        checks.expect(popcount(container.payload) == popcount(s.data),
                      "ciphertext keeps the plaintext popcount")
        s.container = container

    def final_check(self, hpp, s, checks):
        """The reference engine re-encrypts a few seeded blocks of the last
        plaintext and must give the bitplane engine's ciphertext."""
        if s.container is None:
            return
        bs = 1 << (2 * self.n - 1)
        params = hpp.cipher.CipherParams(
            self.n, s.container.rounds, hpp.cipher.derive_walls(s.key, self.n))
        for i in s.reference:
            ref = hpp.cipher.encrypt_block(
                s.data[i * bs:(i + 1) * bs], params, engine="reference")
            checks.expect(ref == s.container.payload[i * bs:(i + 1) * bs],
                          f"engines agree on block {i}")


class Protocol(Workload):
    """One repetition is one run_protocol call with fresh trials; its CSV
    must match a recorded digest where one exists."""

    protocol: str
    trials: int

    def __init__(self, golden: dict[int, str] | None, **overrides):
        self.overrides = overrides
        self.golden = golden or {}

    def protocol_config(self, hpp, seed):
        return hpp.experiments.default_config(
            self.protocol, trials=self.trials, seed=seed, **self.overrides)

    def prepare(self, hpp, seed, workdir):
        return SimpleNamespace(seed=seed, csv=workdir / f"{self.name}.csv")

    def body(self, hpp, s, rep):
        return hpp.experiments.run_protocol(
            self.protocol_config(hpp, rep_seed(s.seed, rep)))

    def check(self, hpp, s, rep, report, checks):
        hpp.experiments.emit_csv(report, s.csv)
        digest = hashlib.sha256(s.csv.read_bytes()).hexdigest()
        expected = self.golden.get(rep_seed(s.seed, rep))
        if expected is not None:
            checks.expect(digest == expected,
                          f"{self.name} CSV at protocol seed "
                          f"{rep_seed(s.seed, rep)} matches its digest")
        self.check_values(report, checks)


class AvalancheText(Protocol):
    name = "avalanche-text"
    protocol = "avalanche-text"
    units = "trial"

    def __init__(self, n=4, key_len=8, rounds_range=(8, 8, 128), trials=1,
                 golden=None):
        super().__init__(golden, n=n, key_len=key_len, rounds_range=rounds_range)
        self.n = n
        self.rounds = rounds_range[0]
        self.trials = trials
        start, step, stop = rounds_range
        block_bits = 8 << (2 * n - 1)
        per_trial = len(range(start, stop + 1, step)) * (1 + block_bits)
        self.units_per_rep = trials
        self.cipher_bytes_per_rep = trials * per_trial * (block_bits // 8)

    def check_values(self, report, checks):
        checks.expect(max(report.ys) <= 0.5,
                      "text avalanche stays under the parity cap 0.5")


class StrictKey(Protocol):
    name = "strict-key"
    protocol = "strict-key"
    units = "trial"

    def __init__(self, trials=50, golden=None, n=4, rounds=64, key_len=8):
        super().__init__(golden, n=n, rounds_range=(rounds, 1, rounds),
                         key_len=key_len)
        self.n = n
        self.rounds = rounds
        self.trials = trials
        self.units_per_rep = trials
        self.cipher_bytes_per_rep = trials * (1 + 8 * key_len) << (2 * n - 1)

    def check_values(self, report, checks):
        checks.expect(abs(report.mean_y() - 0.47) <= 0.02,
                      "strict-key mean inside the published 0.47 +/- 0.02")


class Image(Workload):
    """A seeded 16-level P5 PGM: read, encrypt as one block, write the
    ciphertext image, read it back, decrypt and compare."""

    name = "image-n9"
    units = "image round trip"

    def __init__(self, n=9, rounds=1024, key_len=576):
        self.n = n
        self.rounds = rounds
        self.key_len = key_len
        self.units_per_rep = 1
        self.cipher_bytes_per_rep = 2 << (2 * n - 1)

    def prepare(self, hpp, seed, workdir):
        rnd = random.Random(seed)
        side = 1 << self.n
        pixels = rnd.randbytes(side * side).translate(_NIBBLE)
        plain = workdir / f"{self.name}-plain.pgm"
        plain.write_bytes(b"P5 %d %d 15\n" % (side, side) + pixels)
        it = iter(pixels)
        return SimpleNamespace(
            key=rnd.randbytes(self.key_len),
            plain=plain,
            cipher=workdir / f"{self.name}-cipher.pgm",
            expected=bytes((a << 4) | b for a, b in zip(it, it)),
        )

    def body(self, hpp, s, rep):
        cipher, imaging, lattice = hpp.cipher, hpp.imaging, hpp.lattice
        block = lattice.to_bytes(imaging.image_to_lattice(imaging.read_pgm(s.plain)))
        params = cipher.CipherParams(self.n, self.rounds,
                                     cipher.derive_walls(s.key, self.n))
        ct = cipher.encrypt_block(block, params)
        imaging.write_pgm(imaging.lattice_to_image(lattice.from_bytes(ct, self.n)),
                          s.cipher)
        back = lattice.to_bytes(imaging.image_to_lattice(imaging.read_pgm(s.cipher)))
        return cipher.encrypt_block(back, params)

    def check(self, hpp, s, rep, out, checks):
        checks.expect(out == s.expected, "image round trip is exact")


# sha256 of emit_csv output at the default seed 0, per protocol seed of
# repetitions 0..7, recorded when this benchmark was added.
# Any change that keeps the protocols' arithmetic must reproduce them.
GOLDEN_AVALANCHE_TEXT = {
    0: "7204dffbf59866cba8272598479faab473b2ccb9bb5621ae8ca5175dfb707d7d",
    1: "6ee767b73a6b42bb0fece9014c8d9412f11088872f6a5e66ff109aa341a3d0fb",
    2: "fab57e294c512c8daa66a67deae98e87e4f5f7510045ce67ed5ac8b7fe4767a4",
    3: "2483acfd4878addb640a014b6e32a6a150dcc4daad408b2a24e0eb992ad00ef4",
    4: "2c22a96dee2c823be37a40ffd8da4a3e994d63adf2132e7c104c7bccfc4301ba",
    5: "5cf22ad32ffb7e3821f7f0d1786aceec479311e0c848704779e14cc6ca3ef070",
    6: "b831fd06889ec3a580af342506041c369ca7bc9cfac47a13416d861d81e3edd2",
    7: "aad7e39ac6ec36a53328e0fbee978ee5c1d038956817423c07525c4d04734cd8",
}
GOLDEN_STRICT_KEY = {
    0: "97ea19131fe272d533aea37ff25eb6faeee6274b45880cf7b0259d2d2e1866d6",
    1: "dc37868608168cf7d96ca86894eed9af07e55388636ee5c0f6300f1a0cbac7ae",
    2: "ec1453d489bb968607093a04007025325f9b896bcc47ecbc0eb7eccbd5fc3b5c",
    3: "b61f642382c334acefc52e05f9ef8a733d495e94248167afd0d2e3f253531d87",
    4: "e2db43ff3930cd504f34fb0fb05b18148c2fd7f1c1c978289831a3e0b3433081",
    5: "9dcc0e32d608966e79ef1808a8b539042ec1b631570fbf7e513ab0c770b010cc",
    6: "33aecedbde9679f9ceb965d7c4369db3a56bc6eb902c5fa5817f21758ff19075",
    7: "5006df4f26074e15d9a5795e35d645dd4a33a24df16feb92be22cf116c92970e",
}


_FULL = {
    "stream-n6": Stream,
    "avalanche-text": lambda: AvalancheText(golden=GOLDEN_AVALANCHE_TEXT),
    "strict-key": lambda: StrictKey(golden=GOLDEN_STRICT_KEY),
    "image-n9": Image,
}
_TINY = {
    "stream-n6": lambda: Stream(n=3, data_bytes=4096, key_len=6),
    "avalanche-text": lambda: AvalancheText(rounds_range=(8, 8, 16)),
    "strict-key": lambda: StrictKey(trials=4),
    "image-n9": lambda: Image(n=4, rounds=32, key_len=8),
}
NAMES = tuple(_FULL)


def make(name: str, scale: str = "full") -> Workload:
    """The named workload at full size, or at the tiny size the
    benchmark's own tests use."""
    return (_TINY if scale == "tiny" else _FULL)[name]()
