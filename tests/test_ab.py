"""tools/ab.py, the one-process A/B of two source trees, run on copies of
src/: it imports both, runs a tiny workload or rounds on each in turn,
prints both sides and says whether their outputs were equal. No timing
is asserted."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_ab(old: Path, new: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(AB), str(old), str(new), *args],
                          capture_output=True, text=True, timeout=170)


def test_ab_finds_two_copies_equal(tmp_path):
    old, new = copy_tree(tmp_path / "old"), copy_tree(tmp_path / "new")
    done = run_ab(old, new, "--workload", "stream-n6", "--scale", "tiny", "--reps", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("workload stream-n6 (tiny, seed 0): 3 repetitions, "
                        "sides alternating first, outputs equal in 3/3")
    sides = [line.split() for line in lines[2:4]]
    assert [row[0] for row in sides] == ["old", "new"]
    assert sum(int(row[-2]) for row in sides) == 3  # every repetition has one winner
    assert lines[4].startswith("new/old: ")
    assert not list(tmp_path.rglob("__pycache__"))  # neither tree is written to


def test_ab_reports_outputs_that_differ(tmp_path):
    # The second tree's round loop runs one round more than asked: the
    # ciphertexts of the timed rounds differ and the run fails.
    old, new = copy_tree(tmp_path / "old"), copy_tree(tmp_path / "new")
    with open(new / "src" / "hppcrypt" / "cipher.py", "a") as cipher:
        cipher.write("\n_asked = _trajectory\n\n\n"
                     "def _trajectory(planes, mask, counts):\n"
                     "    return _asked(planes, mask, tuple(c + 1 for c in counts))\n")
    done = run_ab(old, new, "--round", "3", "--reps", "2")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines()[0] == (
        "one round at n=3, runs to 16 rounds: 2 repetitions, "
        "sides alternating first, outputs equal in 0/2")
