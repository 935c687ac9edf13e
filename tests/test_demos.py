"""Each narrative demo runs to completion and prints the bytes recorded
for it, and the README quick start runs as written."""

from __future__ import annotations

import doctest
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


# sha256 of each demo's stdout, recorded from a known-good build.  A
# change to any of these bytes must update this table on purpose.
RECORDED_DIGESTS = {
    "01_bell_and_stirling": "f6a2005cb37b15555f26aa1310992a056927e628de73f59c669742b5d6892d06",
    "02_shift_polynomials": "af1553105fdfc55d1c6bd2dd2a6ba0033d754707b7301b2018c261cfef030605",
    "03_touchard_congruence": "53632360c1c6d231476bc0f8938894590f16ea50f0231a064209da3aa2d259a6",
    "04_partition_orbits": "48328f116e647829fb1e598bcf36105dbc9d7789989d2dccf8da8779d20d9f9a",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_recorded_digest(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == RECORDED_DIGESTS[demo.stem]


def test_readme_quick_start():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
