from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bellshift import PrimePower, build_bell_binomial, build_binomials, build_stirling, is_prime

# B_0..B_12, frozen from exhaustive set-partition enumeration
BELL_SMALL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


def child_env() -> dict[str, str]:
    """The environment for a test whose subject is a real child process:
    this one's with ``src/`` on ``PYTHONPATH``, since pytest's
    ``pythonpath`` setting reaches only this process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_PEAK_PROBE = """
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
{setup}
before = peak_kb()
{stmt}
print(peak_kb() - before)
"""


def child_peak_growth_mb(stmt: str, setup: str = "") -> float:
    """How far ``stmt`` raises the peak RSS of a fresh child process, in
    MB: the child's ``VmHWM`` after ``stmt`` less its ``VmHWM`` after
    ``setup``.  Skips where ``/proc/self/status`` is absent.

    Neither obvious probe sees this.  ``ru_maxrss`` starts at the
    spawner's high-water mark, since Linux carries it across exec (see
    ``perfbench/launcher.py``), so a child of this large process reads
    this process's peak; ``VmHWM`` belongs to the child's own address
    space.  ``tracemalloc`` counts live Python objects only, so it misses
    allocator pools that one small surviving object keeps from being
    given back.

    The probe runs twice, against a fresh bytecode cache, and the second
    run is read.  The first writes the bytecode of every module the probe
    imports.  Compiling during ``setup`` raises the high-water mark that
    ``stmt`` is measured from, so it read 0.6 to 0.9 MB less growth than
    with the bytecode cached; compiling during ``stmt`` would read more."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read VmHWM from")
    code = _PEAK_PROBE.format(setup=setup, stmt=stmt)
    with tempfile.TemporaryDirectory() as cache:
        env = child_env()
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
            )
            assert res.returncode == 0, res.stderr
    return int(res.stdout) / 1024


def prime_powers(bound: int) -> list[PrimePower]:
    """All prime powers p^m <= bound, sorted by value then by p."""
    out = []
    p = 2
    while p <= bound:
        if is_prime(p):
            m = 1
            while p**m <= bound:
                out.append(PrimePower(p, m))
                m += 1
        p += 1
    out.sort(key=lambda pp: (pp.value, pp.p))
    return out


@pytest.fixture(scope="session")
def bell300():
    return build_bell_binomial(300)


@pytest.fixture(scope="session")
def stirling50():
    return build_stirling(50)


@pytest.fixture(scope="session")
def binom300():
    return build_binomials(300)
