from __future__ import annotations

import os
from pathlib import Path

import pytest

from bellshift import PrimePower, build_bell_binomial, build_binomials, build_stirling, is_prime

# B_0..B_12, frozen from exhaustive set-partition enumeration
BELL_SMALL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


def child_env() -> dict[str, str]:
    """The environment for a test whose subject is a real child process:
    this one's, less every ``BELLSHIFT_*`` variable, with ``src/`` on
    ``PYTHONPATH``, since pytest's ``pythonpath`` setting reaches only
    this process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("BELLSHIFT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
