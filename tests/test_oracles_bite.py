"""Every oracle bites: one small, realistic fault planted in a kernel must
make the CLI check that covers it exit 1.

Each row names a module-level function, a mutant built from the real one,
and the argv whose shipped check must catch it.  The same argv first runs
unpatched and must pass, so no row can pass vacuously."""

from __future__ import annotations

import importlib
from itertools import count

import pytest

from test_cli import counterexample, run_cli


def lambda_off(real):
    # the J-fraction's lambda_i = i read as i + 1: one more c_{k+1} per entry
    def step(c):
        return [x + d for x, d in zip(real(c), c[1:] + [0, 0])]

    return step


def factor_off_at_3(real):
    # Horner multiplies by (x - 4) where the Newton form has (x - 3)
    def to_monomial(c):
        poly: list[int] = []
        for i in range(len(c) - 1, -1, -1):
            f = i + 1 if i == 3 else i
            poly = [a - f * b for a, b in zip([c[i], *poly], poly + [0])]
        return tuple(poly)

    return to_monomial


def multiplier_off_at_2(real):
    # {n+1 brace 2} takes 3 * {n brace 2} in place of 2 * {n brace 2}
    def rows(n_max):
        row = (1,)
        yield row
        for n in range(n_max):
            row = (0, *(row[k - 1] + (k + (k == 2)) * row[k] for k in range(1, n + 1)), row[n])
            yield row

    return rows


def drops_initial_on_7th_call(real):
    calls = count(1)

    def accumulate(iterable, func=None, *, initial=None):
        if next(calls) == 7:
            initial = None
        return real(iterable, func, initial=initial)

    return accumulate


def residue_off_at_100(real):
    def residues(p, n_max):
        for n, r in enumerate(real(p, n_max)):
            yield (r + 1) % p if n == 100 else r

    return residues


def drops_one_orbit(real):
    # loses the first orbit of size > 1; the fixed count and residue hold
    def reps(n):
        dropped = False
        for rep, size in real(n):
            if size > 1 and not dropped:
                dropped = True
                continue
            yield rep, size

    return reps


MUTANTS = [
    ("bellshift.shiftpoly._tridiagonal_step", lambda_off, "shift-poly 5 --check-recursive"),
    (
        "bellshift.shiftpoly._falling_to_monomial",
        factor_off_at_3,
        "shift-poly 30 --check-recursive",
    ),
    ("bellshift.exact._stirling_rows", multiplier_off_at_2, "bell 40 --cross-check"),
    ("bellshift.exact.accumulate", drops_initial_on_7th_call, "bell 40 --cross-check"),
    ("bellshift.modular._residues", residue_off_at_100, "bell-mod 13 120 --cross-check"),
    ("bellshift.partitions._orbit_reps", drops_one_orbit, "orbits 2 3"),
]


@pytest.mark.parametrize("target, mutant, argv", MUTANTS, ids=[m.__name__ for _, m, _ in MUTANTS])
def test_planted_fault_exits_one(monkeypatch, target, mutant, argv):
    clean = run_cli(*argv.split())
    assert (clean.returncode, clean.stderr) == (0, "")
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutant(getattr(importlib.import_module(module), name)))
    assert counterexample(run_cli(*argv.split()))
