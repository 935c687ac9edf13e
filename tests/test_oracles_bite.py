"""Every oracle bites: one small, realistic fault planted in a kernel must
make the check that covers it fail.

Each CLI row names a module-level function, a mutant built from the real
one, and the argv whose shipped check must catch it.  The same argv first
runs unpatched and must pass, so no row can pass vacuously.  A kernel
with no CLI check, the prefix walk behind ``count_by_blocks`` or the
tally itself, is checked the same way against its slow oracle in the
tests; so are the orbit walk's mutants, against the seen-set oracle, on
top of their CLI rows."""

from __future__ import annotations

import importlib
import inspect
from array import array
from itertools import count

import pytest

from bellshift import count_by_blocks, orbit_decomposition, partitions

from test_cli import counterexample, run_cli
from test_partitions import max_tally_by_blocks, seen_set_orbit_decomposition


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


def edited(real, old, new):
    # the real kernel recompiled from its own source with one fragment
    # replaced, so the mutant follows any later edit to the kernel
    source = inspect.getsource(real)
    assert source.count(old) == 1, old
    scope = {}
    exec(source.replace(old, new), real.__globals__, scope)
    return scope[real.__name__]


def multiplier_off_at_2(real):
    # {n+1 brace 2} takes 3 * {n brace 2} in place of 2 * {n brace 2}; the
    # step consumes its row, so the extra term is read first
    def step(row, n):
        if n < 2:
            return real(row, n)
        extra = row[2]
        new = real(row, n)
        new[2] += extra
        return new

    return step


def lag_dropped(real):
    # the reverse iterator is not moved one step ahead, so after the first
    # pop it points past the end and stops: row n+1 comes out as (0,)
    return edited(real, "next(ahead)", "pass")


def aitken_row_unreversed(real):
    # the row above is popped without being reversed, so it is read back
    # to front and the new row starts from A(n-1, 0) in place of B_n
    return edited(real, "row.reverse()", "pass")


def drops_initial_on_7th_call(real):
    # bell 40 --cross-check calls accumulate 40 times for Aitken's triangle
    # before its one call that drives the Stirling rows, so the 7th call
    # still lands in the triangle
    calls = count(1)

    def accumulate(iterable, func=None, *, initial=None):
        if next(calls) == 7:
            initial = None
        return real(iterable, func, initial=initial)

    return accumulate


def bell_off_at_50(real):
    # one Bell number off by one, as a slip in any builder would leave it
    def build(n_max):
        table = list(real(n_max))
        table[50] += 1
        return tuple(table)

    return build


def multiplier_off(real):
    # the congruence read as B_{n+p^m} = (m+1)*B_n + B_{n+1}
    return edited(real, "m * bell[n]", "(m + 1) * bell[n]")


def residue_off_at_100(real):
    # one residue off by one in the block that holds B_100
    def blocks(p, n_max):
        start = 0
        for block in real(p, n_max):
            lanes = block.tolist()
            if start <= 100 < start + len(lanes):
                lanes[100 - start] = (lanes[100 - start] + 1) % p
            start += len(lanes)
            yield memoryview(array(block.format, lanes))

    return blocks


def pair_table_off_at_p(real):
    # the lane reduction takes off p - 1, so a sum of exactly p reads 1, not
    # 0, as a table of pair sums off at p would
    return edited(real, "& ones) * p", "& ones) * (p - 1)")


def trims_one_short(real):
    # the shifted window is trimmed one lane too many, so each new residue
    # adds the window entry one step too far on
    return edited(real, "window[w:]", "window[2 * w :]")


def jump_coefficient_off(real):
    # B_{n+p^m} read as (m+1)*B_n + B_{n+1} once the window has grown past
    # p, so only the jumps of m >= 2 are wrong
    def jump_by(p, w, m):
        return real(p, w, m + (m > 1))

    return jump_by


def lane_left_at_p(real):
    # each lane's top bit is read against p + 1, so a sum of exactly p is
    # left unreduced
    return edited(real, "((1 << top) - p)", "((1 << top) - p - 1)")


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


def prev_link_off_by_one(real):
    # the wrap-around reads an earlier occurrence one position too late
    return edited(real, "n + prev[y]", "n + prev[y] + 1")


def leaf_label_not_latest(real):
    # a label first met at y is looked up in the prefix's last even when
    # the leaf, at n - 1, holds it later
    return edited(real, "i if s[y] == v else last[s[y]]", "last[s[y]]")


def wrap_drop_read_as_cut(real):
    # a tied start that drops in the wrap-around cuts the string, so the
    # orbits that it marks are lost
    return edited(real, "if label < (c := s[x - q]):", "if label != (c := s[x - q]):")


def return_writes_its_position(real):
    # the undo after a return from the descent writes the position itself,
    # not its link, so its label keeps an occurrence the prefix has lost
    return edited(
        real,
        "last[s[i]] = prev[i]\n            continue\n        s[i] = v",
        "last[s[i]] = i\n            continue\n        s[i] = v",
    )


def leaf_return_not_undone(real):
    # the return from the leaf skips its undo, so its label keeps an
    # occurrence the prefix has lost
    return edited(
        real,
        "last[s[i]] = prev[i]\n            continue\n        v = s[i] + 1",
        "continue\n        v = s[i] + 1",
    )


ORBIT_WALK_MUTANTS = [
    prev_link_off_by_one,
    leaf_label_not_latest,
    wrap_drop_read_as_cut,
    return_writes_its_position,
]

MUTANTS = [
    ("bellshift.shiftpoly._tridiagonal_step", lambda_off, "shift-poly 5 --check-recursive"),
    (
        "bellshift.shiftpoly._falling_to_monomial",
        factor_off_at_3,
        "shift-poly 30 --check-recursive",
    ),
    ("bellshift.exact._stirling_step", multiplier_off_at_2, "bell 40 --cross-check"),
    ("bellshift.exact._stirling_step", lag_dropped, "bell 40 --cross-check"),
    # cli holds its own reference to the Bell builder
    ("bellshift.cli.build_bell_binomial", aitken_row_unreversed, "bell 40 --cross-check"),
    ("bellshift.exact.accumulate", drops_initial_on_7th_call, "bell 40 --cross-check"),
    # caught at n = 47, where B_50 is B_{n+3}
    ("bellshift.cli.build_bell_binomial", bell_off_at_50, "verify 3 1"),
    # caught at n = 1: 3*B_1 + B_2 = 5 = 2 but B_10 = 115975 = 1 (mod 3)
    ("bellshift.cli.touchard_check", multiplier_off, "verify 3 2"),
    ("bellshift.modular._blocks", residue_off_at_100, "bell-mod 13 120 --cross-check"),
    # 588 residues past the seeds: twelve jumps of 13 grow the window to 169,
    # then three jumps of 169, the last cut short
    ("bellshift.modular._jump_by", pair_table_off_at_p, "bell-mod 13 600 --cross-check --depth 600"),
    ("bellshift.modular._jump_by", trims_one_short, "bell-mod 13 600 --cross-check --depth 600"),
    # the window reaches q = 29^2 = 841 at n = 841, so the last 60 residues
    # come from a jump of m = 2
    ("bellshift.modular._jump_by", jump_coefficient_off, "bell-mod 29 900 --cross-check --depth 900"),
    # p = 199 jumps p at a time, in lanes of two bytes
    ("bellshift.modular._jump_by", lane_left_at_p, "bell-mod 199 600 --cross-check --depth 600"),
    ("bellshift.partitions._orbit_reps", drops_one_orbit, "orbits 2 3"),
    # the B_8 = 4140 total reads 5189, 5676, 4 and 297
    *(("bellshift.partitions._orbit_reps", m, "orbits 2 3") for m in ORBIT_WALK_MUTANTS),
]


@pytest.mark.parametrize("target, mutant, argv", MUTANTS, ids=[m.__name__ for _, m, _ in MUTANTS])
def test_planted_fault_exits_one(monkeypatch, target, mutant, argv):
    clean = run_cli(*argv.split())
    assert (clean.returncode, clean.stderr) == (0, "")
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutant(getattr(importlib.import_module(module), name)))
    assert counterexample(run_cli(*argv.split()))


# leaf_return_not_undone has no CLI row: orbits 2 3 raises IndexError under it
@pytest.mark.parametrize("mutant", [*ORBIT_WALK_MUTANTS, leaf_return_not_undone])
def test_planted_orbit_walk_fault_breaks_the_seen_set_oracle(monkeypatch, mutant):
    moduli = range(1, 9)
    assert all(tuple(orbit_decomposition(n)) == seen_set_orbit_decomposition(n) for n in moduli)
    monkeypatch.setattr(partitions, "_orbit_reps", mutant(partitions._orbit_reps))
    assert any(tuple(orbit_decomposition(n)) != seen_set_orbit_decomposition(n) for n in moduli)


def bound_not_raised(real):
    # after a new block opens, the entries past it keep the old bound
    def walk(n):
        a = [0] * n
        b = [1] * n
        b[0] = 0
        while True:
            yield a, b[-1]
            i = n - 2
            while i > 0 and a[i] == b[i]:
                i -= 1
            if i <= 0:
                return
            a[i] += 1
            for k in range(i + 1, n):
                a[k] = 0
                b[k] = b[i]

    return walk


def top_off_at_4th_prefix(real):
    def walk(n):
        for k, (a, top) in enumerate(real(n), 1):
            yield a, top + (k == 4)

    return walk


def opened_block_not_counted(real):
    # the last-position loop gives every value the prefix's old block
    # count, also the one value that opens a block
    return edited(real, "bj + (v == bj)", "bj")


@pytest.mark.parametrize(
    "mutant", [bound_not_raised, top_off_at_4th_prefix, opened_block_not_counted]
)
@pytest.mark.parametrize("n", [5, 6, 7])
def test_planted_prefix_walk_fault_breaks_the_max_tally(monkeypatch, mutant, n):
    assert count_by_blocks(n) == max_tally_by_blocks(n)
    monkeypatch.setattr(partitions, "_prefix_walk", mutant(partitions._prefix_walk))
    assert count_by_blocks(n) != max_tally_by_blocks(n)


def tail_off_at_3(real):
    # the string that opens a fourth block is tallied as a fifth
    return edited(real, "+ [t]", "+ [t + (t == 3)]")


@pytest.mark.parametrize("n", [5, 6, 7])
def test_planted_tally_fault_breaks_the_max_tally(monkeypatch, n):
    assert partitions.count_by_blocks(n) == max_tally_by_blocks(n)
    monkeypatch.setattr(partitions, "count_by_blocks", tail_off_at_3(partitions.count_by_blocks))
    assert partitions.count_by_blocks(n) != max_tally_by_blocks(n)


def opening_entry_left_closed(real):
    # under a prefix with t blocks, the entry t at the next position is
    # tallied as if it opened no block
    return edited(real, "tails[t] * t + tails[t + 1]", "tails[t] * (t + 1)")


@pytest.mark.parametrize("n", [5, 6, 7])
def test_planted_row_fault_breaks_the_max_tally(monkeypatch, n):
    assert partitions.count_by_blocks(n) == max_tally_by_blocks(n)
    mutant = opening_entry_left_closed(partitions.count_by_blocks)
    monkeypatch.setattr(partitions, "count_by_blocks", mutant)
    assert partitions.count_by_blocks(n) != max_tally_by_blocks(n)
