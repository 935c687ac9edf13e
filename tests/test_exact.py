from __future__ import annotations

from itertools import combinations
from math import comb, factorial

import pytest

from bellshift import (
    build_bell_binomial,
    build_binomials,
    build_stirling,
    count_by_blocks,
    enumerate_partitions,
    stirling_rows,
)

from conftest import BELL_SMALL, child_peak_growth_mb


# ---------------------------------------------------------------- binomials


def test_binomial_base_row():
    assert build_binomials(0) == ((1,),)


def test_binomial_matches_subset_enumeration():
    # C(n, k) counts the k-element subsets, so count them; math.comb, which
    # binomial_vanishing_check reads, must count the same
    table = build_binomials(8)
    for n in range(9):
        for k in range(n + 1):
            subsets = len(list(combinations(range(n), k)))
            assert table[n][k] == comb(n, k) == subsets


def test_binomial_boundaries():
    table = build_binomials(10)
    assert table[5][0] == 1
    assert table[5][5] == 1
    assert table[4][2] == 6


def test_binomial_symmetry_and_recurrence():
    table = build_binomials(30)
    for n in range(31):
        for k in range(n + 1):
            assert table[n][k] == table[n][n - k]
            if 1 <= k <= n - 1:
                assert table[n][k] == table[n - 1][k - 1] + table[n - 1][k]


@pytest.mark.parametrize(
    "build", [build_binomials, build_stirling, build_bell_binomial], ids=lambda f: f.__name__
)
def test_table_has_n_max_plus_one_rows_and_refuses_negative_n_max(build):
    for n in (0, 5):
        assert len(build(n)) == n + 1
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        build(-1)


# ----------------------------------------------------------------- stirling


def test_stirling_against_enumeration_oracle():
    tri = build_stirling(9)
    for n in range(1, 10):
        tallies = count_by_blocks(n)
        for k in range(1, n + 1):
            assert tri[n][k] == tallies[k - 1]
    assert tri[3][2] == 3
    assert tri[4][2] == 7


def test_stirling_boundaries():
    tri = build_stirling(20)
    assert tri[0][0] == 1
    for n in range(1, 21):
        assert tri[n][0] == 0
        assert tri[n][n] == 1


def test_stirling_recurrence_full_scan():
    tri = build_stirling(40)
    for n in range(40):
        for k in range(1, n + 1):
            assert tri[n + 1][k] == tri[n][k - 1] + k * tri[n][k]


@pytest.mark.parametrize("n_max", [0, 1, 60])
def test_stirling_rows_stream_the_triangle(n_max):
    # each step consumes the list it reads, so every row yielded must be a
    # copy: after the stream is exhausted each still holds its n + 1 entries
    rows = tuple(stirling_rows(n_max))
    assert rows == build_stirling(n_max)
    assert [len(row) for row in rows] == list(range(1, n_max + 2))
    assert all(type(row) is tuple for row in rows)
    assert tuple(map(sum, rows)) == build_bell_binomial(n_max)
    # the explicit sum, independent of the recurrence
    assert rows[n_max] == tuple(
        sum((-1) ** i * comb(k, i) * (k - i) ** n_max for i in range(k + 1)) // factorial(k)
        for k in range(n_max + 1)
    )


def test_stirling_rows_checks_n_max_when_called():
    # not at the first next(), which a zero-length zip never asks for
    with pytest.raises(ValueError, match="n_max"):
        stirling_rows(-1)


# ------------------------------------------------------------- bell numbers


def test_bell_binomial_values():
    table = build_bell_binomial(9)
    assert table[0] == 1
    assert table[1] == 1
    assert table[5] == 52
    assert table[6] == sum(1 for _ in enumerate_partitions(6)) == 203
    assert table == BELL_SMALL[:10]


def test_bell_binomial_defining_sum(bell300):
    # the paper's binomial convolution, the oracle for the Bell triangle
    for n in range(300):
        assert bell300[n + 1] == sum(bell300[d] * comb(n, n - d) for d in range(n + 1))


def test_cross_recurrence_equivalence(stirling50):
    table = build_bell_binomial(50)
    for n in range(51):
        assert table[n] == sum(stirling50[n])
        if n >= 1:
            assert table[n] == sum(stirling50[n][1:])


@pytest.mark.parametrize("n_max", [0, 1, 1000])
def test_bell_binomial_matches_stirling_row_sums(n_max):
    # the Stirling row sums are the independent oracle, here at the
    # benchmark's depth; each value is a plain int, rebuilt from bytes
    table = build_bell_binomial(n_max)
    assert table == tuple(map(sum, stirling_rows(n_max)))
    assert all(type(v) is int for v in table)


def test_bell_binomial_peak_rss_stays_bounded():
    # a small int kept per row pins an allocator pool that the freed rows
    # would empty: that read +7.9 MB at n = 1000, two live rows +3.2 MB,
    # and the one live row of a row popped as it is read +2.1 MB
    growth = child_peak_growth_mb(
        "build_bell_binomial(1000)", setup="from bellshift.exact import build_bell_binomial"
    )
    assert growth < 2.6


def test_bell_strictly_increasing_from_one():
    values = build_bell_binomial(50)
    for n in range(1, 50):
        assert values[n + 1] > values[n]
