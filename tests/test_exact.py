from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from bellshift import (
    bell_from_stirling,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    count_by_blocks,
    enumerate_partitions,
    stirling_rows,
)

from conftest import BELL_SMALL


# ---------------------------------------------------------------- binomials


def test_binomial_base_row():
    assert build_binomials(0) == ((1,),)


def test_binomial_matches_subset_enumeration():
    # C(n, k) counts the k-element subsets, so count them
    table = build_binomials(8)
    for n in range(9):
        for k in range(n + 1):
            assert table[n][k] == len(list(combinations(range(n), k)))


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


def test_binomial_out_of_range():
    assert len(build_binomials(5)) == 6
    with pytest.raises(ValueError):
        build_binomials(-1)


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
    rows = tuple(stirling_rows(n_max))
    assert rows == build_stirling(n_max)
    assert tuple(map(sum, rows)) == build_bell_binomial(n_max)


def test_stirling_value_accessor():
    assert len(build_stirling(6)) == 7
    with pytest.raises(ValueError):
        build_stirling(-2)


# ------------------------------------------------------------- bell numbers


def test_bell_from_stirling_values():
    tri = build_stirling(10)
    assert bell_from_stirling(tri, 0) == 1
    assert bell_from_stirling(tri, 3) == sum(1 for _ in enumerate_partitions(3)) == 5
    assert bell_from_stirling(tri, 5) == 52


def test_bell_from_stirling_range_check(stirling50):
    # a deep triangle sliced to rows 0..4 is as shallow as a built one
    for tri in (build_stirling(4), stirling50[:5]):
        with pytest.raises(ValueError):
            bell_from_stirling(tri, 5)
        with pytest.raises(ValueError):
            bell_from_stirling(tri, -1)


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


def test_bell_value_accessor():
    table = build_bell_binomial(3)
    assert table[2] == 2
    assert len(table) == 4
    with pytest.raises(ValueError):
        build_bell_binomial(-1)


def test_cross_recurrence_equivalence(stirling50):
    table = build_bell_binomial(50)
    for n in range(51):
        assert table[n] == bell_from_stirling(stirling50, n)
        if n >= 1:
            assert table[n] == sum(stirling50[n][1:])


def test_bell_strictly_increasing_from_one():
    values = build_bell_binomial(50)
    for n in range(1, 50):
        assert values[n + 1] > values[n]
