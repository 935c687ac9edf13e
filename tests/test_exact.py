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
    assert build_binomials(0).rows == ((1,),)


def test_binomial_matches_subset_enumeration():
    # C(n, k) counts the k-element subsets, so count them
    table = build_binomials(8)
    for n in range(9):
        for k in range(n + 1):
            assert table.choose(n, k) == len(list(combinations(range(n), k)))


def test_binomial_boundaries():
    table = build_binomials(10)
    assert table.choose(5, 0) == 1
    assert table.choose(5, 5) == 1
    assert table.choose(4, 2) == 6


def test_binomial_symmetry_and_recurrence():
    table = build_binomials(30)
    for n in range(31):
        for k in range(n + 1):
            assert table.choose(n, k) == table.choose(n, n - k)
            if 1 <= k <= n - 1:
                assert table.rows[n][k] == table.rows[n - 1][k - 1] + table.rows[n - 1][k]


def test_binomial_out_of_range():
    table = build_binomials(5)
    assert table.choose(5, -1) == 0
    assert table.choose(5, 6) == 0
    with pytest.raises(ValueError):
        table.choose(6, 0)
    with pytest.raises(ValueError):
        build_binomials(-1)


# ----------------------------------------------------------------- stirling


def test_stirling_against_enumeration_oracle():
    tri = build_stirling(9)
    for n in range(1, 10):
        tallies = count_by_blocks(n)
        for k in range(1, n + 1):
            assert tri.rows[n][k] == tallies[k - 1]
    assert tri.rows[3][2] == 3
    assert tri.rows[4][2] == 7


def test_stirling_boundaries():
    tri = build_stirling(20)
    assert tri.rows[0][0] == 1
    for n in range(1, 21):
        assert tri.rows[n][0] == 0
        assert tri.rows[n][n] == 1


def test_stirling_recurrence_full_scan():
    tri = build_stirling(40)
    for n in range(40):
        for k in range(1, n + 1):
            assert tri.rows[n + 1][k] == tri.rows[n][k - 1] + k * tri.rows[n][k]


@pytest.mark.parametrize("n_max", [0, 1, 60])
def test_stirling_rows_stream_the_triangle(n_max):
    rows = tuple(stirling_rows(n_max))
    assert rows == build_stirling(n_max).rows
    assert tuple(map(sum, rows)) == build_bell_binomial(n_max).values


def test_stirling_value_accessor():
    tri = build_stirling(6)
    assert tri.value(5, 7) == 0
    assert tri.value(5, -1) == 0
    with pytest.raises(ValueError):
        tri.value(7, 1)
    with pytest.raises(ValueError):
        build_stirling(-2)


# ------------------------------------------------------------- bell numbers


def test_bell_from_stirling_values():
    tri = build_stirling(10)
    assert bell_from_stirling(tri, 0) == 1
    assert bell_from_stirling(tri, 3) == sum(1 for _ in enumerate_partitions(3)) == 5
    assert bell_from_stirling(tri, 5) == 52


def test_bell_from_stirling_range_check():
    tri = build_stirling(4)
    with pytest.raises(ValueError):
        bell_from_stirling(tri, 5)
    with pytest.raises(ValueError):
        bell_from_stirling(tri, -1)


def test_bell_binomial_values():
    table = build_bell_binomial(9)
    assert table.values[0] == 1
    assert table.values[1] == 1
    assert table.values[5] == 52
    assert table.values[6] == sum(1 for _ in enumerate_partitions(6)) == 203
    assert table.values == BELL_SMALL[:10]


def test_bell_binomial_defining_sum(bell300):
    # the paper's binomial convolution, the oracle for the Bell triangle
    values = bell300.values
    for n in range(300):
        assert values[n + 1] == sum(values[d] * comb(n, n - d) for d in range(n + 1))


def test_bell_value_accessor():
    table = build_bell_binomial(3)
    assert table.value(2) == 2
    with pytest.raises(ValueError):
        table.value(4)
    with pytest.raises(ValueError):
        build_bell_binomial(-1)


def test_cross_recurrence_equivalence(stirling50):
    table = build_bell_binomial(50)
    for n in range(51):
        assert table.values[n] == bell_from_stirling(stirling50, n)
        if n >= 1:
            assert table.values[n] == sum(stirling50.rows[n][1:])


def test_bell_strictly_increasing_from_one():
    values = build_bell_binomial(50).values
    for n in range(1, 50):
        assert values[n + 1] > values[n]
