from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bellshift import (
    bell_shift,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    eval_poly,
    shift_poly_closed,
    shift_poly_recursive,
)

from conftest import BELL_SMALL


# ---------------------------------------------------------------- closed form


def test_closed_form_small(bell300, binom300):
    assert shift_poly_closed(0, bell300, binom300) == (1,)
    assert shift_poly_closed(1, bell300, binom300) == (1, 1)
    assert shift_poly_closed(5, bell300, binom300) == (52, 75, 50, 20, 5, 1)


def test_closed_form_coefficient_structure(bell300, binom300):
    # Leading coefficient is always 1, constant term is the Bell number.
    for j in range(0, 25):
        poly = shift_poly_closed(j, bell300, binom300)
        assert len(poly) == j + 1
        assert poly[-1] == 1
        assert poly[0] == bell300[j]


def test_closed_form_depth_errors(bell300, binom300):
    shallow_bell = build_bell_binomial(3)
    shallow_binom = build_binomials(3)
    with pytest.raises(ValueError):
        shift_poly_closed(4, shallow_bell, shallow_binom)
    with pytest.raises(ValueError):
        shift_poly_closed(4, build_bell_binomial(10), shallow_binom)
    with pytest.raises(ValueError):
        shift_poly_closed(-1, shallow_bell, shallow_binom)
    # a deep table sliced to index 3 is as shallow as a built one
    with pytest.raises(ValueError):
        shift_poly_closed(4, bell300[:4], binom300)
    with pytest.raises(ValueError):
        shift_poly_closed(4, bell300, binom300[:4])


# ----------------------------------------------------------------- recurrence


def test_recursive_small():
    assert shift_poly_recursive(0) == (1,)
    assert shift_poly_recursive(1) == (1, 1)
    assert shift_poly_recursive(2) == (2, 2, 1)
    assert shift_poly_recursive(5) == (52, 75, 50, 20, 5, 1)


def test_recursive_rejects_negative():
    with pytest.raises(ValueError):
        shift_poly_recursive(-1)


def test_both_constructions_agree(bell300, binom300):
    for j in range(0, 61):
        assert shift_poly_recursive(j) == shift_poly_closed(j, bell300, binom300)


# ----------------------------------------------------------------- evaluation


def test_eval_examples():
    p5 = shift_poly_recursive(5)
    assert eval_poly(p5, 0) == 52
    assert eval_poly(p5, 1) == 203
    assert eval_poly(shift_poly_recursive(2), 3) == 17


@given(
    coeffs=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
    x=st.integers(min_value=-20, max_value=20),
)
def test_eval_matches_naive_power_sum(coeffs, x):
    naive = sum(c * x**r for r, c in enumerate(coeffs))
    assert eval_poly(tuple(coeffs), x) == naive


# --------------------------------------------------------------- shift identity


def test_bell_shift_examples(stirling50):
    p0 = shift_poly_recursive(0)
    assert bell_shift(1, 0, stirling50, p0) == 1
    assert bell_shift(3, 2, stirling50, shift_poly_recursive(2)) == 52
    assert bell_shift(2, 5, stirling50, shift_poly_recursive(5)) == 877


def test_bell_shift_degenerate_j_zero(stirling50, bell300):
    # With a trivial shift the identity collapses to the Stirling row sum.
    p0 = shift_poly_recursive(0)
    for n in range(1, 31):
        assert bell_shift(n, 0, stirling50, p0) == bell300[n]


def test_bell_shift_one_step(stirling50, bell300):
    p1 = shift_poly_recursive(1)
    for n in range(1, 31):
        assert bell_shift(n, 1, stirling50, p1) == bell300[n + 1]


def test_specializations_give_consecutive_bell_numbers(bell300):
    # Value at 0 recovers the constant term, value at 1 sums the coefficients.
    for j in range(0, 61):
        poly = shift_poly_recursive(j)
        assert eval_poly(poly, 0) == bell300[j]
        assert eval_poly(poly, 1) == bell300[j + 1]


def test_bell_shift_validation(stirling50):
    p2 = shift_poly_recursive(2)
    with pytest.raises(ValueError):
        bell_shift(0, 2, stirling50, p2)
    with pytest.raises(ValueError):
        bell_shift(3, 1, stirling50, p2)
    with pytest.raises(ValueError):
        bell_shift(1, -1, stirling50, ())
    # a deep triangle sliced to rows 0..4 is as shallow as a built one
    for shallow in (build_stirling(4), stirling50[:5]):
        with pytest.raises(ValueError):
            bell_shift(5, 2, shallow, p2)


def test_shift_identity_against_small_bell_values(stirling50):
    for n in range(1, 7):
        for j in range(0, 7):
            poly = shift_poly_recursive(j)
            assert bell_shift(n, j, stirling50, poly) == BELL_SMALL[n + j]
