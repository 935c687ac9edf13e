from __future__ import annotations

import sys
import threading
from itertools import accumulate
from math import prod

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
from bellshift.shiftpoly import _falling_to_monomial, _tridiagonal_step
from conftest import BELL_SMALL


def _taylor_step(desc: list[int]) -> list[int]:
    """P(x+1) + x * P(x) on coefficients taken highest degree first.

    P(x+1) is expanded by the Ruffini/Horner Taylor shift: each pass
    replaces a prefix by its running sums, which is one synthetic division
    by (x - 1), and leaves the remainder, the next Taylor coefficient at 1,
    in the last place of the prefix; the prefix then shrinks by one.  After
    deg passes the coefficient of x^r is sum_{s>=r} c_s * C(s, r), reached
    with O(deg^2) additions and no binomial coefficients.
    """
    shifted = desc[:]
    for m in range(len(shifted), 1, -1):
        shifted[:m] = accumulate(shifted[:m])
    return [a + b for a, b in zip([0, *shifted], desc + [0])]


def _taylor_shift_poly(j: int) -> tuple[int, ...]:
    """The slow oracle for P_j: the Taylor-shift step iterated in the
    monomial basis, O(j^3) additions, no Bell number anywhere."""
    desc = [1]
    for _ in range(j):
        desc = _taylor_step(desc)
    return tuple(reversed(desc))


def _memo_free_bell_shift(n, poly, tri):
    return sum(eval_poly(poly, k) * tri[n][k] for k in range(1, n + 1))


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


def test_recurrence_matches_the_taylor_shift_oracle():
    for j in [*range(0, 61), 250]:
        assert shift_poly_recursive(j) == _taylor_shift_poly(j)


def test_falling_factorial_coefficients_of_p5():
    c = [1]
    for _ in range(5):
        c = _tridiagonal_step(c)
    assert c == [52, 151, 160, 75, 15, 1]
    assert c[0] == BELL_SMALL[5]
    assert _falling_to_monomial(c) == (52, 75, 50, 20, 5, 1)


@given(c=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=10))
def test_tridiagonal_step_is_the_paper_step(c):
    # One step in the falling-factorial basis, then the conversion, equals
    # P(x+1) + x * P(x) computed on monomial coefficients.
    poly = _falling_to_monomial(c)
    expected = tuple(reversed(_taylor_step(list(reversed(poly)))))
    assert _falling_to_monomial(_tridiagonal_step(c)) == expected


@given(c=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_newton_conversion_evaluates_like_the_falling_factorial_sum(c):
    poly = _falling_to_monomial(c)
    assert len(poly) == len(c)
    for x in range(-3, len(c) + 3):
        naive = sum(ci * prod(x - t for t in range(i)) for i, ci in enumerate(c))
        assert eval_poly(poly, x) == naive


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


# ------------------------------------------------------- bell_shift's memo


@pytest.mark.parametrize("order", ["n-outer", "j-outer"])
def test_memo_matches_oracle_on_interleaved_sweeps(stirling50, order):
    # criterion 2's (n, j) range, taken in both orders
    polys = [shift_poly_recursive(j) for j in range(16)]
    pairs = [(n, j) for n in range(1, 31) for j in range(16)]
    if order == "j-outer":
        pairs.sort(key=lambda nj: (nj[1], nj[0]))
    for n, j in pairs:
        assert bell_shift(n, j, stirling50, polys[j]) == _memo_free_bell_shift(
            n, polys[j], stirling50
        )


def test_memo_matches_oracle_on_decreasing_n(stirling50):
    poly = shift_poly_recursive(9)
    for n in range(40, 0, -1):
        assert bell_shift(n, 9, stirling50, poly) == _memo_free_bell_shift(n, poly, stirling50)


def test_memo_reuses_equal_but_distinct_tuples(stirling50):
    poly = shift_poly_recursive(7)
    twin = tuple(list(poly))
    assert twin == poly and twin is not poly
    for n, p in ((10, poly), (20, twin), (5, poly), (25, twin)):
        assert bell_shift(n, 7, stirling50, p) == _memo_free_bell_shift(n, p, stirling50)


def test_memo_tells_apart_polynomials_of_one_length(stirling50):
    p4 = shift_poly_recursive(4)
    other = (1, 2, 3, 4, 5)
    for n in (3, 12, 12, 7, 30):
        for p in (p4, other):
            assert bell_shift(n, 4, stirling50, p) == _memo_free_bell_shift(n, p, stirling50)


def test_memo_sees_a_list_mutated_in_place(stirling50):
    coeffs = list(shift_poly_recursive(3))
    assert bell_shift(9, 3, stirling50, coeffs) == BELL_SMALL[12]
    coeffs[0] += 1
    assert bell_shift(10, 3, stirling50, coeffs) == _memo_free_bell_shift(10, coeffs, stirling50)
    coeffs[-1] = 7
    assert bell_shift(5, 3, stirling50, coeffs) == _memo_free_bell_shift(5, coeffs, stirling50)


def test_memo_is_keyed_on_the_triangles_depth(stirling50):
    # a cache keyed on the coefficients alone would keep P(1..5) from the
    # shallow triangle and cut the deep sum short
    poly = shift_poly_recursive(6)
    shallow = build_stirling(5)
    assert bell_shift(5, 6, shallow, poly) == _memo_free_bell_shift(5, poly, shallow)
    assert bell_shift(40, 6, stirling50, poly) == _memo_free_bell_shift(40, poly, stirling50)


def test_memo_under_threads_sweeping_different_polynomials(stirling50):
    polys = [shift_poly_recursive(j) for j in range(8)]
    polys += [tuple(c + i for c in p) for i, p in enumerate(polys, 1)]
    wrong: list[tuple[int, int]] = []

    def sweep(j, poly):
        for _ in range(3):
            for n in range(1, 41):
                expected = _memo_free_bell_shift(n, poly, stirling50)
                if bell_shift(n, j, stirling50, poly) != expected:
                    wrong.append((n, j))

    threads = [threading.Thread(target=sweep, args=(len(p) - 1, p)) for p in polys]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
