"""Shift polynomials for the shifted-Bell identity.

For every j >= 0 there is a degree-j polynomial P_j with

    B_{n+j} = sum_{k=1}^{n} P_j(k) * {n brace k}        (n >= 1)

and two independent ways to construct it:

* closed form: the coefficient of x^r is B_{j-r} * C(j, r), read off
  exact Bell and Pascal tables;
* recurrence: P_0(x) = 1 and P_{j+1}(x) = P_j(x+1) + x * P_j(x), iterated
  on coefficient sequences without consulting any Bell table: a
  tridiagonal step in the falling-factorial basis (the Bell J-fraction),
  then one Newton-to-monomial conversion.

The two paths must agree coefficient by coefficient, which is what makes
each a meaningful check on the other.  j = 0 is admitted as the identity
shift (P_0 = 1) even though the identity is mainly of interest for j >= 1.

Both constructions return P_j as the plain tuple of its j + 1
coefficients in ascending degree order, so ``poly[r]`` multiplies x^r and
``len(poly) - 1`` is the shift j.  The polynomial is monic of degree
exactly j (the top coefficient is B_0 = 1) and its constant term is B_j.
Ascending order is the natural one for Horner evaluation.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .exact import _check_deep, _check_ints

__all__ = [
    "shift_poly_closed",
    "shift_poly_recursive",
    "eval_poly",
    "bell_shift",
]


def shift_poly_closed(
    j: int, bell: tuple[int, ...], binom: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """P_j from the closed form: coefficient of x^r is B_{j-r} * C(j, r)."""
    _check_ints(j=j)
    if j < 0:
        raise ValueError("shift j must be >= 0")
    _check_deep(bell, j, "Bell table")
    _check_deep(binom, j, "Pascal table")
    row = binom[j]
    return tuple(bell[j - r] * row[r] for r in range(j + 1))


def shift_poly_recursive(j: int) -> tuple[int, ...]:
    """P_j by iterating P_{j+1}(x) = P_j(x+1) + x * P_j(x) from P_0 = 1.

    In the falling-factorial basis (x)_i = x(x-1)...(x-i+1) the step is
    T (x)_i = (x)_{i+1} + (i+1) (x)_i + i (x)_{i-1}, so the coefficients c_k
    of P become c_{k-1} + (k+1) * (c_k + c_{k+1}): O(j) small multiples per
    step.  Horner on the factors (x - i) then expands the Newton form
    c_0 + x (c_1 + (x-1) (c_2 + ...)) once, in O(j^2).  Neither stage reads
    a Bell number or a binomial coefficient, so the result is independent
    of the closed form.
    """
    _check_ints(j=j)
    if j < 0:
        raise ValueError("shift j must be >= 0")
    c = [1]  # falling-factorial coefficients of P_0
    for _ in range(j):
        c = _tridiagonal_step(c)
    return _falling_to_monomial(c)


def _tridiagonal_step(c: list[int]) -> list[int]:
    """Falling-factorial coefficients of P(x+1) + x * P(x), given P's."""
    lo, mid, hi = [0, *c], c + [0], c[1:] + [0, 0]
    return [a + k * (b + d) for k, (a, b, d) in enumerate(zip(lo, mid, hi), 1)]


def _falling_to_monomial(c: list[int]) -> tuple[int, ...]:
    """Ascending monomial coefficients of sum_i c[i] * (x)_i."""
    poly: list[int] = []
    for i in range(len(c) - 1, -1, -1):  # poly * (x - i) + c[i]
        poly = [a - i * b for a, b in zip([c[i], *poly], poly + [0])]
    return tuple(poly)


def eval_poly(poly: tuple[int, ...], x: int) -> int:
    """Exact Horner evaluation at the integer ``x`` of the polynomial whose
    ascending coefficients are ``poly``."""
    _check_ints(x=x)
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=1)
def _values(poly: tuple[int, ...], k_max: int) -> tuple[int, ...]:
    """P(1), ..., P(k_max) for the polynomial with coefficients ``poly``."""
    return tuple(eval_poly(poly, k) for k in range(1, k_max + 1))


def bell_shift(
    n: int, j: int, tri: tuple[tuple[int, ...], ...], poly: tuple[int, ...]
) -> int:
    """B_{n+j} via sum_{k=1}^{n} P_j(k) * {n brace k}.

    ``poly`` must be the shift polynomial for this ``j``; the Stirling
    triangle must reach row ``n``.

    P_j is evaluated at 1, 2, ... up to the triangle's depth, once per
    polynomial and depth, so a sweep over n at a fixed ``poly`` evaluates
    each P_j(k) once.  The cache holds one polynomial, keyed by its
    coefficients' value, so a list mutated between calls is evaluated
    afresh.
    """
    _check_ints(n=n, j=j)
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < 0:
        raise ValueError("shift j must be >= 0")
    if len(poly) != j + 1:
        raise ValueError(f"polynomial is for shift {len(poly) - 1}, not {j}")
    _check_deep(tri, n, "Stirling triangle")
    values = _values(tuple(poly), len(tri) - 1)
    return sum(map(mul, values, tri[n][1 : n + 1]))
