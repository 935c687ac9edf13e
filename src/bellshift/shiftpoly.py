"""Shift polynomials for the shifted-Bell identity.

For every j >= 0 there is a degree-j polynomial P_j with

    B_{n+j} = sum_{k=1}^{n} P_j(k) * {n brace k}        (n >= 1)

and two independent ways to construct it:

* closed form: the coefficient of x^r is B_{j-r} * C(j, r), read off
  exact Bell and Pascal tables;
* recurrence: P_0(x) = 1 and P_{j+1}(x) = P_j(x+1) + x * P_j(x), iterated
  on coefficient sequences without consulting any Bell table.  The
  substitution x -> x+1 is the Ruffini/Horner Taylor shift, which uses
  additions only.

The two paths must agree coefficient by coefficient, which is what makes
each a meaningful check on the other.  j = 0 is admitted as the identity
shift (P_0 = 1) even though the identity is mainly of interest for j >= 1.

Both constructions return P_j as the plain tuple of its j + 1
coefficients in ascending degree order, so ``poly[r]`` multiplies x^r and
``len(poly) - 1`` is the shift j.  The polynomial is monic of degree
exactly j (the top coefficient is B_0 = 1) and its constant term is B_j.
Ascending order is the natural one for Horner evaluation; the Taylor
shift that expands P_j(x+1) works on a descending copy.
"""

from __future__ import annotations

from itertools import accumulate

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
    if j < 0:
        raise ValueError("shift j must be >= 0")
    if len(bell) <= j:
        raise ValueError(f"Bell table too shallow: need index {j}, have {len(bell) - 1}")
    if len(binom) <= j:
        raise ValueError(f"Pascal table too shallow: need row {j}, have {len(binom) - 1}")
    row = binom[j]
    return tuple(bell[j - r] * row[r] for r in range(j + 1))


def shift_poly_recursive(j: int) -> tuple[int, ...]:
    """P_j by iterating P_{j+1}(x) = P_j(x+1) + x * P_j(x) from P_0 = 1.

    P(x+1) is expanded by the Ruffini/Horner Taylor shift on the
    coefficients taken highest degree first: each pass replaces a prefix
    by its running sums, which is one synthetic division by (x - 1), and
    leaves the remainder, the next Taylor coefficient at 1, in the last
    place of the prefix; the prefix then shrinks by one.  After deg
    passes the coefficient of x^r is sum_{s>=r} c_s * C(s, r), the
    binomial expansion of P(x+1), reached with O(deg^2) additions and no
    binomial coefficients.  No Bell numbers enter anywhere, so the result
    is independent of the closed form.
    """
    if j < 0:
        raise ValueError("shift j must be >= 0")
    desc = [1]  # coefficients of P_0, highest degree first
    for _ in range(j):
        shifted = desc[:]
        for m in range(len(shifted), 1, -1):
            shifted[:m] = accumulate(shifted[:m])
        # P(x+1) + x * P(x)
        desc = [a + b for a, b in zip([0, *shifted], desc + [0])]
    return tuple(reversed(desc))


def eval_poly(poly: tuple[int, ...], x: int) -> int:
    """Exact Horner evaluation at the integer ``x`` of the polynomial whose
    ascending coefficients are ``poly``."""
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def bell_shift(
    n: int, j: int, tri: tuple[tuple[int, ...], ...], poly: tuple[int, ...]
) -> int:
    """B_{n+j} via sum_{k=1}^{n} P_j(k) * {n brace k}.

    ``poly`` must be the shift polynomial for this ``j``; the Stirling
    triangle must reach row ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < 0:
        raise ValueError("shift j must be >= 0")
    if len(poly) != j + 1:
        raise ValueError(f"polynomial is for shift {len(poly) - 1}, not {j}")
    if len(tri) <= n:
        raise ValueError(f"Stirling triangle too shallow: need row {n}, have {len(tri) - 1}")
    row = tri[n]
    return sum(eval_poly(poly, k) * row[k] for k in range(1, n + 1))
