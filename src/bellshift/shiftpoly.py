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

Coefficients are stored in ascending degree order: that is the natural
order both for Horner evaluation and for the Taylor shift that expands
P_j(x+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .exact import BellTable, BinomialTable, StirlingTriangle

__all__ = [
    "ShiftPolynomial",
    "shift_poly_closed",
    "shift_poly_recursive",
    "eval_poly",
    "bell_shift",
]


@dataclass(frozen=True)
class ShiftPolynomial:
    """Coefficients of P_j in ascending degree order; coeffs[r] multiplies x^r.

    Always monic of degree exactly j (the top coefficient is B_0 = 1),
    with constant term B_j.
    """

    j: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError("shift j must be >= 0")
        if len(self.coeffs) != self.j + 1:
            raise ValueError(
                f"expected {self.j + 1} coefficients for shift {self.j}, "
                f"got {len(self.coeffs)}"
            )


def shift_poly_closed(j: int, bell: BellTable, binom: BinomialTable) -> ShiftPolynomial:
    """P_j from the closed form: coefficient of x^r is B_{j-r} * C(j, r)."""
    if j < 0:
        raise ValueError("shift j must be >= 0")
    if bell.max_index < j:
        raise ValueError(f"Bell table too shallow: need index {j}, have {bell.max_index}")
    if binom.max_row < j:
        raise ValueError(f"Pascal table too shallow: need row {j}, have {binom.max_row}")
    row = binom.rows[j]
    return ShiftPolynomial(
        j, tuple(bell.values[j - r] * row[r] for r in range(j + 1))
    )


def shift_poly_recursive(j: int) -> ShiftPolynomial:
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
    return ShiftPolynomial(j, tuple(reversed(desc)))


def eval_poly(poly: ShiftPolynomial, x: int) -> int:
    """Exact Horner evaluation of ``poly`` at the integer ``x``."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def bell_shift(n: int, j: int, tri: StirlingTriangle, poly: ShiftPolynomial) -> int:
    """B_{n+j} via sum_{k=1}^{n} P_j(k) * {n brace k}.

    ``poly`` must be the shift polynomial for this ``j``; the Stirling
    triangle must reach row ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if poly.j != j:
        raise ValueError(f"polynomial is for shift {poly.j}, not {j}")
    if tri.max_row < n:
        raise ValueError(f"Stirling triangle too shallow: need row {n}, have {tri.max_row}")
    row = tri.rows[n]
    return sum(eval_poly(poly, k) * row[k] for k in range(1, n + 1))
