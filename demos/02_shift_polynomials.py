"""Shift polynomials: one polynomial family that moves Bell numbers.

P_j has coefficients B_{j-r} * C(j, r), so P_0 = 1, P_1 = 1 + k, and
P_5 = 52 + 75k + 50k^2 + 20k^3 + 5k^4 + k^5.  Its defining property:

    B_{n+j} = sum over k of P_j(k) * {n, k}

which turns a j-step shift of the Bell sequence into a single weighted
row sum over the Stirling triangle.  The same polynomials also arise
from the recurrence P_{j+1}(x) = P_j(x+1) + x * P_j(x); both
constructions are implemented independently and agree coefficient by
coefficient.
"""

from bellshift import (
    bell_shift,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    eval_poly,
    shift_poly_closed,
    shift_poly_recursive,
)

bell = build_bell_binomial(40)
binom = build_binomials(10)

print("Coefficients (ascending) from the closed form:")
for j in range(6):
    print(f"  P_{j}: {list(shift_poly_closed(j, bell, binom))}")

print("\nSame family from the recurrence P_{j+1}(x) = P_j(x+1) + x P_j(x):")
for j in range(6):
    print(f"  P_{j}: {list(shift_poly_recursive(j))}")

p5 = shift_poly_recursive(5)
print(f"\nSpecial values: P_5(0) = {eval_poly(p5, 0)} = B_5, "
      f"P_5(1) = {eval_poly(p5, 1)} = B_6")

tri = build_stirling(12)
print("\nShifting the Bell sequence through the Stirling rows:")
for n, j in [(1, 0), (3, 2), (2, 5), (10, 5)]:
    poly = shift_poly_recursive(j)
    got = bell_shift(n, j, tri, poly)
    print(f"  sum_k P_{j}(k) {{{n}, k}} = {got}  (B_{n + j} = {bell[n + j]})")
