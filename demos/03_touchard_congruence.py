"""Bell numbers mod p: the two-term collapse and Touchard's congruence.

Mod a prime p, the shift polynomial P_{p^m} loses every interior term:
p divides C(p^m, r) for 0 < r < p^m, and k^{p^m} = k mod p by Fermat.
What is left is P_{p^m}(k) = B_{p^m} + k, and B_{p^m} itself reduces to
m + 1.  Feeding the collapsed polynomial back through the shift identity
gives Touchard's congruence

    B_{n+p^m} = m * B_n + B_{n+1}  (mod p)

whose m = 1 case is a linear recurrence that streams B_n mod p without
ever touching a big integer.
"""

from bellshift import (
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    build_bell_binomial,
    build_binomials,
    binomial_vanishing_check,
    reduce_shift_poly,
    touchard_check,
)

bell = build_bell_binomial(300)
binom = build_binomials(130)

print("Interior Pascal-row divisibility, the engine of the collapse:")
for p, m in [(2, 3), (3, 2), (5, 1), (11, 2)]:
    pp = PrimePower(p, m)
    print(f"  all C({pp.value}, r) = 0 mod {p} for 0 < r < {pp.value}: "
          f"{binomial_vanishing_check(pp, binom)}")

print("\nCollapsed polynomials P_{p^m}(k) = constant + k mod p:")
for p, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]:
    pp = PrimePower(p, m)
    constant = reduce_shift_poly(pp, bell)
    predicted = bell_prime_power_residue(pp)
    print(f"  p={p} m={m}: constant {constant}, predicted (m+1) mod p = {predicted}")

print("\nTouchard sweeps, n in [1, 100]:")
for p in (2, 3, 5, 7, 11, 13):
    report = touchard_check(PrimePower(p, 1), 1, 100, bell)
    print(f"  p={p}: checked {report.checked}, counterexamples "
          f"{len(report.counterexamples)}")

p = 7
seeds = tuple(b % p for b in bell[:p])
stream = bell_mod_p_stream(p, 50_000, seeds)
print(f"\nStreaming B_n mod {p} from seeds {seeds}:")
print(f"  first 20 residues: {stream[:20]}")
print(f"  B_50000 mod {p} = {stream[50_000]} (no big integer was built)")
