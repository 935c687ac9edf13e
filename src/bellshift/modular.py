"""Bell numbers modulo a prime.

Everything mod-p in one place:

* reduction of the shift polynomial P_{p^m} to the two-term form
  constant + k (mod p), which works because every interior entry of
  Pascal row p^m is divisible by p and k^{p^m} = k mod p;
* the residue identity B_{p^m} = m+1 (mod p);
* Touchard's congruence B_{n+p^m} = m*B_n + B_{n+1} (mod p), swept over
  a range of n with every mismatch reported;
* a fast streaming generator of B_n mod p from the m = 1 case,
  B_{n+p} = B_n + B_{n+1} (mod p), seeded from the exact table.

Residue arithmetic is word-sized: exact big integers are reduced once at
the boundary, and p is bounded so p*p fits a machine word.  Primality of
p is checked by trial division at PrimePower construction, since a
composite p would silently invalidate every congruence downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PrimePower",
    "CongruenceReport",
    "is_prime",
    "prime_powers_up_to",
    "reduce_shift_poly",
    "binomial_vanishing_check",
    "bell_prime_power_residue",
    "touchard_check",
    "bell_mod_p_stream",
]

# p*p must fit in a signed 64-bit word
_MAX_PRIME = 3_037_000_499


def is_prime(n: int) -> bool:
    """Trial-division primality test for machine-word-sized n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """A prime power p^m with p prime (verified) and m >= 1."""

    p: int
    m: int

    def __post_init__(self) -> None:
        if self.p > _MAX_PRIME:
            raise ValueError(f"p={self.p} too large: p*p must fit a machine word")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.m < 1:
            raise ValueError("exponent m must be >= 1")

    @property
    def value(self) -> int:
        return self.p**self.m


def prime_powers_up_to(bound: int) -> list[PrimePower]:
    """All prime powers p^m <= bound, sorted by value then by p."""
    out = []
    p = 2
    while p <= bound:
        if is_prime(p):
            m = 1
            while p**m <= bound:
                out.append(PrimePower(p, m))
                m += 1
        p += 1
    out.sort(key=lambda pp: (pp.value, pp.p))
    return out


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of sweeping a congruence over n in [n_lo, n_hi].

    Each counterexample is (n, lhs residue, rhs residue); the list is
    expected to stay empty.
    """

    pp: PrimePower
    n_lo: int
    n_hi: int
    checked: int
    counterexamples: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def reduce_shift_poly(pp: PrimePower, bell: tuple[int, ...]) -> int:
    """Collapse P_{p^m} mod p to its two surviving terms and return the
    constant, the residue of B_{p^m}; the k-coefficient is 1.

    All interior coefficients B_{p^m - r} * C(p^m, r) vanish mod p
    because p divides C(p^m, r) for 0 < r < p^m (for p = 2 this holds at
    every exponent as well; rows 4 and 8 have all-even interiors), and
    the top term k^{p^m} reduces to k by Fermat.  What survives is the
    constant B_{p^m} mod p plus k.
    """
    if len(bell) <= pp.value:
        raise ValueError(
            f"Bell table too shallow: need index {pp.value}, have {len(bell) - 1}"
        )
    return bell[pp.value] % pp.p


def binomial_vanishing_check(pp: PrimePower, binom: tuple[tuple[int, ...], ...]) -> bool:
    """True iff C(p^m, r) = 0 mod p for every 0 < r < p^m.

    This is the divisibility fact behind the two-term reduction; the
    predicate is exposed so tests can verify it directly for every prime
    power in range, including all powers of 2.
    """
    n = pp.value
    if len(binom) <= n:
        raise ValueError(f"Pascal table too shallow: need row {n}, have {len(binom) - 1}")
    row = binom[n]
    return all(row[r] % pp.p == 0 for r in range(1, n))


def bell_prime_power_residue(pp: PrimePower) -> int:
    """The residue of B_{p^m} mod p, namely (m + 1) mod p.

    This is what counting translation-fixed partitions of Z/p^m Z
    predicts: exactly m+1 partitions are fixed (one per block size p^j),
    and every other orbit has size a multiple of p.
    """
    return (pp.m + 1) % pp.p


def touchard_check(
    pp: PrimePower, n_lo: int, n_hi: int, bell: tuple[int, ...]
) -> CongruenceReport:
    """Sweep B_{n+p^m} = m*B_n + B_{n+1} (mod p) over n in [n_lo, n_hi]."""
    if n_lo < 1:
        raise ValueError("n_lo must be >= 1")
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    if len(bell) <= n_hi + pp.value:
        raise ValueError(
            f"Bell table too shallow: need index {n_hi + pp.value}, have {len(bell) - 1}"
        )
    p, m, q = pp.p, pp.m, pp.value
    bad = []
    for n in range(n_lo, n_hi + 1):
        lhs = bell[n + q] % p
        rhs = (m * bell[n] + bell[n + 1]) % p
        if lhs != rhs:
            bad.append((n, lhs, rhs))
    return CongruenceReport(pp, n_lo, n_hi, n_hi - n_lo + 1, tuple(bad))


def bell_mod_p_stream(p: int, n_max: int, seeds: list[int] | tuple[int, ...]) -> list[int]:
    """B_0..B_{n_max} mod p by the linear recurrence B_{n+p} = B_n + B_{n+1}.

    ``seeds`` must be B_0..B_{p-1} reduced mod p, computed once from an
    exact table; everything past the seed window is word-sized modular
    arithmetic, so the stream extends to large n_max at trivial cost.
    """
    if p > _MAX_PRIME or not is_prime(p):
        raise ValueError(f"p={p} is not a machine-word-sized prime")
    if len(seeds) != p:
        raise ValueError(f"need exactly {p} seeds (B_0..B_{p - 1} mod p), got {len(seeds)}")
    if n_max < p - 1:
        raise ValueError(f"n_max must be >= p-1 = {p - 1}")
    if any(not 0 <= s < p for s in seeds):
        raise ValueError("seeds must be residues in [0, p)")
    out = list(seeds)
    for n in range(p, n_max + 1):
        out.append((out[n - p] + out[n - p + 1]) % p)
    return out
