"""Bell numbers modulo a prime.

Everything mod-p in one place:

* reduction of the shift polynomial P_{p^m} to the two-term form
  constant + k (mod p), which works because every interior entry of
  Pascal row p^m is divisible by p and k^{p^m} = k mod p;
* the residue identity B_{p^m} = m+1 (mod p);
* Touchard's congruence B_{n+p^m} = m*B_n + B_{n+1} (mod p), swept over
  a range of n with every mismatch reported;
* a lazy stream of B_n mod p from the m = 1 case,
  B_{n+p} = B_n + B_{n+1} (mod p), which seeds itself with B_0..B_{p-1}
  from Aitken's Bell triangle reduced mod p as it is built; it extends
  a list of the last p residues a chunk at a time in C-level loops, so
  its memory is O(p) however far it runs.

Residue arithmetic is word-sized: exact big integers are reduced once at
the boundary, and p is bounded so p*p fits a machine word.  Primality of
p is checked by trial division at PrimePower construction, since a
composite p would silently invalidate every congruence downstream.

``PrimePower`` is a frozen value class, checked once in ``__init__``;
equality, hashing and ``repr`` go by its fields.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, islice
from math import comb
from operator import add

from .exact import _check_deep, _check_ints

__all__ = [
    "PrimePower",
    "is_prime",
    "reduce_shift_poly",
    "binomial_vanishing_check",
    "bell_prime_power_residue",
    "touchard_check",
    "bell_mod_p_stream",
]

# p*p must fit in a signed 64-bit word
_MAX_PRIME = 3_037_000_499


class _Frozen:
    """Base of the frozen value classes: the fields are the ``__slots__``,
    set here after the subclass's checks.  Equality, hashing, ``repr`` and
    pickling go by the field tuple, as for a frozen dataclass, and a copy
    is rebuilt through the checks."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


def is_prime(n: int) -> bool:
    """Trial-division primality test for machine-word-sized n."""
    _check_ints(n=n)
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


class PrimePower(_Frozen):
    """A prime power p^m, p prime (verified) and m >= 1, both ints, not bools."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int) -> None:
        _check_ints(p=p, m=m)
        if p > _MAX_PRIME:
            raise ValueError(f"p={p} too large: p*p must fit a machine word")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError("exponent m must be >= 1")
        super().__init__(p, m)

    @property
    def value(self) -> int:
        return self.p**self.m


def reduce_shift_poly(pp: PrimePower, bell: tuple[int, ...]) -> int:
    """Collapse P_{p^m} mod p to its two surviving terms and return the
    constant, the residue of B_{p^m}; the k-coefficient is 1.

    All interior coefficients B_{p^m - r} * C(p^m, r) vanish mod p
    because p divides C(p^m, r) for 0 < r < p^m (for p = 2 this holds at
    every exponent as well; rows 4 and 8 have all-even interiors), and
    the top term k^{p^m} reduces to k by Fermat.  What survives is the
    constant B_{p^m} mod p plus k.
    """
    _check_deep(bell, pp.value, "Bell table")
    return bell[pp.value] % pp.p


def binomial_vanishing_check(pp: PrimePower) -> bool:
    """True iff C(p^m, r) = 0 mod p for every 0 < r < p^m, read from
    ``math.comb``.

    This is the divisibility fact behind the two-term reduction; the
    predicate is exposed so tests can verify it directly for every prime
    power in range, including all powers of 2.
    """
    n = pp.value
    return all(comb(n, r) % pp.p == 0 for r in range(1, n))


def bell_prime_power_residue(pp: PrimePower) -> int:
    """The residue of B_{p^m} mod p, namely (m + 1) mod p.

    This is what counting translation-fixed partitions of Z/p^m Z
    predicts: exactly m+1 partitions are fixed (one per block size p^j),
    and every other orbit has size a multiple of p.
    """
    return (pp.m + 1) % pp.p


def touchard_check(
    pp: PrimePower, n_lo: int, n_hi: int, bell: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """Sweep B_{n+p^m} = m*B_n + B_{n+1} (mod p) over n in [n_lo, n_hi].

    Return the counterexamples as (n, lhs residue, rhs residue) triples in
    order of n; the tuple is empty when the congruence holds.
    """
    _check_ints(n_lo=n_lo, n_hi=n_hi)
    if n_lo < 1:
        raise ValueError("n_lo must be >= 1")
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    _check_deep(bell, n_hi + pp.value, "Bell table")
    p, m, q = pp.p, pp.m, pp.value
    bad = []
    for n in range(n_lo, n_hi + 1):
        lhs = bell[n + q] % p
        rhs = (m * bell[n] + bell[n + 1]) % p
        if lhs != rhs:
            bad.append((n, lhs, rhs))
    return tuple(bad)


def bell_mod_p_stream(p: int, n_max: int) -> Iterator[int]:
    """Yield B_0..B_{n_max} mod p by the linear recurrence B_{n+p} = B_n + B_{n+1}.

    The seeds B_0..B_{p-1} mod p come from Aitken's Bell triangle reduced
    mod p as it is built, O(p^2) word-sized additions; everything past
    the seed window is one addition per residue, so the stream extends
    to large n_max at trivial cost.  The arguments are checked when the
    function is called, before any residue is asked for.  The stream is
    lazy: it computes ``_CHUNK`` = 256 residues at a time and holds only
    the last p residues plus one chunk, so its memory is O(p), not
    O(n_max).

    Nothing here bounds the seed triangle, which runs on the first
    ``next()``: near the top of the word-sized primes its O(p^2) steps
    take hours, so a caller taking p from outside should bound p - 1
    first, as ``bell-mod`` does with ``--depth``.
    """
    PrimePower(p, 1)
    _check_ints(n_max=n_max)
    if n_max < p - 1:
        raise ValueError(f"n_max must be >= p-1 = {p - 1} to cover the seed window")
    return _residues(p, n_max)


# residues per chunk: enough that the chunk step's C loops carry the run,
# few enough that the window plus one chunk stays small
_CHUNK = 256


def _residues(p: int, n_max: int) -> Iterator[int]:
    return chain.from_iterable(_chunks(p, n_max))


def _chunks(p: int, n_max: int) -> Iterator[list[int]]:
    # the seeds: row n of Aitken's triangle (see exact.build_bell_binomial)
    # starts with B_n, and a row of at most p residues sums below p*p
    window, row = [1], [1]
    for _ in range(p - 1):
        row = [a % p for a in accumulate(row, initial=row[-1])]
        window.append(row[0])
    yield window[:]  # a copy, since the window moves on
    mod = list(range(p)) * 2  # mod[a + b] == (a + b) % p for residues a, b
    for left in range(n_max + 1 - p, 0, -_CHUNK):
        yield _extend(window, mod, min(left, _CHUNK))


def _extend(window: list[int], mod: list[int], take: int) -> list[int]:
    """Advance ``window``, the last p residues B_{n-p}..B_{n-1}, by ``take``
    residues and return them, B_n..B_{n+take-1}."""
    p = len(window)
    # the i-th new residue B_m = B_{m-p} + B_{m-p+1} is window[i] +
    # window[i + 1].  A list iterator reads by index, so the two iterators
    # see what extend appends: each new B_m is read back p - 1 steps later.
    ahead = iter(window)
    next(ahead)
    pairs = map(add, iter(window), ahead)
    window.extend(islice(map(mod.__getitem__, pairs), take))
    new = window[p:]
    del window[:take]
    return new
