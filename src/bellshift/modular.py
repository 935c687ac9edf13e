"""Bell numbers modulo a prime.

Everything mod-p in one place:

* reduction of the shift polynomial P_{p^m} to the two-term form
  constant + k (mod p), which works because every interior entry of
  Pascal row p^m is divisible by p and k^{p^m} = k mod p;
* the residue identity B_{p^m} = m+1 (mod p);
* Touchard's congruence B_{n+p^m} = m*B_n + B_{n+1} (mod p), swept over
  a range of n with every mismatch reported;
* a lazy stream of B_n mod p, which seeds itself with B_0..B_{p-1}
  from Aitken's Bell triangle reduced mod p as it is built, and jumps
  q = p^m residues at a time by the same congruence.  The jump needs
  nothing past the m = 1 case, B_{n+p} = B_n + B_{n+1}: that recurrence
  says B_n = L(x^n) for a linear map L on F_p[x] that vanishes on every
  multiple of x^p - x - 1, so in F_p[x]/(x^p - x - 1), where x^p = x + 1,
  the Frobenius map gives
  x^{p^m} = (x + 1)^{p^{m-1}} = x^{p^{m-1}} + 1 = ... = x + m, and
  B_{n+q} = L(x^n (x + m)) = m*B_n + B_{n+1}.  So the q - 1 residues
  after a window of the last q read only that window, and a block of
  them is built in a few C-level passes over byte lanes.  The stream
  holds its window and the block being built, q at most a fixed 4096
  (or p, if p^2 is larger): its memory is O(p + block) however far it
  runs.

Residue arithmetic is word-sized: exact big integers are reduced once at
the boundary, and p is bounded so p*p fits a machine word.  Primality of
p is checked by trial division at PrimePower construction, since a
composite p would silently invalidate every congruence downstream.

``PrimePower`` is a frozen value class, checked once in ``__init__``;
equality, hashing and ``repr`` go by its fields.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from itertools import accumulate, chain
from math import comb

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
    """Yield B_0..B_{n_max} mod p, p^m residues at a time by Touchard's
    congruence B_{n+p^m} = m*B_n + B_{n+1} (mod p).

    The seeds B_0..B_{p-1} mod p come from Aitken's Bell triangle reduced
    mod p as it is built, O(p^2) word-sized additions.  The arguments are
    checked when the function is called, before any residue is asked for,
    and no residue is computed before the first ``next()``.  The stream
    is lazy: it holds the last q residues and the block being built, for
    q = p^m the largest power of p at most ``_BLOCK`` = 4096 (q = p when
    p^2 is larger), so its memory is O(p + block), not O(n_max).

    Nothing here bounds the seed triangle: near the top of the word-sized
    primes its O(p^2) steps take hours, so a caller taking p from outside
    should bound p - 1 first, as ``bell-mod`` does with ``--depth``.
    """
    return chain.from_iterable(_residue_blocks(p, n_max))


def _residue_blocks(p: int, n_max: int) -> Iterator[memoryview]:
    """``bell_mod_p_stream`` in blocks: each a ``memoryview`` of the next
    residues, one per lane of ``itemsize`` bytes in native byte order.
    The arguments are checked here, at the call."""
    PrimePower(p, 1)
    _check_ints(n_max=n_max)
    if n_max < p - 1:
        raise ValueError(f"n_max must be >= p-1 = {p - 1} to cover the seed window")
    return _blocks(p, n_max)


# the largest window the stream jumps from: enough residues per jump that
# its C-level passes carry the run, few enough that the window stays small
_BLOCK = 4096


def _blocks(p: int, n_max: int) -> Iterator[memoryview]:
    # A lane is 1, 2, 4 or 8 bytes wide, the least that holds 2^(8w-1) >= p:
    # a lane sum of two residues then stays below 2^(8w), and its top bit
    # tells whether it reached p (see _jump_by).
    w = next(w for w in (1, 2, 4, 8) if p <= 1 << (8 * w - 1))
    lanes = {1: "B", 2: "H", 4: "I", 8: "Q"}[w]  # the memoryview format of a lane
    # the seeds: row n of Aitken's triangle (see exact.build_bell_binomial)
    # starts with B_n, and a row of at most p residues sums below p*p
    seeds, row = [1], [1]
    for _ in range(p - 1):
        row = [a % p for a in accumulate(row, initial=row[-1])]
        seeds.append(row[0])
    window = b"".join(r.to_bytes(w, sys.byteorder) for r in seeds)
    left = n_max + 1 - p
    yield memoryview(window).cast(lanes)
    # The window grows from p residues to p^2, ...: while it holds all
    # p^m residues so far, it and the p - 1 blocks after it are the first
    # p^(m+1).  They are kept only while the window may still grow, so past
    # the growth the stream holds one window.
    m, run = 1, [window] if p * p <= _BLOCK else None
    jump = _jump_by(p, w, m)
    while left > 0:
        window = jump(window)
        yield memoryview(window)[: left * w].cast(lanes)
        left -= p**m
        if run is not None:
            run.append(window)
            if len(run) == p:
                window, m = b"".join(run), m + 1
                run = [window] if p ** (m + 1) <= _BLOCK else None
                jump = _jump_by(p, w, m)


def _jump_by(p: int, w: int, m: int) -> Callable[[bytes], bytes]:
    """The step from a window W of the last q = p^m residues, in lanes
    of ``w`` bytes, to the next q, by B_{n+q} = m*B_n + B_{n+1} (see the
    module docstring for why it holds).

    New residue i < q - 1 is m*W[i] + W[i+1] mod p, from the window
    alone: the window is scaled lane by lane through a ``translate``
    table of m*r mod p, its q - 1 low lanes and its q - 1 high lanes are
    added as two big integers, and p is taken off each lane whose sum
    reached p, which its top bit shows once 2^(8w-1) - p is added to
    every lane.  The last, m*W[q-1] + new[0], is the one scalar term.
    m > 1 only when p^2 <= ``_BLOCK``, so a lane is then one byte; at
    m = 1 the table is the identity on every byte.
    """
    order, top = sys.byteorder, 8 * w - 1
    scale = bytes(m * r % p if r < p else r for r in range(256))
    ones = int.from_bytes((1).to_bytes(w, order) * (p**m - 1), order)
    bias = ((1 << top) - p) * ones

    def jump(window: bytes) -> bytes:
        s = int.from_bytes(window[:-w].translate(scale), order)
        s += int.from_bytes(window[w:], order)
        s -= ((s + bias) >> top & ones) * p
        new = s.to_bytes(len(window) - w, order)
        wrap = m * int.from_bytes(window[-w:], order) + int.from_bytes(new[:w], order)
        return new + (wrap % p).to_bytes(w, order)

    return jump
