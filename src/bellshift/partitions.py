"""Brute-force set-partition engine and the translation action on Z/nZ.

This is the ground-truth side of the package: partitions of {0,...,n-1}
are enumerated exhaustively, counted by block count, and acted on by the
cyclic translations x -> x+y mod n.  Exact-table code is tested against
these enumerations, never the other way round.

A partition is stored canonically as a restricted growth string (RGS):
``rgs[i]`` is the block label of element i, labels are assigned in order
of first appearance, so ``rgs[0] == 0`` and each entry exceeds the
running maximum by at most one.  One partition, one string; equality and
hashing come for free.

Enumeration refuses ground sets above a configurable cap (default 12,
about 4.2 million partitions) so that full orbit decompositions stay at
desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .modular import PrimePower

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "SetPartition",
    "TranslationAction",
    "OrbitSummary",
    "enumerate_partitions",
    "count_by_blocks",
    "apply_shift",
    "orbit_decomposition",
    "fixed_partitions",
    "congruence_class_partition",
]

DEFAULT_ENUMERATION_CAP = 12


def _canonical(labels: Iterable[int]) -> tuple[int, ...]:
    """Relabel blocks in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for v in labels:
        t = mapping.get(v)
        if t is None:
            t = len(mapping)
            mapping[v] = t
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0,...,n-1} in canonical RGS form."""

    n: int
    rgs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        if len(self.rgs) != self.n:
            raise ValueError(f"rgs has length {len(self.rgs)}, expected {self.n}")
        top = 0
        for i, v in enumerate(self.rgs):
            if v < 0 or v > top:
                raise ValueError(f"rgs is not canonical at position {i}: {self.rgs}")
            if v == top:
                top += 1

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> SetPartition:
        """Build from explicit blocks, which must partition {0,...,n-1}."""
        labels: dict[int, int] = {}
        for b, block in enumerate(blocks):
            for x in block:
                if x in labels:
                    raise ValueError(f"element {x} appears in two blocks")
                labels[x] = b
        n = len(labels)
        if n == 0 or set(labels) != set(range(n)):
            raise ValueError("blocks must cover {0,...,n-1} exactly")
        return cls(n, _canonical(labels[i] for i in range(n)))

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks in order of their smallest element."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, v in enumerate(self.rgs):
            out[v].append(i)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())


@dataclass(frozen=True)
class TranslationAction:
    """The translation x -> x + shift mod modulus, applied element-wise."""

    modulus: int
    shift: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.shift < self.modulus:
            raise ValueError(f"shift must lie in [0, {self.modulus})")


@dataclass(frozen=True)
class OrbitSummary:
    """One orbit of the translation action: lexicographically least member
    and orbit size; the orbit is a fixed point exactly when its size is 1."""

    representative: SetPartition
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("orbit size must be >= 1")


def _check_cap(n: int, cap: int) -> None:
    if cap < 1:
        raise ValueError("enumeration cap must be >= 1")
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap of {cap}")


def _rgs_stream(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical RGS of length n in lexicographic order."""
    if n == 1:
        yield (0,)
        return
    a = [0] * n  # current string
    b = [1] * n  # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        yield tuple(a)
        i = n - 1
        while a[i] == b[i]:
            i -= 1
            if i == 0:
                return
        a[i] += 1
        v = b[i] if a[i] < b[i] else a[i] + 1
        for k in range(i + 1, n):
            a[k] = 0
            b[k] = v


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[SetPartition]:
    """Yield every partition of {0,...,n-1} exactly once, in lexicographic
    RGS order.  The total number yielded is the Bell number B_n."""
    _check_cap(n, cap)
    for rgs in _rgs_stream(n):
        yield SetPartition(n, rgs)


def count_by_blocks(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, ...]:
    """Tally enumerated partitions by block count.

    Entry i of the result is the number of partitions with exactly i+1
    blocks, i.e. the brute-force value of {n brace i+1}.
    """
    _check_cap(n, cap)
    counts = [0] * n
    for rgs in _rgs_stream(n):
        counts[max(rgs)] += 1
    return tuple(counts)


def _shift_rgs(rgs: tuple[int, ...], y: int, n: int) -> tuple[int, ...]:
    """Canonical RGS of the image partition under x -> x + y mod n."""
    y %= n
    if y == 0:
        return rgs
    # element (x + y) inherits the old label of x, i.e. rotate right by y
    return _canonical(rgs[-y:] + rgs[:-y])


def apply_shift(part: SetPartition, act: TranslationAction) -> SetPartition:
    """Apply the translation element-wise and recanonicalize."""
    if part.n != act.modulus:
        raise ValueError(
            f"partition of a {part.n}-set under a mod-{act.modulus} translation"
        )
    return SetPartition(part.n, _shift_rgs(part.rgs, act.shift, part.n))


def orbit_decomposition(
    modulus: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[OrbitSummary, ...]:
    """Decompose all partitions of Z/(modulus)Z into translation orbits.

    Walks each orbit under the generator shift y = 1, which reaches the
    whole cyclic orbit; canonical forms live in a hash-keyed index, so
    membership tests are O(1).  Orbit sizes always sum to B_modulus, and
    each size divides the modulus.
    """
    _check_cap(modulus, cap)
    seen: set[tuple[int, ...]] = set()
    out = []
    for rgs in _rgs_stream(modulus):
        if rgs in seen:
            continue
        orbit = [rgs]
        cur = _shift_rgs(rgs, 1, modulus)
        while cur != rgs:
            orbit.append(cur)
            cur = _shift_rgs(cur, 1, modulus)
        seen.update(orbit)
        size = len(orbit)
        out.append(OrbitSummary(SetPartition(modulus, rgs), size))
    return tuple(out)


def fixed_partitions(
    pp: PrimePower, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[SetPartition, ...]:
    """All partitions of Z/p^m Z fixed by every translation.

    Invariance is tested under the generator shift y = 1 only: a
    partition fixed by the generator is fixed by the whole cyclic group.
    Exactly m+1 partitions qualify, one per block size p^j.
    """
    n = pp.value
    _check_cap(n, cap)
    return tuple(
        SetPartition(n, rgs) for rgs in _rgs_stream(n) if _shift_rgs(rgs, 1, n) == rgs
    )


def congruence_class_partition(pp: PrimePower, j: int) -> SetPartition:
    """The partition of Z/p^m Z into residue classes mod p^(m-j).

    It has p^(m-j) blocks, each of size p^j; j = 0 gives singletons and
    j = m the one-block partition.
    """
    if not 0 <= j <= pp.m:
        raise ValueError(f"j must lie in [0, {pp.m}]")
    q = pp.p ** (pp.m - j)
    return SetPartition(pp.value, tuple(i % q for i in range(pp.value)))
