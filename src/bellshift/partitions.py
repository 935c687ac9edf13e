"""Brute-force set-partition engine and the translation action on Z/nZ.

This is the ground-truth side of the package: partitions of {0,...,n-1}
are enumerated exhaustively, counted by block count, and acted on by the
cyclic translations x -> x+y mod n.  Exact-table code is tested against
these enumerations, never the other way round.

A partition is stored canonically as a restricted growth string (RGS):
``rgs[i]`` is the block label of element i, labels are assigned in order
of first appearance, so ``rgs[0] == 0`` and each entry exceeds the
running maximum by at most one.  One partition, one string; equality and
hashing come for free.  The streams below yield these strings as plain
tuples; ``SetPartition`` is the checked, printable view of one, a frozen
value class whose one field is the string, and n is its length.

One walk over the prefixes of length n-1 serves both the stream and the
tally by block count.  It keeps each prefix's block count beside it, as
Knuth's Algorithm H (TAOCP 7.2.1.5) keeps the running maximum, so the
stream appends the last entry to one tuple per prefix, and the tally
adds one per string to the count that the last entry decides, without
building or scanning the string.  It does not add a whole prefix's
strings at once: that is the Stirling recurrence, which the tally is
there to check.

Translation orbits do not go through the enumeration.  A necklace-style
walk (as in Ruskey, Savage and Wang, "Generating necklaces", 1992)
extends only the RGS prefixes that can still be the least member of
their orbit, comparing each rotation after its canonical relabelling,
so it meets each orbit once, at its least member, yields it as a
(representative, size) pair and remembers nothing: at n = 11 it keeps
117,989 prefixes for 61,690 orbits, against B_11 = 678,570 strings.

Enumeration refuses ground sets above a configurable cap (default 12,
about 4.2 million partitions) so that full orbit decompositions stay at
desk scale, and above the fixed ceiling ``MAX_GROUND_SET`` = 256.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .exact import _check_ints
from .modular import PrimePower, _Frozen

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "SetPartition",
    "enumerate_partitions",
    "count_by_blocks",
    "apply_shift",
    "orbit_decomposition",
    "fixed_partitions",
    "congruence_class_partition",
]

DEFAULT_ENUMERATION_CAP = 12
# no cap lifts it: _prefix_walk and _orbit_reps allocate lists of length n
# before they yield, so under a raised cap a huge n would allocate, not refuse
MAX_GROUND_SET = 256


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


class SetPartition(_Frozen):
    """A partition of {0,...,n-1} in canonical RGS form; n is derived
    from the string, as ``len(rgs)``."""

    __slots__ = ("rgs",)

    def __init__(self, rgs: tuple[int, ...]) -> None:
        if not isinstance(rgs, tuple):
            raise TypeError(f"rgs must be a tuple, not {type(rgs).__name__}")
        if not rgs:
            raise ValueError("ground set must be nonempty")
        if not all(type(v) is int for v in rgs):
            raise TypeError(f"rgs labels must be of type int: {rgs}")
        top = 0
        for i, v in enumerate(rgs):
            if v < 0 or v > top:
                raise ValueError(f"rgs is not canonical at position {i}: {rgs}")
            if v == top:
                top += 1
        super().__init__(rgs)

    @property
    def n(self) -> int:
        return len(self.rgs)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks in order of their smallest element."""
        out: list[list[int]] = [[] for _ in range(max(self.rgs) + 1)]
        for i, v in enumerate(self.rgs):
            out[v].append(i)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())


def _check_cap(n: int, cap: int) -> None:
    _check_ints(n=n, cap=cap)
    if cap < 1:
        raise ValueError("enumeration cap must be >= 1")
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap of {cap}")
    if n > MAX_GROUND_SET:
        raise ValueError(
            f"n={n} exceeds {MAX_GROUND_SET}, the largest ground set the enumerator takes"
        )


def _prefix_walk(n: int) -> Iterator[tuple[list[int], int]]:
    """Every canonical RGS prefix of length n-1, in lexicographic order,
    with its block count.

    Each step yields the live list ``a``, whose first n-1 entries hold the
    prefix (its last entry is scratch), and ``top`` = ``b[-1]``, the
    prefix's block count, which is also the largest value the last entry
    may take.  The walk rewrites ``a`` when resumed, so a caller that
    keeps a prefix copies it first.
    """
    a = [0] * n  # current string
    b = [1] * n  # largest value a[i] may take: 1 + max(a[:i]), and 0 for i = 0
    b[0] = 0
    while True:
        yield a, b[-1]
        i = n - 2
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        v = b[i] if a[i] < b[i] else a[i] + 1
        for k in range(i + 1, n):
            a[k] = 0
            b[k] = v


def _rgs_stream(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical RGS of length n, as tuples, in lexicographic order.

    Each prefix of ``_prefix_walk`` is made a tuple once, and the last
    entry, which runs over 0..top, is appended to it, so a string costs
    one short concatenation.
    """
    last = [(v,) for v in range(n)]
    for a, top in _prefix_walk(n):
        head = tuple(a[:-1])
        for tail in last[: top + 1]:
            yield head + tail


def enumerate_partitions(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield the RGS of every partition of {0,...,n-1} exactly once, as a
    tuple, in lexicographic order.  The total number yielded is the Bell
    number B_n.  The arguments are checked when it is called."""
    _check_cap(n, cap)
    return _rgs_stream(n)


def count_by_blocks(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, ...]:
    """Tally enumerated partitions by block count.

    Entry i of the result is the number of partitions with exactly i+1
    blocks, i.e. the brute-force value of {n brace i+1}.

    Each string's block count is read off the prefix walk, not off a
    built string: under a prefix with ``top`` blocks, the ``top``
    strings whose last entry lies below ``top`` have ``top`` blocks and
    the one ending in ``top`` has ``top + 1``.  The tally still adds one
    per string, as Algorithm H (TAOCP 7.2.1.5) visits each; adding
    ``top`` and 1 once per prefix would be the Stirling recurrence
    {n brace k} = k {n-1 brace k} + {n-1 brace k-1} itself, and the
    count would no longer check it independently.
    """
    _check_cap(n, cap)
    counts = [0] * (n + 1)  # counts[k]: strings with k blocks
    for _, top in _prefix_walk(n):
        for _ in range(top):  # the last entry joins one of the top blocks
            counts[top] += 1
        counts[top + 1] += 1  # the last entry opens a block of its own
    return tuple(counts[1:])


def apply_shift(part: SetPartition, y: int) -> SetPartition:
    """The image of ``part`` under the translation x -> x + y mod n, where
    n = ``part.n``; any integer y is taken mod n.  Element x + y inherits
    the old label of x, so the string rotates right by y (by y = 0 it
    stays whole) and is then relabelled canonically."""
    _check_ints(y=y)
    y %= part.n
    return SetPartition(_canonical(part.rgs[-y:] + part.rgs[:-y]))


def _orbit_reps(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each translation orbit of the partitions of Z/nZ once, as its least
    RGS and its size, in lexicographic order of the representatives.

    A depth-first walk over RGS prefixes, children in increasing label
    order.  At depth i it keeps every rotation start q in [1, i] whose
    canonical relabelling of s[q..i] still ties with s[0..i-q].  While q
    ties, its relabelling maps s[x] to s[x-q], so the label it gives s[i]
    is s[j-q] when the latest earlier position j holding s[i] lies at or
    past q, and the next fresh label otherwise.  A label below s[i-q]
    cuts the prefix, since every completion has a smaller rotation; a
    label above it drops q.  At a leaf the tied starts run the same test
    on through the wrap-around (position x >= n holds s[x-n]); the first
    start to tie all the way round is the orbit size, and a string whose
    starts all drop has an orbit of full size n.  Nothing is remembered
    between leaves.
    """
    if n == 1:
        yield (0,), 1
        return
    s = [-1] * n  # s[i]: the label tried last at depth i; s[0] is fixed
    s[0] = 0
    used = [1] * n  # used[x]: number of labels in s[0..x]
    tied = [[]] * n  # tied[i]: the starts q tied over s[q..i-1]
    lasts = [[0] + [-1] * n] * n  # lasts[i][v]: latest position < i holding v
    # a descent replaces rows of tied and lasts and never writes into one
    i = 1
    while i:
        v = s[i] + 1
        top = used[i - 1]
        if v > top:
            i -= 1
            continue
        s[i] = v
        last = lasts[i]
        j = last[v]
        keep = []
        for q in tied[i]:
            label = s[j - q] if j >= q else used[i - 1 - q]
            if label < s[i - q]:
                break
            if label == s[i - q]:
                keep.append(q)
        else:
            used[i] = top + (v == top)
            keep.append(i)
            last = last[:]
            last[v] = i
            if i < n - 1:
                i += 1
                lasts[i] = last
                tied[i] = keep
                s[i] = -1
                continue
            x = n  # the leaf: the test above, on the wrapped positions
            while keep[0] > x - n:  # start keep[0] has not come full circle
                v = s[x - n]
                j = last[v]
                still = []
                for q in keep:
                    label = s[j - q] if j >= q else used[x - 1 - q]
                    if label < s[x - q]:
                        break
                    if label == s[x - q]:
                        still.append(q)
                else:
                    last[v] = x
                    x += 1
                    keep = still
                    if keep:
                        continue
                    yield tuple(s), n
                break
            else:
                yield tuple(s), keep[0]


def orbit_decomposition(
    modulus: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Decompose all partitions of Z/(modulus)Z into translation orbits.

    Checks its arguments, then lazily yields one (representative, size)
    pair per orbit: the RGS tuple of the orbit's least member, in order
    of those members, and its size, which divides the modulus (sizes sum
    to B_modulus).  The pruned walk ``_orbit_reps`` behind it keeps
    117,989 RGS prefixes (the root included) for the 61,690 orbits at
    modulus 11, where a plain enumeration meets all B_11 = 678,570 strings.
    """
    _check_cap(modulus, cap)
    return _orbit_reps(modulus)


def fixed_partitions(
    pp: PrimePower, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[SetPartition, ...]:
    """All partitions of Z/p^m Z fixed by every translation.

    These are the representatives of size 1 that ``orbit_decomposition``
    yields, after its check of ``cap`` (its walk keeps 5,116 prefixes at
    p^m = 9, against B_9 = 21,147 strings): a partition fixed by the
    generator shift y = 1 is fixed by the whole cyclic group.  Exactly
    m+1 partitions qualify, one per block size p^j, and only they are
    wrapped as ``SetPartition``.
    """
    orbits = orbit_decomposition(pp.value, cap)
    return tuple(SetPartition(rgs) for rgs, size in orbits if size == 1)


def congruence_class_partition(pp: PrimePower, j: int) -> SetPartition:
    """The partition of Z/p^m Z into residue classes mod p^(m-j).

    It has p^(m-j) blocks, each of size p^j; j = 0 gives singletons and
    j = m the one-block partition.
    """
    _check_ints(j=j)
    if not 0 <= j <= pp.m:
        raise ValueError(f"j must lie in [0, {pp.m}]")
    q = pp.p ** (pp.m - j)
    return SetPartition(tuple(i % q for i in range(pp.value)))
