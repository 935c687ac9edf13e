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

One walk over RGS prefixes, each with its block count t beside it, as
Knuth's Algorithm H (TAOCP 7.2.1.5) keeps the running maximum, serves
both the stream and the tally by block count.  It runs the prefix's last
entry through its values in one inner loop, backtracking only when that
entry is exhausted.  The stream walks prefixes of length n-1 and appends
the string's last entry to one tuple per prefix.  The tally walks
prefixes of length n-2 and finishes their last two positions from a
table indexed by t: it writes each string as one byte, its block count
less one, so a prefix's strings are one row of bytes.  It joins the
rows of 256 prefixes at a time and counts every block count in them
with ``bytes.count``.  So it reads every string once, without building
or scanning it, and holds one chunk of bytes, not B_n.  It does not add
a whole prefix's strings at once: that is the Stirling recurrence,
which the tally is there to check.

Translation orbits do not go through the enumeration.  A necklace-style
walk (as in Ruskey, Savage and Wang, "Generating necklaces", 1992)
extends only the RGS prefixes that can still be the least member of
their orbit, comparing each rotation after its canonical relabelling,
so it meets each orbit once, at its least member, yields it as a
(representative, size) pair and remembers nothing: at n = 11 it keeps
117,989 prefixes for 61,690 orbits, against B_11 = 678,570 strings.
One tie test, run at each new position, keeps the rotations that still
tie with the string.  The last position runs all its labels in one
loop, as the prefix walk does, and at each full string the test runs on
through the wrap-around; the least rotation that comes full circle
gives the orbit's size.  One table holds each label's latest position
in the prefix: a descent links the entry it overwrites (``prev``) and a
return writes it back.  The wrap-around reads the same links, so no
depth and no leaf copies the table.

Enumeration refuses ground sets above a configurable cap (default 12,
about 4.2 million partitions) so that full orbit decompositions stay at
desk scale, and above the fixed ceiling ``MAX_GROUND_SET`` = 256.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from operator import itemgetter

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
# no cap lifts it: _prefix_walk (a, b) and _orbit_reps (s, used, prev, tied,
# last) allocate lists of length n before they yield, so under a raised cap
# a huge n would allocate, not refuse; count_by_blocks's rows, about n**3 / 3
# bytes, are built before its walk
MAX_GROUND_SET = 256
# prefixes whose strings count_by_blocks joins into one chunk of bytes
_CHUNK = 256


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
        if _canonical(rgs) != rgs:
            raise ValueError(f"rgs is not canonical: {rgs}")
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
    prefix (its last entry is scratch), and ``top``, the prefix's block
    count, which is also the largest value the last entry may take.  The
    walk rewrites ``a`` when resumed, so a caller that keeps a prefix
    copies it first.

    The prefix's last entry, at position n-2, runs through 0..b[n-2] in
    one inner loop; the value b[n-2] opens a block, so its prefix has one
    more.  Only when that position is exhausted does the walk backtrack,
    as Algorithm H does, to the rightmost earlier position below its bound.

    ``count_by_blocks`` passes one less than its string length, so each
    prefix it gets stops two positions short of a string, and it finishes
    the prefix from a table by ``top``; at n = 1 the empty prefix has
    ``top`` 0.
    """
    a = [0] * n  # current string
    b = [1] * n  # largest value a[i] may take: 1 + max(a[:i]), and 0 for i = 0
    b[0] = 0
    if n == 1:
        yield a, 0
        return
    j = n - 2
    while True:
        bj = b[j]
        for v in range(bj + 1):
            a[j] = v
            yield a, bj + (v == bj)
        i = j - 1
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
    built string.  Each string becomes one byte, its block count less
    one (so every n up to ``MAX_GROUND_SET`` fits).  One position short,
    under t blocks, the t strings whose last entry lies below t have t
    blocks and the one ending in t has t + 1: ``tails[t]`` holds their
    t + 1 bytes.  The walk stops two positions short, at prefixes of
    length n-2, and the same rule one level deeper gives ``rows[t]``,
    the bytes of every string under a prefix with t blocks: t copies of
    ``tails[t]``, for the next entry below t, and ``tails[t + 1]`` for
    the entry t that opens a block.  The rows of ``_CHUNK`` prefixes at
    a time are joined, and ``bytes.count`` reads every byte, so the tally
    still counts string by string, as Algorithm H (TAOCP 7.2.1.5) visits
    each.  Adding t and 1 once per prefix would be the Stirling recurrence
    {n brace k} = k {n-1 brace k} + {n-1 brace k-1} itself, and the count
    would no longer check it independently.  Memory stays the rows and
    one chunk, at most ``_CHUNK * n * n`` bytes, not B_n.
    """
    _check_cap(n, cap)
    if n == 1:
        return (1,)
    tails = [bytes(t * [t - 1] + [t]) for t in range(n)]
    rows = [tails[t] * t + tails[t + 1] for t in range(n - 1)]
    tops = map(itemgetter(1), _prefix_walk(n - 1))
    counts = [0] * n  # counts[k]: strings with k + 1 blocks
    while chunk := b"".join(map(rows.__getitem__, islice(tops, _CHUNK))):
        for k in range(n):
            counts[k] += chunk.count(k)
    return tuple(counts)


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
    canonical relabelling of s[q..i] still ties with s[0..i-q].  One test
    decides whether position x, holding label v, keeps each tied start q:
    while q ties, its relabelling maps s[x] to s[x-q], so the label it
    gives v is s[j-q] when the latest earlier position j holding v lies
    at or past q, and the next fresh label otherwise.  A label below
    s[x-q] cuts the prefix, since every completion has a smaller
    rotation; a label above it drops q.  The descent runs the test at
    x = i with the label v it tries, adds start i, stores that j as
    ``prev[i]`` and sets ``last[v] = i``; each return to depth i sets
    ``last[s[i]] = prev[i]``, so one table serves every depth.

    The last position, depth n-1, is one loop over its labels.  Each
    label that passes the test gives a full string, and the same test
    runs on through the wrap-around, at x = n + y with the label s[y],
    adding no start: once the least start has come full circle it ties
    all the way round and is the orbit size, and a string whose starts
    all drop has an orbit of full size n.  The wrap-around writes no
    ``last``: the latest position before n + y holding s[y] is
    ``prev[y]`` moved on by n when s[y] occurs before y, else n-1 when
    s[y] is the leaf's own label, else the prefix's ``last`` of s[y].
    Nothing is remembered between leaves.
    """
    if n == 1:
        yield (0,), 1
        return
    s = [-1] * n  # s[i]: the label tried last at depth i; s[0] is fixed
    s[0] = 0
    used = [1] * n  # used[x]: number of labels in s[0..x]
    prev = [-1] * n  # prev[i]: latest position < i holding s[i], or -1
    last = [0] + [-1] * n  # last[v]: latest position < i holding v
    tied = [[]] * n  # tied[i]: the starts q tied over s[q..i-1]
    # a descent replaces rows of tied and never writes into one
    leaf = n - 1
    i = 1
    while i:
        top = used[i - 1]
        if i == leaf:  # every label of the last position, each with its wrap-around
            starts = tied[i]
            for v in range(top + 1):
                j = last[v]
                keep = []
                for q in starts:
                    label = s[j - q] if j >= q else used[i - 1 - q]
                    if label < (c := s[i - q]):
                        break
                    if label == c:
                        keep.append(q)
                else:
                    s[i] = v
                    keep.append(i)
                    y = 0  # the wrap-around: position x = n + y holds s[y]
                    while True:
                        x = n + y
                        # the latest position before x holding s[y]
                        j = n + prev[y] if prev[y] >= 0 else i if s[y] == v else last[s[y]]
                        y += 1
                        still = []
                        for q in keep:
                            label = s[j - q] if j >= q else used[x - 1 - q]
                            if label < (c := s[x - q]):
                                break
                            if label == c:
                                still.append(q)
                        else:
                            keep = still
                            if not keep:
                                yield tuple(s), n
                            elif keep[0] > y:
                                continue
                            else:
                                yield tuple(s), keep[0]
                        break
            i -= 1
            last[s[i]] = prev[i]
            continue
        v = s[i] + 1
        if v > top:
            i -= 1
            last[s[i]] = prev[i]
            continue
        s[i] = v
        used[i] = top + (v == top)
        j = last[v]
        keep = []
        for q in tied[i]:
            label = s[j - q] if j >= q else used[i - 1 - q]
            if label < (c := s[i - q]):
                break
            if label == c:
                keep.append(q)
        else:
            keep.append(i)
            prev[i] = j
            last[v] = i
            i += 1
            tied[i] = keep
            s[i] = -1


def orbit_decomposition(
    modulus: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Decompose all partitions of Z/(modulus)Z into translation orbits.

    Checks its arguments, then lazily yields one (representative, size)
    pair per orbit: the RGS tuple of the orbit's least member, in order
    of those members, and its size, which divides the modulus (sizes sum
    to B_modulus).  The pruned walk ``_orbit_reps`` behind it keeps
    117,989 RGS prefixes (the root and 94,502 full strings included) for
    the 61,690 orbits at modulus 11, where a plain enumeration meets all
    B_11 = 678,570 strings.
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
