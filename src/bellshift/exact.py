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
addition.  The Stirling triangle is streamed row by row by
``stirling_rows``, so a check that needs only row sums holds one row.
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
    n = 0..n_max via {n+1 brace k} = {n brace k-1} + k * {n brace k},
    holding only the current row.  ``n_max`` is checked at the call, not
    at the first ``next()``."""
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _stirling_rows(n_max)


def _stirling_rows(n_max: int) -> Iterator[tuple[int, ...]]:
    row: tuple[int, ...] = (1,)
    yield row
    for n in range(n_max):
        row = (0, *map(add, row, map(mul, range(1, n + 1), row[1:])), row[n])
        yield row


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
    O(n_max^2) big-integer additions and no multiplications; only the
    current row is kept besides the table.
    """
    _check_ints(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [1]
    row = [1]  # triangle row 0: A(0, 0) = B_0
    for _ in range(n_max):
        row = list(accumulate(row, initial=row[-1]))
        values.append(row[0])
    return tuple(values)
