"""Reference values and output checks, independent of bellshift.

Nothing here imports ``bellshift``: the Bell numbers come from Aitken's
triangle (each row starts with the last entry of the row above; each
entry adds its left neighbour and the entry above), not from the
library's binomial convolution or Stirling row sums.  Residues mod p are
read off those exact values for n < ``EXACT_RESIDUES`` and extended by
the recurrence B_{n+p} = B_n + B_{n+1} (mod p) past that.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import accumulate
from math import comb

EXACT_RESIDUES = 1000


class CheckFailed(Exception):
    pass


@cache
def bell(n_max: int) -> tuple[int, ...]:
    """B_0..B_{n_max} from Aitken's triangle."""
    row, out = [1], [1]
    for _ in range(n_max):
        row = list(accumulate(row, initial=row[-1]))
        out.append(row[0])
    return tuple(out)


def bell_at(n: int) -> int:
    return bell(max(n, EXACT_RESIDUES))[n]


@cache
def stirling(n_max: int) -> tuple[tuple[int, ...], ...]:
    """{n brace k} for k <= n <= n_max; every row sums to the Aitken B_n."""
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[-1] + (0,)
        rows.append((0,) + tuple(prev[k - 1] + k * prev[k] for k in range(1, n + 2)))
    if [sum(r) for r in rows] != list(bell(n_max)):
        raise AssertionError("reference Stirling rows disagree with Aitken's triangle")
    return tuple(rows)


@cache
def bell_mod(p: int, n_max: int) -> tuple[int, ...]:
    """B_0..B_{n_max} mod p."""
    exact = bell(EXACT_RESIDUES)
    out = [b % p for b in exact[: n_max + 1]]
    for n in range(len(out), n_max + 1):
        out.append((out[n - p] + out[n - p + 1]) % p)
    return tuple(out)


def congruence_partition(q: int, n: int) -> str:
    """Z/nZ split into its residue classes mod q, printed as ``{0,q,..}|{1,..}``."""
    return "|".join("{" + ",".join(map(str, range(i, n, q))) + "}" for i in range(q))


def rows(out: bytes, fields: tuple[str, ...], fmt: str = "tsv") -> list[tuple[str, ...]]:
    """The rows of a TSV or JSON-lines output, each value as its decimal text."""
    try:
        lines = out.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"output is not ASCII: {exc}")
    if lines[-1] != "":
        raise CheckFailed("output does not end in a newline")
    if fmt == "tsv":
        if lines[0] != "#" + "\t".join(fields):
            raise CheckFailed(f"header {lines[0]!r}")
        return [tuple(line.split("\t")) for line in lines[1:-1]]
    parsed = []
    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"line {len(parsed) + 1} is not JSON: {exc}")
        if tuple(obj) != fields:
            raise CheckFailed(f"line {len(parsed) + 1} has keys {list(obj)}")
        parsed.append(tuple(str(v) for v in obj.values()))
    return parsed


def same_rows(got: list[tuple[str, ...]], want) -> None:
    want = [tuple(map(str, row)) for row in want]
    if got == want:
        return
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise CheckFailed(f"row {i}: got {g}, want {w}")
    raise CheckFailed(f"{len(got)} rows, want {len(want)}")


def records(out: bytes, fmt: str = "tsv") -> dict[str, str]:
    got = rows(out, ("record", "value"), fmt)
    if any(len(r) != 2 for r in got):
        raise CheckFailed("a record row does not have two fields")
    return dict(got)


def expect(rec: dict[str, str], **want) -> None:
    for key, value in want.items():
        if rec.get(key) != str(value):
            raise CheckFailed(f"{key} = {rec.get(key)!r}, want {value}")


# One checker per op kind.  Each takes the op's stdout and raises
# CheckFailed on the first wrong value.


def check_bell(out: bytes, n_max: int) -> None:
    same_rows(rows(out, ("n", "bell")), enumerate(bell(n_max)))


def check_stirling(out: bytes, n_max: int) -> None:
    tri = stirling(n_max)
    want = ((n, k, tri[n][k]) for n in range(n_max + 1) for k in range(n + 1))
    same_rows(rows(out, ("n", "k", "value")), want)


def check_shift_poly(out: bytes, j: int) -> None:
    b = bell(j)
    want = ((r, c, c) for r, c in ((r, b[j - r] * comb(j, r)) for r in range(j + 1)))
    same_rows(rows(out, ("r", "closed", "recursive")), want)


def check_verify(out: bytes, p: int, m: int, n_hi: int) -> None:
    residue = (m + 1) % p
    if bell_at(p**m) % p != residue:
        raise AssertionError(f"reference B_{p**m} mod {p} is not {residue}")
    rec = records(out)
    expect(rec, p=p, m=m, prime_power=p**m, n_lo=1, n_hi=n_hi, checked=n_hi,
           counterexample_count=0, predicted_residue=residue, actual_residue=residue,
           status="ok")
    if list(rec) != ["p", "m", "prime_power", "n_lo", "n_hi", "checked",
                     "counterexample_count", "predicted_residue", "actual_residue", "status"]:
        raise CheckFailed(f"records {list(rec)}")


def check_orbits(out: bytes, p: int, m: int) -> None:
    n = p**m
    total = bell_at(n)
    rec = records(out)
    expect(rec, p=p, m=m, prime_power=n, total_partitions=total, fixed_count=m + 1,
           expected_fixed=m + 1, bell_residue=total % p, fixed_residue=(m + 1) % p,
           status="ok")
    sizes = {int(k[len("orbit_size_"):]): int(v) for k, v in rec.items()
             if k.startswith("orbit_size_")}
    if any(n % s for s in sizes) or sizes.get(1) != m + 1:
        raise CheckFailed(f"orbit sizes {sizes}")
    if sum(sizes.values()) != int(rec.get("orbit_count", -1)):
        raise CheckFailed("orbit sizes do not add up to orbit_count")
    if sum(s * c for s, c in sizes.items()) != total:
        raise CheckFailed("orbits do not cover every partition")
    if m == 1 and sizes != {1: 2, p: (total - 2) // p}:
        raise CheckFailed(f"orbit sizes {sizes} for a prime modulus")
    fixed = sorted(v for k, v in rec.items() if k.startswith("fixed_") and k[6:].isdigit())
    if fixed != sorted(congruence_partition(p ** (m - j), n) for j in range(m + 1)):
        raise CheckFailed(f"fixed partitions {fixed}")


def check_bell_mod(out: bytes, p: int, n_max: int, fmt: str) -> None:
    same_rows(rows(out, ("n", "residue"), fmt), enumerate(bell_mod(p, n_max)))


def check_bell_shift(out: bytes, n_max: int, j_max: int) -> None:
    b = bell(n_max + j_max)
    want = ((n, j, b[n + j]) for j in range(j_max + 1) for n in range(1, n_max + 1))
    same_rows(rows(out, ("n", "j", "value")), want)


def check_count_by_blocks(out: bytes, n: int) -> None:
    same_rows(rows(out, ("k", "count")), ((k, stirling(n)[n][k]) for k in range(1, n + 1)))


def check_fixed_partitions(out: bytes, p: int, m: int) -> None:
    n = p**m
    classes = [congruence_partition(p ** (m - j), n) for j in range(m + 1)]
    got = rows(out, ("kind", "index", "partition"))
    fixed = sorted(r[2] for r in got if r[0] == "fixed")
    if fixed != sorted(classes):
        raise CheckFailed(f"fixed partitions {fixed}")
    same_rows([r for r in got if r[0] != "fixed"], (("class", j, c) for j, c in enumerate(classes)))
