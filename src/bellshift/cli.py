"""Command-line surface for every computation and verification path.

Subcommands::

    bell N          exact B_0..B_N, optionally cross-checked between the
                    two recurrences
    stirling N      the Stirling triangle through row N
    shift-poly J    coefficients of the shift polynomial, optionally
                    verified against the recurrence construction
    verify P M      Touchard sweep plus the B_{p^m} residue check
    orbits P M      translation-orbit decomposition and fixed partitions
    bell-mod P N    streaming B_n mod p, optionally cross-checked

Every subcommand accepts ``--format {tsv,json-lines}``, ``--depth`` and
``--cap``.  ``--depth`` bounds the largest exact-table index that
``bell``, ``stirling``, ``shift-poly`` and ``verify`` build, and
``bell-mod``'s seed triangle and ``--cross-check`` table; ``--cap``
alone bounds ``orbits``, whose B_n has n at most the cap.  TSV is
tab-separated with a single ``#``-prefixed header line; JSON-lines emits
one object per line, whose index columns ``n``, ``k``, ``r`` and
``residue`` are numbers and every other value a string (B_0 is ``"1"``).
Output is deterministic: the same flags always produce byte-identical
bytes.

Exit codes are load-bearing: 0 = all checks passed, 1 = a mathematical
counterexample was found, 2 = usage or configuration error, 3 = internal
error (the traceback goes to stderr), 141 = the reader of stdout went
away (the status a shell reports for a writer killed by SIGPIPE).  A
usage error is refused before any work, with one ``error:`` line on
stderr in the words of the check that owns the limit, as in
``error: n=16 exceeds the enumeration cap of 12``.  Every exit 1 writes
one ``counterexample:`` line on stderr naming the failed check and both
its values; ``orbits`` checks its total against B_n too.  ``main`` alone
maps a command's outcome (that line's text, or ``None``) to a code.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .exact import build_bell_binomial, build_binomials, stirling_rows
from .modular import (
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    reduce_shift_poly,
    touchard_check,
)
from .partitions import DEFAULT_ENUMERATION_CAP, SetPartition, orbit_decomposition
from .shiftpoly import shift_poly_closed, shift_poly_recursive

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_TABLE_DEPTH = 200


class UsageError(Exception):
    pass


# rows per write: enough to batch short rows, few enough that wide rows (a
# Bell number runs to thousands of digits) barely raise the peak memory;
# the residue form's two-digit tables need exactly 100
_CHUNK_ROWS = 100


def _emit(fields: tuple[str, ...], rows, fmt: str, *, modulus: int | None = None) -> int:
    """Write ``rows`` to stdout and return how many were written.

    This is the one writer of stdout, and each value it writes is an
    ``int`` or a ``str``.  TSV starts with a ``#``-prefixed header line
    and writes each value as ``str(v)``.  A json-lines row is byte for
    byte ``json.dumps`` of the dict from ``fields`` to the row: a ``str``
    is a JSON string and an ``int`` a JSON number, so a caller passes a
    big integer as its decimal ``str``.  ``json`` is imported here, so a
    TSV run never loads it.

    ``rows`` may be any iterable and is consumed once, ``_CHUNK_ROWS``
    = 100 rows per write.  Rows are formatted through one line template
    per format.  With ``modulus=p``, ``rows`` are the residues r_0, r_1,
    ... in [0, p) without their index, and the bytes are those of
    ``enumerate(rows)`` under the two ``fields``.  These rows are joined
    from tables through one list of three cells per row, owned by the
    call: row n = 100*k + j is the lead (everything before the index,
    then ``str(k)``; the first chunk has no ``k``), the two digits of j
    (unpadded in the first chunk) and the rest of the line for r_n, from
    a p-entry table.  A chunk fills each kind of cell with one slice
    assignment and is written with one ``"".join``.
    """
    if fmt == "tsv":
        sys.stdout.write("#" + "\t".join(fields) + "\n")
        line = "\t".join(["{}"] * len(fields)) + "\n"
        values = chain.from_iterable
    else:
        from json.encoder import encode_basestring_ascii as quote

        line = "{{" + ", ".join(quote(f) + ": {}" for f in fields) + "}}\n"

        def values(chunk):
            # an int goes through the template as json.dumps writes it
            return [quote(v) if type(v) is str else v for row in chunk for v in row]

    if modulus is None:
        def render(chunk, start):
            return (line * len(chunk)).format(*values(chunk))
    else:
        head, sep, end = line.format("\0", "\0").split("\0")
        tails = [f"{sep}{r}{end}" for r in range(modulus)]
        low, padded = [str(j) for j in range(100)], [f"{j:02d}" for j in range(100)]
        cells = [""] * (3 * _CHUNK_ROWS)  # lead, index digits, rest of line, per row

        def render(chunk, start):
            lead, digits = (head + str(start // 100), padded) if start else (head, low)
            n = len(chunk)
            del cells[3 * n :]  # only the last chunk is short
            cells[0::3] = [lead] * n
            cells[1::3] = digits[:n]
            cells[2::3] = map(tails.__getitem__, chunk)
            return "".join(cells)

    count = 0
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        sys.stdout.write(render(chunk, count))
        count += len(chunk)
    return count


def _report(ns: argparse.Namespace, rows: list[tuple], failure: str | None) -> str | None:
    rows.append(("status", "ok" if failure is None else "counterexample"))
    _emit(("record", "value"), ((record, str(value)) for record, value in rows), ns.format)
    return failure


def _need_depth(ns: argparse.Namespace, needed: int, what: str) -> None:
    if needed < 0:
        raise UsageError(f"{what} needs table index {needed}, which must be >= 0")
    if needed > ns.depth:
        raise UsageError(
            f"{what} needs table index {needed}, above the configured depth {ns.depth}; "
            "raise --depth"
        )


def _checked(call, *args):
    """``call(*args)``, a ``ValueError`` made a usage error: only for calls
    that check their arguments before any work, so a fault in work exits 3."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def _power(pp: PrimePower, limit: int, refusal: str) -> int:
    """p^m, refused before it is formed if m is past the bit length of
    ``limit`` (p^m >= 2^m), since a huge power is slow to build and print."""
    if pp.m > limit.bit_length():
        raise UsageError(refusal)
    return pp.value


def cmd_bell(ns: argparse.Namespace) -> str | None:
    _need_depth(ns, ns.n_max, f"bell {ns.n_max}")
    table = build_bell_binomial(ns.n_max)
    if ns.cross_check:
        # a row is summed as it is yielded, so no name holds it while the next is built
        for n, other in enumerate(map(sum, stirling_rows(ns.n_max))):
            if other != table[n]:
                return f"recurrences disagree at n={n}: {table[n]} != {other}"
    _emit(("n", "bell"), enumerate(map(str, table)), ns.format)
    return None


def cmd_stirling(ns: argparse.Namespace) -> None:
    _need_depth(ns, ns.n_max, f"stirling {ns.n_max}")
    # the row being written stays bound to ``row`` while the next is built
    rows = enumerate(stirling_rows(ns.n_max))
    _emit(
        ("n", "k", "value"),
        ((n, k, str(value)) for n, row in rows for k, value in enumerate(row)),
        ns.format,
    )


def cmd_shift_poly(ns: argparse.Namespace) -> str | None:
    _need_depth(ns, ns.j, f"shift-poly {ns.j}")
    closed = shift_poly_closed(ns.j, build_bell_binomial(ns.j), build_binomials(ns.j))
    if ns.check_recursive:
        recursive = shift_poly_recursive(ns.j)
        _emit(
            ("r", "closed", "recursive"),
            zip(range(ns.j + 1), map(str, closed), map(str, recursive)),
            ns.format,
        )
        if closed != recursive:
            return f"construction paths disagree for shift {ns.j}"
    else:
        _emit(("r", "coefficient"), enumerate(map(str, closed)), ns.format)
    return None


def cmd_verify(ns: argparse.Namespace) -> str | None:
    pp = _checked(PrimePower, ns.p, ns.m)
    what = f"verify {pp.p} {pp.m}"
    # touchard_check checks the range too, but only after the table is built
    if ns.n_lo < 1 or ns.n_lo > ns.n_hi:
        raise UsageError(f"need 1 <= n_lo <= n_hi, got [{ns.n_lo}, {ns.n_hi}]")
    q = _power(pp, ns.depth, f"{what}: {pp.p}^{pp.m} is above the configured depth")
    _need_depth(ns, ns.n_hi + q, what)
    bell = build_bell_binomial(ns.n_hi + q)
    bad = touchard_check(pp, ns.n_lo, ns.n_hi, bell)
    predicted = bell_prime_power_residue(pp)
    actual = reduce_shift_poly(pp, bell)
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("n_lo", ns.n_lo),
        ("n_hi", ns.n_hi),
        ("checked", ns.n_hi - ns.n_lo + 1),
        ("counterexample_count", len(bad)),
    ]
    found = [f"n={n} lhs={lhs} rhs={rhs}" for n, lhs, rhs in bad]
    rows.extend(("counterexample", text) for text in found)
    rows.extend([("predicted_residue", predicted), ("actual_residue", actual)])
    failure = None
    if found:
        failure = f"Touchard's congruence fails at {found[0]}"
    elif predicted != actual:
        failure = f"B_{pp.value} mod {pp.p} is {actual}, predicted {predicted}"
    return _report(ns, rows, failure)


def cmd_orbits(ns: argparse.Namespace) -> str | None:
    pp = _checked(PrimePower, ns.p, ns.m)
    n = _power(pp, ns.cap, f"n={pp.p}^{pp.m} exceeds the enumeration cap of {ns.cap}")
    hist: dict[int, int] = {}  # orbit size -> orbit count
    fixed = []
    for rep, size in _checked(orbit_decomposition, n, ns.cap):
        hist[size] = hist.get(size, 0) + 1
        if size == 1:
            fixed.append(rep)
    total = sum(size * count for size, count in hist.items())
    bell = build_bell_binomial(n)[n]  # n is at most the cap, so this is cheap
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("total_partitions", total),
        ("orbit_count", sum(hist.values())),
    ]
    rows.extend((f"orbit_size_{size}", count) for size, count in sorted(hist.items()))
    rows.extend(
        [
            ("fixed_count", len(fixed)),
            ("expected_fixed", pp.m + 1),
            ("bell_residue", total % pp.p),
            ("fixed_residue", len(fixed) % pp.p),
        ]
    )
    rows.extend((f"fixed_{i}", str(SetPartition(rgs))) for i, rgs in enumerate(fixed))
    failure = None
    if total != bell:
        failure = f"orbits of {n} hold {total} partitions, B_{n} = {bell}"
    elif len(fixed) != pp.m + 1:
        failure = f"{len(fixed)} fixed partitions, expected {pp.m + 1}"
    elif len(fixed) % pp.p != total % pp.p:
        failure = f"fixed residue {len(fixed) % pp.p} != bell residue {total % pp.p}"
    return _report(ns, rows, failure)


def cmd_bell_mod(ns: argparse.Namespace) -> str | None:
    p = _checked(PrimePower, ns.p, 1).p
    if ns.cross_check:
        _need_depth(ns, ns.n_max, f"bell-mod {p} {ns.n_max} --cross-check")
    else:
        # the stream's seed triangle costs O(p^2), so the depth bounds p - 1
        _need_depth(ns, p - 1, f"bell-mod {p} seeds")
    residues = _checked(bell_mod_p_stream, p, ns.n_max)
    if ns.cross_check:
        bell = build_bell_binomial(ns.n_max)
        # the exact table already holds N+1 values, so the residues may too
        residues = list(residues)
        for n, (got, b) in enumerate(zip(residues, bell, strict=True)):
            if got != b % p:
                return f"stream disagrees with exact reduction at n={n}: {got} != {b % p}"
    _emit(("n", "residue"), residues, ns.format, modulus=p)
    return None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("tsv", "json-lines"),
        default="tsv",
        help="output format (default: tsv)",
    )
    common.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_TABLE_DEPTH,
        metavar="N",
        help="largest exact-table index that bell, shift-poly, stirling, verify and "
        "bell-mod may build; orbits reads only --cap (default %(default)s)",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        metavar="n",
        help="largest ground set the enumerator will accept (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="bellshift",
        description="Exact Bell/Stirling tables, shift polynomials, and modular "
        "congruence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell", parents=[common], help="emit B_0..B_N")
    p.add_argument("n_max", type=int, metavar="N")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also compute the row-sum recurrence and abort on any mismatch",
    )
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("stirling", parents=[common], help="emit triangle rows (n, k, value)")
    p.add_argument("n_max", type=int, metavar="N")
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser(
        "shift-poly", parents=[common], help="emit shift-polynomial coefficients, ascending"
    )
    p.add_argument("j", type=int, metavar="J")
    p.add_argument(
        "--check-recursive",
        action="store_true",
        help="also build the polynomial by its recurrence and compare",
    )
    p.set_defaults(func=cmd_shift_poly)

    p = sub.add_parser(
        "verify", parents=[common], help="Touchard sweep and prime-power residue check"
    )
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--n-lo", type=int, default=1, metavar="N")
    p.add_argument("--n-hi", type=int, default=100, metavar="N")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "orbits", parents=[common], help="translation-orbit decomposition of Z/p^m Z"
    )
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser(
        "bell-mod", parents=[common], help="stream B_0..B_N mod p by the linear recurrence"
    )
    p.add_argument("p", type=int)
    p.add_argument("n_max", type=int, metavar="N")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="compare every residue against the exact table (needs depth >= N)",
    )
    p.set_defaults(func=cmd_bell_mod)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    # big table values outgrow the int-to-str digit guard: lift it for this call
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        failure = ns.func(ns)
        if failure is not None:
            print(f"counterexample: {failure}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return EXIT_OK if failure is None else EXIT_COUNTEREXAMPLE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
