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
``--cap``.  TSV is tab-separated with a single ``#``-prefixed header
line; JSON-lines emits one object per line with values that can exceed
word size rendered as decimal strings.  Output is deterministic: the
same flags always produce byte-identical bytes.

Exit codes are load-bearing: 0 = all checks passed, 1 = a mathematical
counterexample was found, 2 = usage or configuration error, 3 = internal
error (the traceback goes to stderr), 141 = the reader of stdout went
away (the status a shell reports for a writer killed by SIGPIPE).  A
usage error is refused before any work, with one ``error:`` line on
stderr in the words of the check that owns the limit, as in
``error: n=16 exceeds the enumeration cap of 12``.

Configuration precedence is flags over the environment variables
``BELLSHIFT_DEPTH`` / ``BELLSHIFT_CAP`` over built-in defaults (200 and
12 respectively).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice, repeat

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

DEPTH_ENV = "BELLSHIFT_DEPTH"
CAP_ENV = "BELLSHIFT_CAP"


class UsageError(Exception):
    pass


# rows per write: enough to batch short rows, few enough that wide rows (a
# Bell number runs to thousands of digits) barely raise the peak memory.
# Wide rows keep 64: emission is a few per cent of building them, and a
# larger chunk only lifts their peak.  Residue rows are short and come in
# chunks of 100, one per pair of low index digits.
_CHUNK_ROWS = 64


def _emit(
    fields: tuple[str, ...],
    rows,
    fmt: str,
    big: frozenset[str] = frozenset(),
    *,
    modulus: int | None = None,
) -> int:
    """Write ``rows`` to stdout and return how many were written.

    This is the one writer of stdout.  TSV starts with a ``#``-prefixed
    header line and writes each value as ``str(v)``.  A json-lines row
    is byte for byte ``json.dumps`` of the dict from ``fields`` to the
    row, with each field in ``big`` replaced by its ``str()``, so a big
    integer becomes a decimal string.  Rows are formatted through one
    line template per format, ``_CHUNK_ROWS`` at a time, and each chunk
    is a single write; ``rows`` may be any iterable and is consumed once.
    ``json`` is imported here, so a TSV run never loads it.

    With ``modulus=p``, ``rows`` are the residues r_0, r_1, ... in
    [0, p) without their index, and the bytes are those of
    ``enumerate(rows)`` under the two ``fields``.  These rows are joined
    from tables, 100 at a time: row n = 100*k + j is the lead
    (everything before the index, then ``str(k)``; the first chunk has
    no ``k``), the two digits of j (unpadded in the first chunk) and the
    rest of the line for r_n, from a p-entry table.
    """
    if fmt == "tsv":
        sys.stdout.write("#" + "\t".join(fields) + "\n")
        line = "\t".join(["{}"] * len(fields)) + "\n"
        values = chain.from_iterable
        head, sep, end = "", "\t", "\n"
    else:
        from json import dumps
        from json.encoder import encode_basestring_ascii as quote

        def value(v):
            # as json.dumps writes it; the line template renders an int
            if type(v) is int:
                return v
            return quote(v) if type(v) is str else dumps(v)

        def big_value(v):
            return quote(str(v))

        keys = (quote(f) + ": {}" for f in fields)
        line = "{{" + ", ".join(keys) + "}}\n"
        convert = [big_value if f in big else value for f in fields]

        def values(chunk):
            return [c(v) for row in chunk for c, v in zip(convert, row)]

        head, sep, end = "{" + quote(fields[0]) + ": ", ", " + quote(fields[1]) + ": ", "}\n"

    count = 0
    it = iter(rows)
    if modulus is not None:
        tails = [f"{sep}{r}{end}" for r in range(modulus)]
        low, padded = [str(j) for j in range(100)], [f"{j:02d}" for j in range(100)]
        lead = head
        while chunk := list(islice(it, 100)):
            pieces = zip(repeat(lead), low, map(tails.__getitem__, chunk))
            sys.stdout.write("".join(chain.from_iterable(pieces)))
            count += len(chunk)
            low, lead = padded, head + str(count // 100)
        return count
    while chunk := list(islice(it, _CHUNK_ROWS)):
        sys.stdout.write((line * len(chunk)).format(*values(chunk)))
        count += len(chunk)
    return count


def _counterexample(msg: str) -> int:
    print(f"counterexample: {msg}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


def _report(ns: argparse.Namespace, rows: list[tuple[str, object]], ok: bool) -> int:
    rows.append(("status", "ok" if ok else "counterexample"))
    _emit(("record", "value"), rows, ns.format, frozenset({"value"}))
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _limit(flag: int | None, env: str, default: int) -> int:
    """The flag if given, else the environment variable if set, else the
    default; the check that uses the value refuses what it cannot take."""
    if flag is not None:
        value = flag
    elif (raw := os.environ.get(env)) is None:
        value = default
    else:
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"environment variable {env}={raw!r} is not an integer")
    return value


def _depth(ns: argparse.Namespace) -> int:
    return _limit(ns.depth, DEPTH_ENV, DEFAULT_TABLE_DEPTH)


def _need_depth(ns: argparse.Namespace, needed: int, what: str) -> None:
    depth = _depth(ns)
    if needed < 0:
        raise UsageError(f"{what} needs table index {needed}, which must be >= 0")
    if needed > depth:
        raise UsageError(
            f"{what} needs table index {needed}, above the configured depth {depth}; "
            f"raise --depth (or {DEPTH_ENV})"
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


def cmd_bell(ns: argparse.Namespace) -> int:
    _need_depth(ns, ns.n_max, f"bell {ns.n_max}")
    table = build_bell_binomial(ns.n_max)
    if ns.cross_check:
        for n, row in enumerate(stirling_rows(ns.n_max)):
            other = sum(row)
            if other != table[n]:
                return _counterexample(f"recurrences disagree at n={n}: {table[n]} != {other}")
    _emit(("n", "bell"), enumerate(table), ns.format, frozenset({"bell"}))
    return EXIT_OK


def cmd_stirling(ns: argparse.Namespace) -> int:
    _need_depth(ns, ns.n_max, f"stirling {ns.n_max}")
    rows = enumerate(stirling_rows(ns.n_max))  # one row held at a time
    _emit(
        ("n", "k", "value"),
        ((n, k, value) for n, row in rows for k, value in enumerate(row)),
        ns.format,
        frozenset({"value"}),
    )
    return EXIT_OK


def cmd_shift_poly(ns: argparse.Namespace) -> int:
    _need_depth(ns, ns.j, f"shift-poly {ns.j}")
    closed = shift_poly_closed(ns.j, build_bell_binomial(ns.j), build_binomials(ns.j))
    if ns.check_recursive:
        recursive = shift_poly_recursive(ns.j)
        _emit(
            ("r", "closed", "recursive"),
            zip(range(ns.j + 1), closed, recursive),
            ns.format,
            frozenset({"closed", "recursive"}),
        )
        if closed != recursive:
            return _counterexample(f"construction paths disagree for shift {ns.j}")
        return EXIT_OK
    _emit(("r", "coefficient"), enumerate(closed), ns.format, frozenset({"coefficient"}))
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    pp = _checked(PrimePower, ns.p, ns.m)
    what = f"verify {pp.p} {pp.m}"
    # touchard_check checks the range too, but only after the table is built
    if ns.n_lo < 1 or ns.n_lo > ns.n_hi:
        raise UsageError(f"need 1 <= n_lo <= n_hi, got [{ns.n_lo}, {ns.n_hi}]")
    q = _power(pp, _depth(ns), f"{what}: {pp.p}^{pp.m} is above the configured depth")
    _need_depth(ns, ns.n_hi + q, what)
    bell = build_bell_binomial(ns.n_hi + q)
    report = touchard_check(pp, ns.n_lo, ns.n_hi, bell)
    predicted = bell_prime_power_residue(pp)
    actual = reduce_shift_poly(pp, bell)
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("n_lo", report.n_lo),
        ("n_hi", report.n_hi),
        ("checked", report.checked),
        ("counterexample_count", len(report.counterexamples)),
    ]
    rows.extend(
        ("counterexample", f"n={n} lhs={lhs} rhs={rhs}")
        for n, lhs, rhs in report.counterexamples
    )
    rows.extend([("predicted_residue", predicted), ("actual_residue", actual)])
    return _report(ns, rows, report.ok and predicted == actual)


def cmd_orbits(ns: argparse.Namespace) -> int:
    cap = _limit(ns.cap, CAP_ENV, DEFAULT_ENUMERATION_CAP)
    pp = _checked(PrimePower, ns.p, ns.m)
    n = _power(pp, cap, f"n={pp.p}^{pp.m} exceeds the enumeration cap of {cap}")
    hist: dict[int, int] = {}  # orbit size -> orbit count
    fixed = []
    for rep, size in _checked(orbit_decomposition, n, cap):
        hist[size] = hist.get(size, 0) + 1
        if size == 1:
            fixed.append(rep)
    total = sum(size * count for size, count in hist.items())
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
    return _report(ns, rows, len(fixed) == pp.m + 1 and len(fixed) % pp.p == total % pp.p)


def cmd_bell_mod(ns: argparse.Namespace) -> int:
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
                return _counterexample(
                    f"stream disagrees with exact reduction at n={n}: {got} != {b % p}"
                )
    _emit(("n", "residue"), residues, ns.format, modulus=p)
    return EXIT_OK


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
        default=None,
        metavar="N",
        help=f"largest exact-table index any command may touch "
        f"(default {DEFAULT_TABLE_DEPTH}; env {DEPTH_ENV})",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="n",
        help=f"largest ground set the enumerator will accept "
        f"(default {DEFAULT_ENUMERATION_CAP}; env {CAP_ENV})",
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
    if hasattr(sys, "set_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
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
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
