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
away (the status a shell reports for a writer killed by SIGPIPE).

Configuration precedence is flags over the environment variables
``BELLSHIFT_DEPTH`` / ``BELLSHIFT_CAP`` over built-in defaults (200 and
12 respectively).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact import build_bell_binomial, build_binomials, build_stirling, stirling_rows
from .modular import (
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    reduce_shift_poly,
    touchard_check,
)
from .partitions import DEFAULT_ENUMERATION_CAP, MAX_GROUND_SET, orbit_decomposition
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


def _emit(fields: tuple[str, ...], rows, fmt: str, big: frozenset[str] = frozenset()) -> None:
    if fmt == "tsv":
        print("#" + "\t".join(fields))
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        for row in rows:
            obj = {f: str(v) if f in big else v for f, v in zip(fields, row)}
            print(json.dumps(obj))


def _counterexample(msg: str) -> int:
    print(f"counterexample: {msg}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


def _report(ns: argparse.Namespace, rows: list[tuple[str, object]], ok: bool) -> int:
    rows.append(("status", "ok" if ok else "counterexample"))
    _emit(("record", "value"), rows, ns.format, frozenset({"value"}))
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _limit(flag: int | None, env: str, default: int, low: int, what: str) -> int:
    """The flag if given, else the environment variable if set, else the
    default; below ``low`` is a usage error."""
    if flag is not None:
        value = flag
    elif (raw := os.environ.get(env)) is None:
        value = default
    else:
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"environment variable {env}={raw!r} is not an integer")
    if value < low:
        raise UsageError(f"{what} must be >= {low}")
    return value


def _depth(ns: argparse.Namespace) -> int:
    return _limit(ns.depth, DEPTH_ENV, DEFAULT_TABLE_DEPTH, 0, "table depth")


def _need_depth(ns: argparse.Namespace, needed: int, what: str) -> None:
    depth = _depth(ns)
    if needed < 0:
        raise UsageError(f"{what} needs table index {needed}, which must be >= 0")
    if needed > depth:
        raise UsageError(
            f"{what} needs table index {needed}, above the configured depth {depth}; "
            f"raise --depth (or {DEPTH_ENV})"
        )


def _prime_power(p: int, m: int) -> PrimePower:
    try:
        return PrimePower(p, m)
    except ValueError as exc:
        raise UsageError(str(exc))


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
    tri = build_stirling(ns.n_max)
    _emit(
        ("n", "k", "value"),
        ((n, k, value) for n, row in enumerate(tri) for k, value in enumerate(row)),
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
    pp = _prime_power(ns.p, ns.m)
    if ns.n_lo < 1 or ns.n_lo > ns.n_hi:
        raise UsageError(f"need 1 <= n_lo <= n_hi, got [{ns.n_lo}, {ns.n_hi}]")
    # p^m >= 2^m: an exponent past the depth's bit length is refused before
    # p^m is formed, since a huge power is slow to build and to print
    if pp.m > _depth(ns).bit_length():
        raise UsageError(f"verify {pp.p} {pp.m}: {pp.p}^{pp.m} is above the configured depth")
    _need_depth(ns, ns.n_hi + pp.value, f"verify {pp.p} {pp.m}")
    bell = build_bell_binomial(ns.n_hi + pp.value)
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
    cap = _limit(ns.cap, CAP_ENV, DEFAULT_ENUMERATION_CAP, 1, "enumeration cap")
    pp = _prime_power(ns.p, ns.m)
    if pp.m > cap.bit_length() or pp.value > cap:  # p^m >= 2^m, as in cmd_verify
        raise UsageError(f"n={pp.p}^{pp.m} exceeds the enumeration cap of {cap}")
    if pp.value > MAX_GROUND_SET:
        raise UsageError(
            f"n={pp.p}^{pp.m} exceeds {MAX_GROUND_SET}, the largest ground set "
            "the enumerator takes"
        )
    summaries = orbit_decomposition(pp.value, cap)
    total = sum(s.size for s in summaries)
    hist: dict[int, int] = {}
    for s in summaries:
        hist[s.size] = hist.get(s.size, 0) + 1
    fixed = [s.representative for s in summaries if s.size == 1]
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("total_partitions", total),
        ("orbit_count", len(summaries)),
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
    rows.extend((f"fixed_{i}", str(part)) for i, part in enumerate(fixed))
    return _report(ns, rows, len(fixed) == pp.m + 1 and len(fixed) % pp.p == total % pp.p)


def cmd_bell_mod(ns: argparse.Namespace) -> int:
    p = _prime_power(ns.p, 1).p
    if ns.n_max < p - 1:
        raise UsageError(f"N must be >= p-1 = {p - 1} to cover the seed window")
    if ns.cross_check:
        _need_depth(ns, ns.n_max, f"bell-mod {p} {ns.n_max} --cross-check")
        exact_to = ns.n_max
    else:
        _need_depth(ns, p - 1, f"bell-mod {p} seeds")
        exact_to = p - 1
    bell = build_bell_binomial(exact_to)
    stream = bell_mod_p_stream(p, ns.n_max, [b % p for b in bell[:p]])
    if ns.cross_check:
        for n in range(ns.n_max + 1):
            expect = bell[n] % p
            if stream[n] != expect:
                return _counterexample(
                    f"stream disagrees with exact reduction at n={n}: {stream[n]} != {expect}"
                )
    _emit(("n", "residue"), enumerate(stream), ns.format)
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
    # emitted decimal strings routinely exceed the interpreter's default
    # int-to-str guard once tables go past a few hundred rows
    if hasattr(sys, "set_int_max_str_digits"):
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


if __name__ == "__main__":
    sys.exit(main())
