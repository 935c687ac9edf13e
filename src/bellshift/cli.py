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
counterexample was found, 2 = usage or configuration error.

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
from .modular import PrimePower, bell_mod_p_stream, bell_prime_power_residue, touchard_check
from .partitions import DEFAULT_ENUMERATION_CAP, orbit_decomposition
from .shiftpoly import shift_poly_closed, shift_poly_recursive

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

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


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name}={raw!r} is not an integer")


def _resolve_depth(ns: argparse.Namespace) -> int:
    depth = ns.depth if ns.depth is not None else _env_int(DEPTH_ENV)
    if depth is None:
        depth = DEFAULT_TABLE_DEPTH
    if depth < 0:
        raise UsageError("table depth must be >= 0")
    # emitted decimal strings routinely exceed the interpreter's default
    # int-to-str guard once tables go past a few hundred rows
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(4300, (depth + 10) * len(str(depth + 10))))
    return depth


def _resolve_cap(ns: argparse.Namespace) -> int:
    cap = ns.cap if ns.cap is not None else _env_int(CAP_ENV)
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    if cap < 1:
        raise UsageError("enumeration cap must be >= 1")
    return cap


def _need_depth(needed: int, depth: int, what: str) -> None:
    if needed > depth:
        raise UsageError(
            f"{what} needs table index {needed}, above the configured depth {depth}; "
            f"raise --depth (or {DEPTH_ENV})"
        )


def _prime_power(ns: argparse.Namespace) -> PrimePower:
    try:
        return PrimePower(ns.p, ns.m)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_bell(ns: argparse.Namespace) -> int:
    depth = _resolve_depth(ns)
    _need_depth(ns.n_max, depth, f"bell {ns.n_max}")
    table = build_bell_binomial(ns.n_max)
    if ns.cross_check:
        for n, row in enumerate(stirling_rows(ns.n_max)):
            other = sum(row)
            if other != table.values[n]:
                print(
                    f"counterexample: recurrences disagree at n={n}: "
                    f"{table.values[n]} != {other}",
                    file=sys.stderr,
                )
                return EXIT_COUNTEREXAMPLE
    _emit(
        ("n", "bell"),
        ((n, table.values[n]) for n in range(ns.n_max + 1)),
        ns.format,
        frozenset({"bell"}),
    )
    return EXIT_OK


def cmd_stirling(ns: argparse.Namespace) -> int:
    depth = _resolve_depth(ns)
    _need_depth(ns.n_max, depth, f"stirling {ns.n_max}")
    tri = build_stirling(ns.n_max)
    _emit(
        ("n", "k", "value"),
        (
            (n, k, tri.rows[n][k])
            for n in range(ns.n_max + 1)
            for k in range(n + 1)
        ),
        ns.format,
        frozenset({"value"}),
    )
    return EXIT_OK


def cmd_shift_poly(ns: argparse.Namespace) -> int:
    depth = _resolve_depth(ns)
    _need_depth(ns.j, depth, f"shift-poly {ns.j}")
    closed = shift_poly_closed(ns.j, build_bell_binomial(ns.j), build_binomials(ns.j))
    if ns.check_recursive:
        recursive = shift_poly_recursive(ns.j)
        _emit(
            ("r", "closed", "recursive"),
            zip(range(ns.j + 1), closed.coeffs, recursive.coeffs),
            ns.format,
            frozenset({"closed", "recursive"}),
        )
        if closed.coeffs != recursive.coeffs:
            print(
                f"counterexample: construction paths disagree for shift {ns.j}",
                file=sys.stderr,
            )
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK
    _emit(
        ("r", "coefficient"),
        enumerate(closed.coeffs),
        ns.format,
        frozenset({"coefficient"}),
    )
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    depth = _resolve_depth(ns)
    pp = _prime_power(ns)
    if ns.n_lo < 1 or ns.n_lo > ns.n_hi:
        raise UsageError(f"need 1 <= n_lo <= n_hi, got [{ns.n_lo}, {ns.n_hi}]")
    _need_depth(ns.n_hi + pp.value, depth, f"verify {pp.p} {pp.m}")
    bell = build_bell_binomial(ns.n_hi + pp.value)
    report = touchard_check(pp, ns.n_lo, ns.n_hi, bell)
    predicted = bell_prime_power_residue(pp)
    actual = bell.values[pp.value] % pp.p
    ok = report.ok and predicted == actual
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
    rows.extend(
        [
            ("predicted_residue", predicted),
            ("actual_residue", actual),
            ("status", "ok" if ok else "counterexample"),
        ]
    )
    _emit(("record", "value"), rows, ns.format, frozenset({"value"}))
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_orbits(ns: argparse.Namespace) -> int:
    cap = _resolve_cap(ns)
    pp = _prime_power(ns)
    try:
        summaries = orbit_decomposition(pp.value, cap)
    except ValueError as exc:
        raise UsageError(str(exc))
    total = sum(s.size for s in summaries)
    hist: dict[int, int] = {}
    for s in summaries:
        hist[s.size] = hist.get(s.size, 0) + 1
    fixed = [s.representative for s in summaries if s.is_fixed]
    ok = len(fixed) == pp.m + 1 and len(fixed) % pp.p == total % pp.p
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
    rows.append(("status", "ok" if ok else "counterexample"))
    _emit(("record", "value"), rows, ns.format, frozenset({"value"}))
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_bell_mod(ns: argparse.Namespace) -> int:
    depth = _resolve_depth(ns)
    try:
        PrimePower(ns.p, 1)
    except ValueError as exc:
        raise UsageError(str(exc))
    if ns.n_max < ns.p - 1:
        raise UsageError(f"N must be >= p-1 = {ns.p - 1} to cover the seed window")
    if ns.cross_check:
        _need_depth(ns.n_max, depth, f"bell-mod {ns.p} {ns.n_max} --cross-check")
        exact_to = ns.n_max
    else:
        _need_depth(ns.p - 1, depth, f"bell-mod {ns.p} seeds")
        exact_to = ns.p - 1
    bell = build_bell_binomial(exact_to)
    seeds = [bell.values[i] % ns.p for i in range(ns.p)]
    try:
        stream = bell_mod_p_stream(ns.p, ns.n_max, seeds)
    except ValueError as exc:
        raise UsageError(str(exc))
    if ns.cross_check:
        for n in range(ns.n_max + 1):
            expect = bell.values[n] % ns.p
            if stream[n] != expect:
                print(
                    f"counterexample: stream disagrees with exact reduction at "
                    f"n={n}: {stream[n]} != {expect}",
                    file=sys.stderr,
                )
                return EXIT_COUNTEREXAMPLE
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
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
