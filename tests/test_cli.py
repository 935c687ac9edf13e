from __future__ import annotations

import ast
import hashlib
import io
import json
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from array import array
from itertools import chain, cycle, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellshift import bell_mod_p_stream
from bellshift import cli, modular

from conftest import BELL_SMALL, child_env, child_peak_growth_mb
from test_partitions import seen_set_orbit_decomposition


# the int-to-str digit limit this process started with: cli.main lifts
# it for the length of one call only
DIGITS = sys.get_int_max_str_digits()


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``bellshift *args`` run in this process: ``cli.main`` with its
    stdout and stderr captured as text, and the code it returns taken as
    the exit code; it raises nothing, ``SystemExit`` included.  On every
    exit ``cli.main`` must have given back the digit limit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    assert sys.get_int_max_str_digits() == DIGITS
    return subprocess.CompletedProcess(["bellshift", *args], code, out.getvalue(), err.getvalue())


def parse_tsv(out: str) -> tuple[list[str], list[list[str]]]:
    lines = out.splitlines()
    assert lines[0].startswith("#")
    header = lines[0][1:].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


def parse_jsonl(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def records(out: str) -> dict[str, str]:
    _, rows = parse_tsv(out)
    assert all(len(r) == 2 for r in rows)
    return dict(rows)


def counterexample(res: subprocess.CompletedProcess) -> str:
    """The text of the one ``counterexample:`` line that a run exiting 1
    writes to stderr."""
    assert res.returncode == 1, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("counterexample: "), res.stderr
    return lines[0].removeprefix("counterexample: ")


# ---------------------------------------------------------------- emission


def parent_emit(fields, rows, fmt):
    """One ``print`` per row and ``json.dumps`` per json-lines row: the
    byte oracle for the batched ``cli._emit``."""
    if fmt == "tsv":
        print("#" + "\t".join(fields))
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        for row in rows:
            print(json.dumps(dict(zip(fields, row))))


_AWKWARD = ['say "hi"', "back\\slash", "tab\there", "two\nlines", "caf\u00e9 \u2211 \U0001d539", ""]


def mixed_rows(count):
    for i in range(count):
        small = (-1) ** i * (i % 7)
        huge = -(10 ** (20 + i)) if i % 3 else 7 ** (i + 40)
        label = _AWKWARD[i % len(_AWKWARD)]
        # _emit takes ints and strs only, and writes an int as a JSON
        # number however big: a caller passes a big value as its str
        other = (0, -3, 10**30, label)[i % 4]
        value = label if i % 4 == 1 else str(huge)
        yield (small, value, label, other)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
# 64 rows fill two writes of _LINES = 32 lines and 65 spill past them;
# 300 rows cross several
@pytest.mark.parametrize("count", [0, 1, 64, 65, 100, 101, 300])
def test_emit_matches_print_and_json_dumps(capsys, fmt, count):
    fields = ("n", "value", "label", "other")
    parent_emit(fields, mixed_rows(count), fmt)
    expected = capsys.readouterr().out
    cli._emit(fields, mixed_rows(count), fmt)
    assert capsys.readouterr().out == expected


class Writes(list):
    """A stdout that keeps each write apart."""

    write = list.append


def test_emit_writes_whole_lines_about_a_chunk_at_a_time():
    # each row is held only as its line, and the lines go out _LINES at a
    # time: so each write but the last holds exactly that many whole lines,
    # the last from 1 to that many, and wide rows are not held 100 at a time
    rows = [(n, str(7**n)) for n in range(2_000)]
    with redirect_stdout(Writes()) as writes:
        cli._emit(("n", "value"), rows, "tsv")
    header, *full, last = writes
    assert header == "#n\tvalue\n" and len(full) == (len(rows) - 1) // cli._LINES
    assert "".join(full + [last]) == "".join(f"{n}\t{v}\n" for n, v in rows)
    for text in full:
        assert text.endswith("\n") and text.count("\n") == cli._LINES
    assert last.endswith("\n") and 1 <= last.count("\n") <= cli._LINES


@pytest.mark.parametrize("fmt, before", [("tsv", 0.77), ("json-lines", 1.26)])
def test_wide_rows_are_held_only_as_their_lines(fmt, before):
    # a writer that takes 100 rows per write keeps a chunk of wide rows'
    # decimal strings beside their text: 0.95 MB (tsv) and 1.46-1.53 MB
    # (json-lines), against 0.77-0.81 and 1.26-1.41 MB for rows of ints, in
    # two sets of runs on 2-vCPU VMs; each bound is the lower reading for
    # rows of ints.  A row formatted as it is taken reads 0.32 and 0.47 MB.
    growth = child_peak_growth_mb(
        "with open(os.devnull, 'w') as out, redirect_stdout(out):\n"
        f"    assert main(['stirling', '300', '--depth', '300', '--format', '{fmt}']) == 0",
        setup="import os\nfrom contextlib import redirect_stdout\nfrom bellshift.cli import main",
    )
    assert growth <= before


def residue_blocks(p, count):
    """The first ``count`` residues mod p, and the same residues in the
    stream's lanes, cut into blocks of uneven sizes that end inside and
    across the writer's writes of 1000 rows."""
    lanes = next(modular._residue_blocks(p, p - 1)).format
    residues = list(islice(bell_mod_p_stream(p, max(count, p - 1)), count))
    blocks, start = [], 0
    for size in cycle((1, 7, 333, 1000, 4096)):
        if start >= count:
            return residues, blocks
        blocks.append(memoryview(array(lanes, residues[start : start + size])))
        start += size


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("p", [2, 13, 199, 1009])
@pytest.mark.parametrize("count", [0, 1, 99, 100, 101, 150, 1000, 10_001, 10_050])
def test_emit_residue_form_matches_enumerated_rows(capsys, fmt, p, count):
    # 99..101 and 1000 cross the first write's padded index digits; 150 and
    # 10_050 end a later write part full; the rest reach every index width
    # up to five digits.  p = 1009 has residues past a byte.
    fields = ("n", "residue")
    residues, blocks = residue_blocks(p, count)
    parent_emit(fields, enumerate(residues), fmt)
    expected = capsys.readouterr().out
    cli._emit(fields, blocks, fmt, modulus=p)
    assert capsys.readouterr().out == expected


def test_emit_residue_form_calls_share_no_buffer(capsys):
    # the first call's short last write must not cut the second call's rows
    fields = ("n", "residue")
    for p, count, fmt in ((13, 150, "tsv"), (199, 10_050, "json-lines"), (2, 301, "tsv")):
        residues, blocks = residue_blocks(p, count)
        parent_emit(fields, enumerate(residues), fmt)
        expected = capsys.readouterr().out
        cli._emit(fields, blocks, fmt, modulus=p)
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "p, lanes", [(2579, "H"), (32749, "H"), (65521, "I"), (2**31 - 1, "I"), (3_037_000_493, "Q")]
)
def test_emit_residue_form_reads_wide_lanes(capsys, p, lanes):
    # residues past a byte have low digits split off, two of them from
    # p = 2579 on, in lanes of 2, 4 and 8 bytes; the stream's seeds are too
    # slow for most of these p, so the residues are drawn at random, with
    # every digit count from 1 to that of p - 1
    rng = random.Random(p)
    residues = [10**k - d for k in range(1, len(str(p))) for d in (1, 0)] + [0, p - 1]
    residues += [rng.randrange(p) for _ in range(2_000)] + [rng.randrange(300) for _ in range(500)]
    blocks = [memoryview(array(lanes, residues[i : i + 777])) for i in range(0, len(residues), 777)]
    for fmt in ("tsv", "json-lines"):
        parent_emit(("n", "residue"), enumerate(residues), fmt)
        expected = capsys.readouterr().out
        cli._emit(("n", "residue"), blocks, fmt, modulus=p)
        assert capsys.readouterr().out == expected


def test_cli_writes_stdout_only_through_emit():
    tree = ast.parse(Path(cli.__file__).read_text())

    def writes(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout.write"

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            dest = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
            assert dest == ["sys.stderr"], f"line {node.lineno}: print must go to sys.stderr"
    writers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if writes(node)
    ]
    # _emit writes every row, and main writes only the --help text
    assert set(writers) == {"_emit", "main"} and writers.count("main") == 1
    assert len(writers) == sum(map(writes, ast.walk(tree)))  # none outside a function
    # each row says by its own types what json-lines quotes, so no call
    # passes a field mask: three positional arguments, and modulus= alone
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
    ]
    assert calls
    for node in calls:
        assert len(node.args) == 3, f"line {node.lineno}: _emit takes fields, rows, fmt"
        assert not any(isinstance(a, ast.Starred) for a in node.args), f"line {node.lineno}"
        assert [k.arg for k in node.keywords] in ([], ["modulus"]), f"line {node.lineno}"


def test_only_checked_calls_turn_value_error_into_usage_error():
    # a ValueError from real work is a library fault and must exit 3, so
    # only the wrapper of argument checks may catch it
    tree = ast.parse(Path(cli.__file__).read_text())

    def catches(node):
        return (
            isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and "ValueError" in ast.unparse(node.type)
        )

    catchers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if catches(node)
    ]
    assert catchers == ["_checked"]
    assert len(catchers) == sum(map(catches, ast.walk(tree)))  # none outside a function


def test_only_main_picks_an_exit_code():
    # a command returns what failed, or None; main alone maps that to a
    # code and writes the counterexample line
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]

    def sites(found):
        inside = [fn.name for fn in functions for node in ast.walk(fn) if found(node)]
        assert len(inside) == sum(map(found, ast.walk(tree)))  # none outside a function
        return set(inside)

    def reads_outcome_code(node):
        return (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in ("EXIT_OK", "EXIT_COUNTEREXAMPLE")
        )

    def writes_counterexample(node):
        return isinstance(node, ast.Call) and "counterexample:" in ast.unparse(node)

    assert sites(reads_outcome_code) == {"main"}
    assert sites(writes_counterexample) == {"main"}
    commands = [fn for fn in functions if fn.name.startswith("cmd_")]
    assert len(commands) == 6
    for fn in commands:
        assert ast.unparse(fn.returns) in ("str | None", "None"), fn.name
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                assert not (isinstance(value, ast.Constant) and type(value.value) is int)
                assert "EXIT_" not in ast.unparse(value), (fn.name, node.lineno)


def test_set_partition_is_never_built_past_its_check():
    # every SetPartition under src/ goes through __init__'s check
    def bypasses(node):
        return isinstance(node, ast.Call) and ast.unparse(node) == "object.__new__(SetPartition)"

    sites = [
        (path.name, node.lineno)
        for path in sorted(Path(cli.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if bypasses(node)
    ]
    assert sites == []


# ------------------------------------------------------------------- bell


def test_bell_tsv():
    res = run_cli("bell", "5")
    assert res.returncode == 0
    header, rows = parse_tsv(res.stdout)
    assert header == ["n", "bell"]
    assert [int(v) for _, v in rows] == list(BELL_SMALL[:6])


def test_bell_zero():
    res = run_cli("bell", "0")
    assert res.returncode == 0
    assert parse_tsv(res.stdout)[1] == [["0", "1"]]


def test_bell_json_lines_renders_values_as_strings():
    res = run_cli("bell", "9", "--format", "json-lines")
    assert res.returncode == 0
    objs = parse_jsonl(res.stdout)
    assert objs[-1] == {"n": 9, "bell": "21147"}
    assert all(isinstance(o["bell"], str) for o in objs)


def test_bell_cross_check_passes():
    res = run_cli("bell", "40", "--cross-check")
    assert res.returncode == 0
    assert res.stderr == ""


def test_bell_beyond_depth_is_usage_error():
    res = run_cli("bell", "9", "--depth", "5")
    assert res.returncode == 2
    assert "depth" in res.stderr


def test_environment_does_not_change_a_run(monkeypatch):
    # a run is its argv: names that look like settings of --depth and --cap
    # change no outcome, a refusal's included, with the option passed or not
    argvs = [
        ("bell", "9"),
        ("bell", "9", "--depth", "9"),
        ("orbits", "5", "1"),
        ("orbits", "5", "1", "--cap", "5"),
        ("bell", "9", "--depth", "5"),
        ("orbits", "5", "1", "--cap", "4"),
    ]

    def outcomes():
        runs = [run_cli(*argv) for argv in argvs]
        return [(res.returncode, res.stdout, res.stderr) for res in runs]

    clean = outcomes()
    assert [code for code, _, _ in clean] == [0, 0, 0, 0, 2, 2]
    for name, value in [
        ("BELLSHIFT_DEPTH", "5"),
        ("BELLSHIFT_CAP", "4"),
        ("BELLSHIFT_CAP", "12"),
        ("BELLSHIFT_DEPTH", "500"),
        ("BELLSHIFT_DEPTH", "many"),
    ]:
        monkeypatch.setenv(name, value)
        assert outcomes() == clean


def test_orbits_reads_cap_not_depth():
    # orbits builds B_n for n <= cap; --depth bounds the table commands only
    plain = run_cli("orbits", "2", "3")
    shallow = run_cli("orbits", "2", "3", "--depth", "5")
    assert (shallow.returncode, shallow.stdout, shallow.stderr) == (0, plain.stdout, "")
    assert plain.returncode == 0


# --------------------------------------------------------------- stirling


def test_stirling_rows():
    res = run_cli("stirling", "4")
    assert res.returncode == 0
    header, rows = parse_tsv(res.stdout)
    assert header == ["n", "k", "value"]
    assert ["4", "2", "7"] in rows
    assert len(rows) == 1 + 2 + 3 + 4 + 5


def test_stirling_formats_carry_the_same_values():
    tsv = run_cli("stirling", "6")
    jl = run_cli("stirling", "6", "--format", "json-lines")
    _, rows = parse_tsv(tsv.stdout)
    objs = parse_jsonl(jl.stdout)
    assert [(int(n), int(k), int(v)) for n, k, v in rows] == [
        (o["n"], o["k"], int(o["value"])) for o in objs
    ]


# -------------------------------------------------------------- shift-poly


def test_shift_poly_coefficients():
    res = run_cli("shift-poly", "5")
    assert res.returncode == 0
    _, rows = parse_tsv(res.stdout)
    assert [int(c) for _, c in rows] == [52, 75, 50, 20, 5, 1]


def test_shift_poly_check_recursive():
    res = run_cli("shift-poly", "8", "--check-recursive")
    assert res.returncode == 0
    header, rows = parse_tsv(res.stdout)
    assert header == ["r", "closed", "recursive"]
    assert all(c == r for _, c, r in rows)


# ------------------------------------------------------------------ verify


def test_verify_ok():
    res = run_cli("verify", "5", "1")
    assert res.returncode == 0
    rec = records(res.stdout)
    assert rec["prime_power"] == "5"
    assert rec["checked"] == "100"
    assert rec["counterexample_count"] == "0"
    assert rec["predicted_residue"] == "2"
    assert rec["actual_residue"] == "2"
    assert rec["status"] == "ok"


def test_verify_composite_p_is_usage_error():
    res = run_cli("verify", "9", "1")
    assert res.returncode == 2
    assert "not prime" in res.stderr


def test_verify_zero_exponent_is_usage_error():
    assert run_cli("verify", "3", "0").returncode == 2


def test_verify_bad_range_is_usage_error():
    assert run_cli("verify", "2", "1", "--n-lo", "0").returncode == 2
    assert run_cli("verify", "2", "1", "--n-lo", "7", "--n-hi", "3").returncode == 2


def test_verify_past_depth_is_usage_error():
    res = run_cli("verify", "2", "1", "--n-hi", "300")
    assert res.returncode == 2
    assert "depth" in res.stderr


# ------------------------------------------------------------------ orbits


def test_orbits_three():
    res = run_cli("orbits", "3", "1")
    assert res.returncode == 0
    rec = records(res.stdout)
    assert rec["total_partitions"] == "5"
    assert rec["orbit_count"] == "3"
    assert rec["orbit_size_1"] == "2"
    assert rec["orbit_size_3"] == "1"
    assert rec["fixed_count"] == "2"
    assert rec["expected_fixed"] == "2"
    assert rec["bell_residue"] == rec["fixed_residue"]
    assert rec["fixed_0"] == "{0,1,2}"
    assert rec["fixed_1"] == "{0}|{1}|{2}"
    assert rec["status"] == "ok"


def test_orbits_prime_square():
    rec = records(run_cli("orbits", "2", "2").stdout)
    assert rec["fixed_count"] == "3"
    assert rec["fixed_1"] == "{0,2}|{1,3}"


@pytest.mark.parametrize("p,m", [(11, 1), (2, 3), (3, 2), (7, 1)])
def test_orbits_stdout_matches_seen_set_oracle(monkeypatch, p, m):
    args = ["orbits", str(p), str(m)]
    walked = run_cli(*args)
    assert walked.returncode == 0
    assert walked.stdout.startswith("#record\tvalue\n") and "\nfixed_0\t" in walked.stdout
    monkeypatch.setattr(cli, "orbit_decomposition", seen_set_orbit_decomposition)
    oracle = run_cli(*args)
    assert oracle.returncode == 0
    assert oracle.stdout == walked.stdout


def test_orbits_memory_does_not_grow_with_the_orbit_count():
    # orbits 11 1 meets 61,690 orbits; it needs only their size histogram
    # and the two fixed partitions, so its traced peak stays far below the
    # ~19 MB that holding one object per orbit takes
    tracemalloc.start()
    try:
        res = run_cli("orbits", "11", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "e3764019901a64906212e367050aa8d1e774ef0b5a068fea6dae45f69fd0b1d4"
    )
    assert peak < 2 * 2**20


def test_bell_cross_check_holds_one_row_per_triangle():
    # both triangles pop the row they read, and the cross-check sums each
    # Stirling row as it is yielded: +2.3 MB at n = 1000, against +3.4 MB
    # while each kept its old row alive until the new one was built
    growth = child_peak_growth_mb(
        "with open(os.devnull, 'w') as out, redirect_stdout(out):\n"
        "    assert main(['bell', '1000', '--cross-check', '--depth', '1000']) == 0",
        setup="import os\nfrom contextlib import redirect_stdout\nfrom bellshift.cli import main",
    )
    assert growth < 2.9


def test_orbits_over_cap_is_usage_error():
    res = run_cli("orbits", "11", "1", "--cap", "8")
    assert res.returncode == 2
    assert "cap" in res.stderr
    assert run_cli("orbits", "2", "4").returncode == 2  # 16 > default cap 12


# ---------------------------------------------------------------- bell-mod


def test_bell_mod_residues():
    res = run_cli("bell-mod", "2", "12")
    assert res.returncode == 0
    _, rows = parse_tsv(res.stdout)
    assert [int(r) for _, r in rows] == [b % 2 for b in BELL_SMALL]


def test_bell_mod_cross_check():
    res = run_cli("bell-mod", "5", "200", "--cross-check")
    assert res.returncode == 0


def test_bell_mod_cross_check_past_depth_is_usage_error():
    res = run_cli("bell-mod", "5", "300", "--cross-check")
    assert res.returncode == 2
    assert "depth" in res.stderr


def test_bell_mod_builds_an_exact_table_only_to_cross_check(monkeypatch):
    real = cli.build_bell_binomial

    def no_table(n_max):
        raise AssertionError("bell-mod built an exact table")

    monkeypatch.setattr(cli, "build_bell_binomial", no_table)
    res = run_cli("bell-mod", "13", "1000")
    assert res.returncode == 0
    rows = res.stdout.splitlines()
    assert len(rows) == 1002 and rows[-1] == f"1000\t{real(1000)[-1] % 13}"

    calls = []

    def recording(n_max):
        calls.append(n_max)
        return real(n_max)

    monkeypatch.setattr(cli, "build_bell_binomial", recording)
    assert run_cli("bell-mod", "5", "200", "--cross-check").returncode == 0
    assert calls == [200]


def test_bell_mod_seed_window_past_depth_is_refused_before_any_work(monkeypatch):
    def no_stream(p, n_max):
        raise AssertionError("bell-mod started the stream")

    monkeypatch.setattr(cli, "_residue_blocks", no_stream)
    res = run_cli("bell-mod", "211", "300")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "bell-mod 211 seeds needs table index 210" in res.stderr


def test_bell_mod_composite_p_is_usage_error():
    res = run_cli("bell-mod", "4", "10")
    assert res.returncode == 2
    assert "not prime" in res.stderr


def test_bell_mod_window_too_short_is_usage_error():
    res = run_cli("bell-mod", "7", "5")
    assert res.returncode == 2
    assert "seed window" in res.stderr


# ----------------------------------------------------------- shared surface


@pytest.mark.parametrize(
    "args",
    [
        ["bell", "8"],
        ["stirling", "6"],
        ["shift-poly", "6"],
        ["shift-poly", "6", "--check-recursive"],
        ["verify", "5", "1"],
        ["orbits", "2", "2"],
        ["bell-mod", "3", "30"],
    ],
    ids=lambda a: " ".join(x for x in a if not x.isdigit()),
)
def test_formats_round_trip_identically(args):
    tsv = run_cli(*args)
    jl = run_cli(*args, "--format", "json-lines")
    assert tsv.returncode == jl.returncode == 0
    header, rows = parse_tsv(tsv.stdout)
    objs = parse_jsonl(jl.stdout)
    assert len(rows) == len(objs)
    for row, obj in zip(rows, objs):
        assert list(obj) == header
        assert [str(v) for v in obj.values()] == row


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


@pytest.mark.parametrize(
    "args", [["bell", "-1"], ["stirling", "-1"], ["shift-poly", "-1"]], ids=lambda a: a[0]
)
def test_negative_index_is_usage_error(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "must be >= 0" in res.stderr


COMMANDS = "expected a command, one of bell, stirling, shift-poly, verify, orbits, bell-mod"
NOT_INT = "invalid literal for int() with base 10"

# the argv grammar: each argv with its exit code, the start of its stdout
# and its whole stderr; every usage error writes nothing on stdout
GRAMMAR = [
    ("bell 3 --format=json-lines", 0, '{"n": 0, "bell": "1"}\n', ""),
    ("bell --depth 3 --format json-lines 3", 0, '{"n": 0, "bell": "1"}\n', ""),
    ("verify --n-hi=20 5 --n-lo 4 1", 0, "#record\tvalue\np\t5\nm\t1\nprime_power\t5\nn_lo\t4", ""),
    ("bell 3 --depth 1 --depth 3", 0, "#n\tbell\n0\t1\n", ""),  # the last value wins
    ("bell -1", 2, "", "error: bell -1 needs table index -1, which must be >= 0\n"),
    (
        "bell 3 --depth -1",
        2,
        "",
        "error: bell 3 needs table index 3, above the configured depth -1; raise --depth\n",
    ),
    ("-h", 0, "usage: bellshift COMMAND ARGS [options]\n", ""),
    ("--help", 0, "usage: bellshift COMMAND ARGS [options]\n", ""),
    ("--help bell", 0, "usage: bellshift COMMAND ARGS [options]\n", ""),
    ("bell -h", 0, "usage: bellshift bell N [options]\n", ""),
    ("bell-mod x 7 --cap --help", 0, "usage: bellshift bell-mod P N [options]\n", ""),
    ("", 2, "", f"error: {COMMANDS}\n"),
    ("bogus 3", 2, "", f"error: {COMMANDS}; got 'bogus'\n"),
    ("--depth 5 bell 3", 2, "", f"error: {COMMANDS}; got '--depth'\n"),
    ("bell 3 --bogus", 2, "", "error: bell has no option --bogus\n"),
    ("bell 3 --cross", 2, "", "error: bell has no option --cross\n"),
    ("stirling 3 --cross-check", 2, "", "error: stirling has no option --cross-check\n"),
    ("bell 3 --cross-check=yes", 2, "", "error: --cross-check takes no value\n"),
    ("bell 3 --depth", 2, "", "error: --depth needs a value\n"),
    ("bell 3 --format", 2, "", "error: --format needs a value\n"),
    ("bell 3 --format xml", 2, "", "error: --format must be one of tsv, json-lines; got 'xml'\n"),
    ("bell x", 2, "", f"error: {NOT_INT}: 'x'\n"),
    ("bell 3 --depth=1.5", 2, "", f"error: {NOT_INT}: '1.5'\n"),
    ("bell 3 4", 2, "", "error: expected bell N; got bell 3 4\n"),
    ("bell", 2, "", "error: expected bell N; got bell\n"),
    ("verify 3", 2, "", "error: expected verify P M; got verify 3\n"),
]


@pytest.mark.parametrize("args, code, out, err", GRAMMAR, ids=[g[0] or "nothing" for g in GRAMMAR])
def test_argv_grammar(args, code, out, err):
    res = run_cli(*args.split())
    assert (res.returncode, res.stderr) == (code, err)
    assert res.stdout.startswith(out) and (code == 0) == (res.stdout != "")


@pytest.mark.parametrize(
    "moved, plain",
    [
        ("bell --format=json-lines 9", "bell 9 --format json-lines"),
        ("verify --n-hi=40 5 --n-lo 17 2 --format=json-lines", "verify 5 2 --n-lo 17 --n-hi 40"),
        ("bell-mod --cross-check --depth=300 5 300", "bell-mod 5 300 --depth 300 --cross-check"),
    ],
)
def test_option_place_and_form_change_no_byte(moved, plain):
    fmt = ["--format", "json-lines"] if "json-lines" in moved else []
    a, b = run_cli(*moved.split()), run_cli(*plain.split(), *fmt)
    assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)
    assert (b.returncode, b.stderr) == (0, "")


def test_ints_are_read_under_the_digit_guard():
    # parsing a huge decimal is quadratic, so the guard that main lifts for
    # a command's work still holds while the argv is read
    if DIGITS == 0:
        pytest.skip("this interpreter runs without an int-to-str digit guard")
    res = run_cli("bell", "3", "--depth", "9" * (DIGITS + 1))
    assert (res.returncode, res.stdout) == (2, "")
    assert len(res.stderr.splitlines()) == 1 and f"({DIGITS} digits)" in res.stderr


def test_help_is_the_benchmark_start_up_probe():
    # perfbench/run.py times this process as its start-up sample, and runs
    # nothing unless it exits 0 with stdout starting "usage:"
    res = subprocess.run(
        [sys.executable, "-m", "bellshift", "--help"], capture_output=True, env=child_env()
    )
    assert (res.returncode, res.stderr) == (0, b"")
    assert res.stdout.startswith(b"usage:")


def test_help_names_every_command_and_each_its_options():
    top = run_cli("--help").stdout
    every = {flag for *_, own in cli._COMMANDS.values() for flag, _, _ in own}
    for name, (_, about, metavars, own) in cli._COMMANDS.items():
        assert f"\n  {name} {metavars} " in top and f" {about}\n" in top
        res = run_cli(name, "--help")
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.startswith(f"usage: bellshift {name} {metavars} [options]\n\n{about}\n")
        mine = {flag for flag, _, _ in (*cli._COMMON, *own)}
        for flag in every | mine:
            assert (f"\n  {flag} " in res.stdout) == (flag in mine), (name, flag)


@pytest.mark.parametrize("args", [["verify", "2", "10000000"], ["orbits", "2", "10000000"]])
def test_huge_prime_power_is_refused_before_it_is_formed(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "2^10000000" in res.stderr and len(res.stderr) < 200


@pytest.fixture
def no_work(monkeypatch):
    """Every way into real work raises, so a refusal that starts work
    exits 3 at once instead of running."""

    def work(*args):
        raise AssertionError("a refusal started work")

    for target in (
        "bellshift.partitions._orbit_reps",
        "bellshift.modular._blocks",
        "bellshift.cli.build_bell_binomial",
        "bellshift.cli.stirling_rows",
    ):
        monkeypatch.setattr(target, work)


def test_ground_set_past_the_fixed_ceiling_is_refused_before_enumeration(no_work):
    res = run_cli("orbits", "257", "1", "--cap", "300")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "257 exceeds 256" in res.stderr


# each refusal with its whole stderr line; none writes to stdout
REFUSALS = [
    ("orbits 2 4", "n=16 exceeds the enumeration cap of 12"),
    ("orbits 11 1 --cap 8", "n=11 exceeds the enumeration cap of 8"),
    ("orbits 257 1 --cap 300", "n=257 exceeds 256, the largest ground set the enumerator takes"),
    ("orbits 2 10000000", "n=2^10000000 exceeds the enumeration cap of 12"),
    ("bell-mod 7 5", "n_max must be >= p-1 = 6 to cover the seed window"),
    ("bell-mod 4 10", "p=4 is not prime"),
    (
        "bell-mod 211 100",
        "bell-mod 211 seeds needs table index 210, above the configured depth 200; raise --depth",
    ),
    ("verify 9 1", "p=9 is not prime"),
    ("verify 3 0", "exponent m must be >= 1"),
    ("verify 2 1 --n-lo 0", "need 1 <= n_lo <= n_hi, got [0, 100]"),
    ("verify 2 1 --n-lo 7 --n-hi 3", "need 1 <= n_lo <= n_hi, got [7, 3]"),
    (
        "verify 2 1 --n-hi 300",
        "verify 2 1 needs table index 302, above the configured depth 200; raise --depth",
    ),
    ("verify 2 10000000", "verify 2 10000000: 2^10000000 is above the configured depth"),
    ("bell 9 --depth 5", "bell 9 needs table index 9, above the configured depth 5; raise --depth"),
    ("bell -1", "bell -1 needs table index -1, which must be >= 0"),
    ("stirling -1", "stirling -1 needs table index -1, which must be >= 0"),
    ("shift-poly -1", "shift-poly -1 needs table index -1, which must be >= 0"),
]


@pytest.mark.parametrize("args, line", REFUSALS, ids=[args for args, _ in REFUSALS])
def test_refusal_is_one_stderr_line(no_work, args, line):
    res = run_cli(*args.split())
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {line}\n")


# each subcommand with its opt-in check, if it has one
COMMAND_FLAGS = {
    "bell": "--cross-check",
    "stirling": None,
    "shift-poly": "--check-recursive",
    "verify": None,
    "orbits": None,
    "bell-mod": "--cross-check",
}


@st.composite
def accepted_argvs(draw):
    """An argv that the parser accepts, its limits bounded so that no run is
    long: depth <= 300, cap <= 8 and N <= 2000.  Small primes and short
    ranges are drawn often enough that every command also runs to exit 0.
    The options come in any order, each as ``--opt value`` or
    ``--opt=value``, and the positionals, in their order, anywhere among
    them after the command."""

    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    def limit(hi):  # the bound itself half the time
        return draw(st.just(hi) | st.integers(-1, hi))

    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    if command in ("bell", "stirling", "shift-poly"):
        args = [ints(-3, 300)]
    else:
        p = draw(st.integers(-3, 300) | st.sampled_from([2, 3, 5, 7]))
        args = [p, ints(-3, 2000) if command == "bell-mod" else ints(-1, 3)]
    options = [("--depth", limit(300)), ("--cap", limit(8))]
    options.append(("--format", draw(st.sampled_from(["tsv", "json-lines"]))))
    if command == "verify":  # n_hi may fall below n_lo
        n_lo = ints(-3, 30)
        n_hi = n_lo + draw(st.integers(-5, 30) | st.integers(-5, 1970))
        options += [("--n-lo", n_lo), ("--n-hi", n_hi)]
    words = [
        [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
        for flag, value in draw(st.permutations(options))
    ]
    flag = COMMAND_FLAGS[command]
    if flag and draw(st.booleans()):
        words.insert(ints(0, len(words)), [flag])
    at = 0  # the positionals keep their order, each anywhere after the last
    for arg in args:
        at = ints(at, len(words))
        words.insert(at, [str(arg)])
        at += 1
    return [command, *chain.from_iterable(words)]


# the columns whose json-lines values are numbers; every other is a string
INDEX_COLUMNS = {"n", "k", "r", "residue"}


@settings(max_examples=200, deadline=None)
@given(argv=accepted_argvs())
def test_every_accepted_argv_exits_ok_or_usage(argv):
    res = run_cli(*argv)
    code, out, err = res.returncode, res.stdout, res.stderr
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return
    assert err == ""
    if "tsv" in argv or "--format=tsv" in argv:
        header, rows = parse_tsv(out)
        assert all(len(row) == len(header) for row in rows)
    else:
        objs = parse_jsonl(out)
        assert objs and all(isinstance(obj, dict) for obj in objs)
        for obj in objs:
            for field, value in obj.items():
                assert type(value) is (int if field in INDEX_COLUMNS else str), (argv, field)


def test_huge_depth_is_only_a_bound():
    res = run_cli("bell", "5", "--depth", "10000000000000000000")
    assert res.returncode == 0
    assert [int(v) for _, v in parse_tsv(res.stdout)[1]] == list(BELL_SMALL[:6])


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellshift", "bell-mod", "7", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"#n\tresidue\n"
    assert proc.stdout.readline() == b"0\t1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_closed_stdout_mid_wide_rows_exits_141_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellshift", "stirling", "300", "--depth", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"#n\tk\tvalue\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


# sha256 of stdout per command and format, recorded from a known-good
# build: the six criterion-8 commands, three more orbits, two long
# bell-mod runs, the second past 5- and 6-digit indices, and the
# benchmark's deepest Bell-table ops.  A change to any of these bytes
# must update this table on purpose.
RECORDED_DIGESTS = {
    ("bell 30 --cross-check", "tsv"): "a694a9568bf41dc7c3e7dc48936db26fb78b0ebba5c0fcebb6d5e7d8f8eb6a0a",
    ("bell 30 --cross-check", "json-lines"): "04f1324c9e613cbef79cc1a7186e4ce13c5b6fb91a10ae0f48c916c28c5a7d52",
    ("stirling 12", "tsv"): "4094efdf599aef7fc55d43c96227e42214ee933c755200c8033925bf14013c13",
    ("stirling 12", "json-lines"): "c2cea6f083348c8c370f41d38c5ca4aeebb06eb90ecdff939dd1ba574d70b5f1",
    ("stirling 300 --depth 300", "tsv"): "913237fd7a2455d6913dff69ba1a41a31c7db2856d6bac08a35c0e66a2d02df9",
    ("stirling 300 --depth 300", "json-lines"): "a8243517faebc349dc851ed663b4f753c47fbf58cb5bdd4e7c43bc6093fa29dd",
    ("shift-poly 10 --check-recursive", "tsv"): "0a03547a4500b6d5b282e24da5c2eeacda1632100b5bb530f9574ea08fdf2bee",
    ("shift-poly 10 --check-recursive", "json-lines"): "bbae2e2083d4b0512adb63d500a3c2b5c0f871a29cb74ceffe3c1ab0dd4842da",
    ("shift-poly 250 --check-recursive --depth 250", "tsv"): "c5513134eca1ec72c454b2aaaf92a3db8178480820fc2a94bf6eadccf602ddb0",
    ("shift-poly 250 --check-recursive --depth 250", "json-lines"): "7b85d3808f1d448417f0f0277f7b58179c3d1bba6417e3e6562456b4b85b1930",
    ("verify 3 2", "tsv"): "431000869204c7128ebfd2e463683c185f099b6cf998bff25a502cdc50c83ffb",
    ("verify 3 2", "json-lines"): "652d7ffc06a9cab69d9042075ecff071d2efcc56e514630390bb0fc564c8807c",
    ("orbits 3 1", "tsv"): "a31297acc8984ca71e62fcb318c64d3ababd2ef3f80c0dbee9ef90e5142380a0",
    ("orbits 3 1", "json-lines"): "0d2b4e08721eebb4ede47c4f2a05246bd7bf0e7440a37ca227eea5659d56beeb",
    ("bell-mod 7 500", "tsv"): "a01f22f2b126a72db2136a29072b04d38404169aa14f105663a43020321a01e8",
    ("bell-mod 7 500", "json-lines"): "27ba1afb109099a5c20f618e0b3b2a0955f132eb79a715cc82ccd3118ac383a6",
    ("orbits 2 3", "tsv"): "925bca8a031d46bae19957806348ce138abee4da017093360aab9616aa95a77e",
    ("orbits 2 3", "json-lines"): "d2a303c845dc38ca33393d2a329b1d844a656e9d5bea5bc7f52f92a8269557e9",
    ("orbits 3 2", "tsv"): "9aff89760eeaf51c5e36990dcdeac7f790b42b1632291a5d123a8c57b93de800",
    ("orbits 3 2", "json-lines"): "16da7aef866add2b1e3c6ad29b39c52e3a3ee2213694af4757dc2f0748842ea2",
    ("orbits 7 1", "tsv"): "b9bed29b90bab6557bd2a34e3dae0dadddc857d3fa7f4c18527473ecdcdc1195",
    ("orbits 7 1", "json-lines"): "b7028ae52b81f8e6031583eff66b82c2d0b835d33ac8971aa86317ef27b46cc6",
    ("bell-mod 13 5000", "tsv"): "6d8f4d00ae1c3d1612b282339c4fcb6b7d71231cd204c6c5f398e50d325ebe8a",
    ("bell-mod 13 5000", "json-lines"): "8282a7a8afd9ca73bfe7d425f1d706229b94f35637567b22885535f665ac8e69",
    ("orbits 11 1", "json-lines"): "553a72ffc9fcbf9f000c2abc455ef51ceadcc5a5ffeeaca91452ab5787a57b7f",
    ("orbits 2 2", "tsv"): "094c259e7b0ff5dbaab5ffef2dfdfd354922c0391bc893e069525e97f9273431",
    ("orbits 2 2", "json-lines"): "e50542287a52b4b6a1877554c3a1135c61ee9fcb0f135043074764d3d577cff6",
    ("bell-mod 199 100100", "tsv"): "ec9757def09efd6f991192f23a2ba71b0a72e01b8aa596690ebe8ee289146899",
    ("bell-mod 199 100100", "json-lines"): "ab020b73868d1af08fe08bbc82c49afa177974658ec8fd55497c7cabf4af88d4",
    ("bell 1000 --cross-check --depth 1000", "tsv"): "a3f8d3c3179bdb43eaf1df238d751041670e6636dee694bed917aa68c434a5f5",
    ("bell 1000 --cross-check --depth 1000", "json-lines"): "4f125fb703424261d81eab41c35bfe40a90f7c0971f12358dde15d2d20347924",
    ("verify 7 2 --n-hi 600 --depth 649", "tsv"): "91ec2e6def182bf70b4519952954086235b39f5dc6aae229c18af4a2278444ab",
    ("verify 7 2 --n-hi 600 --depth 649", "json-lines"): "0634eee27d17dba010c58ecf31943fcefc04ad30b66b200c95c679a8a16ff845",
    # a range that starts past 1, so n_lo, n_hi and checked all differ
    ("verify 5 2 --n-lo 17 --n-hi 40", "tsv"): "a285544b034f60893d911ea1a6142c327fedccb744d55313a421eb9146609420",
    ("verify 5 2 --n-lo 17 --n-hi 40", "json-lines"): "b1e6ea6b02b21d8ed85d956988abf351f396c0ab70cfb2433d7f78e9552bb920",
    # shift-poly's one emit call without --check-recursive
    ("shift-poly 10", "tsv"): "b30b8f973a4eb8a65cc586bc113f081f0254e3d63dad345dc798debfc7469276",
    ("shift-poly 10", "json-lines"): "9affa358986b5739d7fb57221f59fdc1c040049dfc4c961de1c47c4d2742d3de",
    # every bell-mod argv the modp-stream benchmark workload can draw
    ("bell-mod 11 600000", "tsv"): "79b17b453d9c70dc920b0dc9ff0f3f084b39a2732bc7dd62dddf110a9a33377e",
    ("bell-mod 13 600000", "tsv"): "7ae8a4e8fb8f9a54ea29eaae31ba05234b895fe0fbe980cd20c78b059f31ca0a",
    ("bell-mod 191 300000", "tsv"): "90e81cd5d9b2448bb507702bd79fcbd48c0d96310add56f9406f651e04a4721e",
    ("bell-mod 193 300000", "tsv"): "9364c9dd56bada364fc4500bd940c3eb20d5c8c9f4763fb0ec9bc6726aa4690f",
    ("bell-mod 197 300000", "tsv"): "0b705d6b277c8140d4c1e92fa5ef183f79411cd53273f892015f0ec8b356c02b",
    ("bell-mod 199 300000", "tsv"): "71bb769ca7f167b1d39bf668cff767bc9a558c28eba5fb141b21f287fc2c6224",
    ("bell-mod 23 100000", "json-lines"): "5f804a600a56bebc919893b61ed4fc55db7dd85c5dce908d71b72ddebbc91ef0",
    ("bell-mod 29 100000", "json-lines"): "2dd7aaea79620a9b44ea7976ab7a5f955163b5c1419a263e6b0abf515865ac39",
    ("bell-mod 31 100000", "json-lines"): "78a8137c4a0e4d1c5eb91c7acb031e037b9c2606e3d19cb56c31acf1325caf9b",
    # residue-stream block and index edges: 2197 = 13^3, 4096 = 2^12, and
    # p = 251, whose residues fill a byte, and p = 1009, whose do not
    ("bell-mod 13 2197", "tsv"): "ac769d0415771b2543273ee8e6979ae638f35c63bfc90e384ab4611ecf4e9e8e",
    ("bell-mod 13 2197", "json-lines"): "114afd4f7fbfe1f4af2b61f5a79287f57466bef5ba7422c24687d199de5e0c10",
    ("bell-mod 2 4096", "tsv"): "215e3f07bb57b12105800f15ebd9b593038e607cc8c9afe2edbe3d0a832598b8",
    ("bell-mod 2 4096", "json-lines"): "e1876ce3a63822db1f272e2ed56b61227dacd3a29701d52177ea1543911124b1",
    ("bell-mod 251 1000 --depth 250", "tsv"): "107a954ab553c8d0a7e6be0467c88b03944d313e65bd2c91f7b18625db03a9a7",
    ("bell-mod 251 1000 --depth 250", "json-lines"): "9b41b5d9be79cb2c8b99cc1e44f24f661cc55a60c830aa30972ce67c6da1dfd2",
    ("bell-mod 1009 5000 --depth 1008", "tsv"): "40047c28006ad38499521c4a6fbb02a32862d825bb2612a45f829b2aaa56751a",
    ("bell-mod 1009 5000 --depth 1008", "json-lines"): "9424356fe6179ecfa54528a67b635ca031f218e63841fee1f3b59f9db803a76d",
}


@pytest.mark.parametrize("args,fmt", list(RECORDED_DIGESTS))
def test_stdout_matches_recorded_digests(args, fmt):
    res = run_cli(*args.split(), "--format", fmt)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == RECORDED_DIGESTS[args, fmt]


def test_deep_bell_prints_without_digit_guard_failure():
    # B_2000 has 4,350 digits, past the interpreter's default int-to-str
    # guard of 4,300, so this exits 3 unless main lifts the guard; main
    # gives the caller's limit back when it returns (run_cli checks that)
    res = run_cli("bell", "2000", "--depth", "2000")
    assert res.returncode == 0, res.stderr
    last = parse_tsv(res.stdout)[1][-1]
    assert last[0] == "2000" and len(last[1]) == 4350


# ----------------------------------------- counterexample exit paths (forced)


def test_forced_touchard_counterexample_exits_one(monkeypatch):
    def fake(pp, n_lo, n_hi, bell):
        return ((4, 1, 0),)

    monkeypatch.setattr(cli, "touchard_check", fake)
    res = run_cli("verify", "2", "1")
    assert counterexample(res) == "Touchard's congruence fails at n=4 lhs=1 rhs=0"
    out = res.stdout
    assert "n=4 lhs=1 rhs=0" in out
    assert "counterexample" in out
    assert "checked\t100\n" in out


def test_forced_cross_recurrence_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "stirling_rows", lambda n_max: ((0,) for _ in range(n_max + 1)))
    res = run_cli("bell", "3", "--cross-check")
    assert counterexample(res) == "recurrences disagree at n=0: 1 != 0"


def test_forced_construction_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "shift_poly_recursive", lambda j: (9,) * (j + 1))
    res = run_cli("shift-poly", "2", "--check-recursive")
    assert "paths disagree" in counterexample(res)


def test_forced_stream_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "_residue_blocks", lambda p, n: [memoryview(bytes(n + 1))])
    res = run_cli("bell-mod", "3", "10", "--cross-check")
    assert "stream disagrees" in counterexample(res)
    assert res.stdout == ""


def test_forced_missing_fixed_point_exits_one(monkeypatch):
    real = cli.orbit_decomposition

    def drop_one_fixed(n, cap):
        out = tuple(real(n, cap))
        victim = next(i for i, (_, size) in enumerate(out) if size == 1)
        return out[:victim] + out[victim + 1 :]

    monkeypatch.setattr(cli, "orbit_decomposition", drop_one_fixed)
    res = run_cli("orbits", "3", "1")
    assert counterexample(res) == "orbits of 3 hold 4 partitions, B_3 = 5"
    assert records(res.stdout)["status"] == "counterexample"


def test_forced_fixed_count_mismatch_exits_one(monkeypatch):
    # the orbit of size 3 reported as three fixed points keeps the total at B_3
    real = cli.orbit_decomposition

    def split_orbit(n, cap):
        for rep, size in real(n, cap):
            yield from [(rep, 1)] * size

    monkeypatch.setattr(cli, "orbit_decomposition", split_orbit)
    res = run_cli("orbits", "3", "1")
    assert counterexample(res) == "5 fixed partitions, expected 2"
    assert records(res.stdout)["total_partitions"] == "5"


def test_forced_residue_mismatch_exits_one(monkeypatch):
    # the sweep is clean, so the B_{p^m} residue is the check that fails
    monkeypatch.setattr(cli, "reduce_shift_poly", lambda pp, bell: 1)
    res = run_cli("verify", "3", "2")
    assert counterexample(res) == "B_9 mod 3 is 1, predicted 0"
    rec = records(res.stdout)
    assert rec["counterexample_count"] == "0" and rec["status"] == "counterexample"


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
def test_forced_missing_orbit_exits_one(monkeypatch, p, m):
    # a walk that loses one orbit of size > 1 keeps the fixed count and,
    # since the size is a multiple of p, the residue: only the total
    # against B_n catches it
    real = cli.orbit_decomposition
    dropped = []

    def drop_one_orbit(n, cap):
        for rep, size in real(n, cap):
            if size > 1 and not dropped:
                dropped.append(size)
                continue
            yield rep, size

    monkeypatch.setattr(cli, "orbit_decomposition", drop_one_orbit)
    res = run_cli("orbits", str(p), str(m))
    n = p**m
    bell = cli.build_bell_binomial(n)[n]
    total = bell - dropped[0]
    assert counterexample(res) == f"orbits of {n} hold {total} partitions, B_{n} = {bell}"
    rec = records(res.stdout)
    assert rec["total_partitions"] == str(total)
    assert rec["fixed_count"] == rec["expected_fixed"] == str(m + 1)
    assert rec["status"] == "counterexample"


def test_internal_error_exits_three_with_traceback(monkeypatch):
    def broken(n_max):
        raise ValueError("library fault")

    monkeypatch.setattr(cli, "build_bell_binomial", broken)
    res = run_cli("bell", "3")
    assert res.returncode == 3
    err = res.stderr
    assert err.startswith("Traceback")
    assert "ValueError: library fault" in err
