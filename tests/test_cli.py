from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellshift import CongruenceReport, bell_mod_p_stream
from bellshift import cli

from conftest import BELL_SMALL, child_env
from test_partitions import seen_set_orbit_decomposition


# the int-to-str digit limit this process started with: cli.main lifts
# it for the length of one call only
DIGITS = sys.get_int_max_str_digits()


def run_cli(*args: str, env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """``bellshift *args`` run in this process: ``cli.main`` with no
    ``BELLSHIFT_*`` variable but those of ``env_extra``, its stdout and
    stderr captured as text, and argparse's ``SystemExit`` code taken as
    the exit code.  The environment is put back afterwards, and on every
    exit ``cli.main`` must have given back the digit limit."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in [k for k in os.environ if k.startswith("BELLSHIFT_")]:
            mp.delenv(name)
        for name, value in (env_extra or {}).items():
            mp.setenv(name, value)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
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


# ---------------------------------------------------------------- emission


def parent_emit(fields, rows, fmt, big=frozenset()):
    """One ``print`` per row and ``json.dumps`` per json-lines row: the
    byte oracle for the batched ``cli._emit``."""
    if fmt == "tsv":
        print("#" + "\t".join(fields))
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        for row in rows:
            obj = {f: str(v) if f in big else v for f, v in zip(fields, row)}
            print(json.dumps(obj))


_AWKWARD = ['say "hi"', "back\\slash", "tab\there", "two\nlines", "caf\u00e9 \u2211 \U0001d539", ""]


def mixed_rows(count):
    for i in range(count):
        small = (-1) ** i * (i % 7)
        huge = -(10 ** (20 + i)) if i % 3 else 7 ** (i + 40)
        label = _AWKWARD[i % len(_AWKWARD)]
        other = (None, True, 1.5, -3, label)[i % 5]
        value = label if i % 4 == 1 else huge  # a big field may carry a string
        yield (small, value, label, other)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("count", [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_emit_matches_print_and_json_dumps(capsys, fmt, count):
    fields = ("n", "value", "label", "other")
    big = frozenset({"value"})
    parent_emit(fields, mixed_rows(count), fmt, big)
    expected = capsys.readouterr().out
    assert cli._emit(fields, mixed_rows(count), fmt, big) == count
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("p", [2, 13, 199, 1009])
@pytest.mark.parametrize("count", [0, 1, 99, 100, 101, 1000, 10_001])
def test_emit_residue_form_matches_enumerated_rows(capsys, fmt, p, count):
    # 99..101 cross the first chunk's unpadded table; the rest reach
    # every index width up to five digits
    fields = ("n", "residue")
    residues = list(islice(bell_mod_p_stream(p, max(count, p - 1)), count))
    parent_emit(fields, enumerate(residues), fmt)
    expected = capsys.readouterr().out
    assert cli._emit(fields, residues, fmt, modulus=p) == count
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
    assert writers and set(writers) == {"_emit"}
    assert len(writers) == sum(map(writes, ast.walk(tree)))  # none outside a function


def test_only_checked_calls_turn_value_error_into_usage_error():
    # a ValueError from real work is a library fault and must exit 3, so
    # only the wrapper of argument checks and the env parser may catch it
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
    assert sorted(catchers) == ["_checked", "_limit"]
    assert len(catchers) == sum(map(catches, ast.walk(tree)))  # none outside a function


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
    res = run_cli("bell", "9", env_extra={"BELLSHIFT_DEPTH": "5"})
    assert res.returncode == 2
    assert "depth" in res.stderr


def test_depth_flag_overrides_env():
    res = run_cli("bell", "9", "--depth", "9", env_extra={"BELLSHIFT_DEPTH": "5"})
    assert res.returncode == 0
    assert parse_tsv(res.stdout)[1][-1] == ["9", "21147"]


def test_bad_env_value_is_usage_error():
    res = run_cli("bell", "5", env_extra={"BELLSHIFT_DEPTH": "many"})
    assert res.returncode == 2
    assert "not an integer" in res.stderr


def test_bad_depth_env_does_not_reach_commands_without_depth():
    res = run_cli("orbits", "3", "1", env_extra={"BELLSHIFT_DEPTH": "many"})
    assert res.returncode == 0
    assert records(res.stdout)["status"] == "ok"


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


def test_orbits_over_cap_is_usage_error():
    res = run_cli("orbits", "11", "1", "--cap", "8")
    assert res.returncode == 2
    assert "cap" in res.stderr
    assert run_cli("orbits", "2", "4").returncode == 2  # 16 > default cap 12


def test_cap_flag_overrides_env():
    assert run_cli("orbits", "5", "1", env_extra={"BELLSHIFT_CAP": "4"}).returncode == 2
    assert (
        run_cli("orbits", "5", "1", "--cap", "5", env_extra={"BELLSHIFT_CAP": "4"}).returncode
        == 0
    )


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

    monkeypatch.setattr(cli, "bell_mod_p_stream", no_stream)
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
        ["shift-poly", "6"],
        ["verify", "5", "1"],
        ["orbits", "2", "2"],
        ["bell-mod", "3", "30"],
    ],
    ids=lambda a: a[0],
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
        "bellshift.modular._residues",
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
        "bell-mod 211 seeds needs table index 210, above the configured depth 200; "
        "raise --depth (or BELLSHIFT_DEPTH)",
    ),
    ("verify 2 1 --n-lo 7 --n-hi 3", "need 1 <= n_lo <= n_hi, got [7, 3]"),
    ("verify 2 10000000", "verify 2 10000000: 2^10000000 is above the configured depth"),
    ("bell -1", "bell -1 needs table index -1, which must be >= 0"),
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
    """An argv that argparse accepts, its limits bounded so that no run is
    long: depth <= 300, cap <= 8 and N <= 2000.  Small primes and short
    ranges are drawn often enough that every command also runs to exit 0."""

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
    if command == "verify":  # n_hi may fall below n_lo
        n_lo = ints(-3, 30)
        n_hi = n_lo + draw(st.integers(-5, 30) | st.integers(-5, 1970))
        args += ["--n-lo", n_lo, "--n-hi", n_hi]
    args += ["--depth", limit(300), "--cap", limit(8)]
    flag = COMMAND_FLAGS[command]
    if flag and draw(st.booleans()):
        args.append(flag)
    args += ["--format", draw(st.sampled_from(["tsv", "json-lines"]))]
    return [command, *map(str, args)]


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
    if argv[-1] == "tsv":
        header, rows = parse_tsv(out)
        assert all(len(row) == len(header) for row in rows)
    else:
        assert out and all(isinstance(obj, dict) for obj in parse_jsonl(out))


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


def test_repeated_runs_are_byte_identical():
    a = run_cli("verify", "3", "2", "--format", "json-lines")
    b = run_cli("verify", "3", "2", "--format", "json-lines")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


# sha256 of stdout per command and format, recorded from a known-good
# build: the six criterion-8 commands, three more orbits and two long
# bell-mod runs, the second past 5- and 6-digit indices.  A change to
# any of these bytes must update this table on purpose.
RECORDED_DIGESTS = {
    ("bell 30 --cross-check", "tsv"): "a694a9568bf41dc7c3e7dc48936db26fb78b0ebba5c0fcebb6d5e7d8f8eb6a0a",
    ("bell 30 --cross-check", "json-lines"): "04f1324c9e613cbef79cc1a7186e4ce13c5b6fb91a10ae0f48c916c28c5a7d52",
    ("stirling 12", "tsv"): "4094efdf599aef7fc55d43c96227e42214ee933c755200c8033925bf14013c13",
    ("stirling 12", "json-lines"): "c2cea6f083348c8c370f41d38c5ca4aeebb06eb90ecdff939dd1ba574d70b5f1",
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
        return CongruenceReport(n_lo, n_hi, ((4, 1, 0),))

    monkeypatch.setattr(cli, "touchard_check", fake)
    res = run_cli("verify", "2", "1")
    assert res.returncode == 1
    out = res.stdout
    assert "n=4 lhs=1 rhs=0" in out
    assert "counterexample" in out
    assert "checked\t100\n" in out


def test_forced_cross_recurrence_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "stirling_rows", lambda n_max: ((0,) for _ in range(n_max + 1)))
    res = run_cli("bell", "3", "--cross-check")
    assert res.returncode == 1
    assert "recurrences disagree" in res.stderr


def test_forced_construction_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "shift_poly_recursive", lambda j: (9,) * (j + 1))
    res = run_cli("shift-poly", "2", "--check-recursive")
    assert res.returncode == 1
    assert "paths disagree" in res.stderr


def test_forced_stream_mismatch_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "bell_mod_p_stream", lambda p, n: [0] * (n + 1))
    res = run_cli("bell-mod", "3", "10", "--cross-check")
    assert res.returncode == 1
    assert "stream disagrees" in res.stderr


def test_forced_missing_fixed_point_exits_one(monkeypatch):
    real = cli.orbit_decomposition

    def drop_one_fixed(n, cap):
        out = tuple(real(n, cap))
        victim = next(i for i, (_, size) in enumerate(out) if size == 1)
        return out[:victim] + out[victim + 1 :]

    monkeypatch.setattr(cli, "orbit_decomposition", drop_one_fixed)
    res = run_cli("orbits", "3", "1")
    assert res.returncode == 1
    assert "counterexample" in res.stdout


def test_internal_error_exits_three_with_traceback(monkeypatch):
    def broken(n_max):
        raise ValueError("library fault")

    monkeypatch.setattr(cli, "build_bell_binomial", broken)
    res = run_cli("bell", "3")
    assert res.returncode == 3
    err = res.stderr
    assert err.startswith("Traceback")
    assert "ValueError: library fault" in err
