from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bellshift import CongruenceReport, PrimePower
from bellshift import cli

from conftest import BELL_SMALL


def run_cli(
    *args: str, env_extra: dict[str, str] | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BELLSHIFT_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bellshift", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


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


def test_ground_set_past_byte_labels_is_refused_before_enumeration():
    res = run_cli("orbits", "257", "1", "--cap", "300", timeout=30)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "257^1 exceeds 256" in res.stderr


def test_huge_depth_is_only_a_bound():
    res = run_cli("bell", "5", "--depth", "10000000000000000000")
    assert res.returncode == 0
    assert [int(v) for _, v in parse_tsv(res.stdout)[1]] == list(BELL_SMALL[:6])


def test_closed_stdout_exits_141_quietly():
    env = {k: v for k, v in os.environ.items() if not k.startswith("BELLSHIFT_")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellshift", "bell-mod", "7", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"#n\tresidue\n"
    assert proc.stdout.readline() == b"0\t1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_repeated_runs_are_byte_identical():
    a = run_cli("verify", "3", "2", "--format", "json-lines")
    b = run_cli("verify", "3", "2", "--format", "json-lines")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_deep_bell_prints_without_digit_guard_failure():
    # B_250 has over 300 digits; the interpreter's int-to-str guard must
    # be lifted to match the configured depth.
    res = run_cli("bell", "250", "--depth", "250")
    assert res.returncode == 0
    last = parse_tsv(res.stdout)[1][-1]
    assert last[0] == "250" and len(last[1]) > 300


# ----------------------------------------- counterexample exit paths (forced)


def test_forced_touchard_counterexample_exits_one(monkeypatch, capsys):
    pp = PrimePower(2, 1)

    def fake(pp_, n_lo, n_hi, bell):
        return CongruenceReport(pp_, n_lo, n_hi, 3, ((4, 1, 0),))

    monkeypatch.setattr(cli, "touchard_check", fake)
    assert cli.main(["verify", "2", "1"]) == 1
    out = capsys.readouterr().out
    assert "n=4 lhs=1 rhs=0" in out
    assert "counterexample" in out


def test_forced_cross_recurrence_mismatch_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "stirling_rows", lambda n_max: ((0,) for _ in range(n_max + 1)))
    assert cli.main(["bell", "3", "--cross-check"]) == 1
    assert "recurrences disagree" in capsys.readouterr().err


def test_forced_construction_mismatch_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "shift_poly_recursive", lambda j: (9,) * (j + 1))
    assert cli.main(["shift-poly", "2", "--check-recursive"]) == 1
    assert "paths disagree" in capsys.readouterr().err


def test_forced_stream_mismatch_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "bell_mod_p_stream", lambda p, n, seeds: [0] * (n + 1))
    assert cli.main(["bell-mod", "3", "10", "--cross-check"]) == 1
    assert "stream disagrees" in capsys.readouterr().err


def test_forced_missing_fixed_point_exits_one(monkeypatch, capsys):
    real = cli.orbit_decomposition

    def drop_one_fixed(n, cap):
        out = real(n, cap)
        victim = next(i for i, s in enumerate(out) if s.size == 1)
        return out[:victim] + out[victim + 1 :]

    monkeypatch.setattr(cli, "orbit_decomposition", drop_one_fixed)
    assert cli.main(["orbits", "3", "1"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_internal_error_exits_three_with_traceback(monkeypatch, capsys):
    def broken(n_max):
        raise ValueError("library fault")

    monkeypatch.setattr(cli, "build_bell_binomial", broken)
    assert cli.main(["bell", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "ValueError: library fault" in err
