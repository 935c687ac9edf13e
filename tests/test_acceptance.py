"""Acceptance gate: one test per shipped guarantee, each printed as a
single PASS/FAIL line with its runtime against the stated budget.

Run directly with ``pytest tests/test_acceptance.py``; the report lines
bypass output capture so they are visible in any mode.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

from bellshift import (
    bell_mod_p_stream,
    bell_prime_power_residue,
    bell_shift,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    count_by_blocks,
    congruence_class_partition,
    enumerate_partitions,
    eval_poly,
    fixed_partitions,
    orbit_decomposition,
    reduce_shift_poly,
    shift_poly_closed,
    shift_poly_recursive,
    touchard_check,
    PrimePower,
    SetPartition,
)

from conftest import BELL_SMALL, child_env, prime_powers


def run_criterion(capsys, num: int, slug: str, budget_s: float, body) -> None:
    t0 = time.perf_counter()
    failure: BaseException | None = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed < budget_s
    with capsys.disabled():
        print(
            f"\nACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s, budget {budget_s:g}s)"
        )
    if failure is not None:
        raise failure
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_p5_coefficients(capsys):
    def body():
        expected = (52, 75, 50, 20, 5, 1)
        closed = shift_poly_closed(5, build_bell_binomial(5), build_binomials(5))
        assert closed == expected
        assert shift_poly_recursive(5) == expected

    run_criterion(capsys, 1, "p5-coefficients", 1.0, body)


def test_criterion_2_shift_identity_sweep(capsys):
    def body():
        bell = build_bell_binomial(45)
        tri = build_stirling(30)
        binom = build_binomials(15)
        pairs = 0
        for j in range(0, 16):
            poly = shift_poly_closed(j, bell, binom)
            for n in range(1, 31):
                assert bell_shift(n, j, tri, poly) == bell[n + j]
                pairs += 1
        assert pairs == 480

    run_criterion(capsys, 2, "shift-identity-sweep", 10.0, body)


def test_criterion_3_partition_oracle(capsys):
    def body():
        tri = build_stirling(12)
        subset_t0 = time.perf_counter()
        for n in range(1, 11):
            tallies = count_by_blocks(n)
            assert sum(tallies) == BELL_SMALL[n]
            assert sum(1 for _ in enumerate_partitions(n)) == BELL_SMALL[n]
            for k in range(1, n + 1):
                assert tallies[k - 1] == tri[n][k]
        assert time.perf_counter() - subset_t0 < 10.0
        for n in (11, 12):
            tallies = count_by_blocks(n)
            assert sum(tallies) == BELL_SMALL[n]
            for k in range(1, n + 1):
                assert tallies[k - 1] == tri[n][k]

    run_criterion(capsys, 3, "partition-oracle-to-12", 180.0, body)


def test_criterion_4_prime_power_residue_closed_form(capsys):
    def body():
        bell = build_bell_binomial(250)
        checked = 0
        for pp in prime_powers(250):
            predicted = bell_prime_power_residue(pp)
            assert bell[pp.value] % pp.p == predicted
            assert reduce_shift_poly(pp, bell) == predicted
            checked += 1
        assert checked > 60

    run_criterion(capsys, 4, "residue-closed-form-to-250", 30.0, body)


def test_criterion_5_group_action(capsys):
    def body():
        cases = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)]
        for p, m in cases:
            pp = PrimePower(p, m)
            n = pp.value
            orbits = tuple(orbit_decomposition(n))
            fixed = [rep for rep, size in orbits if size == 1]
            assert len(fixed) == m + 1
            for _, size in orbits:
                while size % p == 0:
                    size //= p
                assert size == 1  # every orbit size is a power of p
            assert sum(size for _, size in orbits) == BELL_SMALL[n]
            assert len(fixed) % p == BELL_SMALL[n] % p
            expected = {congruence_class_partition(pp, j) for j in range(m + 1)}
            assert set(map(SetPartition, fixed)) == expected
            assert set(fixed_partitions(pp)) == expected

    run_criterion(capsys, 5, "group-action-fixed-points", 120.0, body)


def test_criterion_6_touchard_sweep(capsys):
    def body():
        bell = build_bell_binomial(269)
        for p in (2, 3, 5, 7, 11, 13):
            for m in (1, 2):
                assert touchard_check(PrimePower(p, m), 1, 100, bell) == ()

    run_criterion(capsys, 6, "touchard-sweep", 60.0, body)


def test_criterion_7_modular_stream(capsys):
    def body():
        bell = build_bell_binomial(2000)
        for p in (2, 3, 5, 7, 11, 13):
            stream = list(bell_mod_p_stream(p, 2000))
            for n in range(2001):
                assert stream[n] == bell[n] % p

    run_criterion(capsys, 7, "modular-stream-to-2000", 60.0, body)


def test_criterion_8_cli_determinism(capsys):
    def body():
        env = child_env()
        commands = [
            ["bell", "30", "--cross-check"],
            ["stirling", "12"],
            ["shift-poly", "10", "--check-recursive"],
            ["verify", "3", "2"],
            ["orbits", "3", "1"],
            ["bell-mod", "7", "500"],
        ]
        for args in commands:
            for fmt in ("tsv", "json-lines"):
                digests = []
                for _ in range(2):
                    res = subprocess.run(
                        [sys.executable, "-m", "bellshift", *args, "--format", fmt],
                        capture_output=True,
                        env=env,
                    )
                    assert res.returncode == 0, res.stderr.decode()
                    assert res.stdout
                    digests.append(hashlib.sha256(res.stdout).hexdigest())
                assert digests[0] == digests[1]

    run_criterion(capsys, 8, "cli-determinism", 60.0, body)
