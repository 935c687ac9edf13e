"""The benchmark under ``perfbench/`` calls into ``bellshift``: its library
ops call the public functions directly, and its CLI ops hand argvs to the
CLI's parser.  These tests make those calls in process, so a change under
``src/`` that breaks one fails here and not only as a failed benchmark
run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bellshift import cli

from test_cli import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# each library op at a small size: its argv and the oracle check's sizes
LIB_CASES = {
    "bell-shift": (("6", "6"), "check_bell_shift", {"n_max": 6, "j_max": 6}),
    "count-by-blocks": (("6", "12"), "check_count_by_blocks", {"n": 6}),
    "fixed-partitions": (("2", "2", "12"), "check_fixed_partitions", {"p": 2, "m": 2}),
}
WORKLOADS = ("exact-bigint", "modp-stream", "partition-oracle")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, imported from a path entry that only the
    test using them has."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("child", "layers", "oracle", "workloads")
    yield SimpleNamespace(**{name: importlib.import_module(name) for name in names})
    for name in names:
        sys.modules.pop(name, None)


def test_every_library_op_and_workload_is_covered(bench):
    assert set(bench.child.LIB_OPS) == set(LIB_CASES)
    assert set(bench.workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("op", sorted(LIB_CASES))
def test_library_op_passes_its_oracle(bench, capsys, op):
    args, check, sizes = LIB_CASES[op]
    assert bench.child.LIB_OPS[op](*args) == 0
    getattr(bench.oracle, check)(capsys.readouterr().out.encode(), **sizes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_cli_op_parses(bench, workload):
    ops = [op for op in bench.workloads.build(workload, 1) if op.kind == "cli"]
    assert ops
    for op in ops:
        ns = cli._parse(list(op.args))
        assert ns.func.__name__.startswith("cmd_")


def test_every_modp_stream_op_passes_the_benchmark_oracle(bench):
    # the benchmark's own check of bell-mod's rows, run on each argv the
    # claimed workload draws with seed 1
    ops = [op for op in bench.workloads.build("modp-stream", 1) if op.kind == "cli"]
    assert ops
    for op in ops:
        res = run_cli(*op.args)
        assert (res.returncode, res.stderr) == (0, ""), op.label
        op.check(res.stdout.encode())


def test_every_partition_oracle_op_passes_the_benchmark_oracle(bench, capsys):
    # every CLI and library op of the partition workload as seeds 1 and 3
    # draw them, each checked by the benchmark's own oracle for that op:
    # seed 1 draws fixed-partitions 3 2 and seed 3 draws 2 3
    draws = (bench.workloads.build("partition-oracle", seed) for seed in (1, 3))
    ops = {op.label: op for ops in draws for op in ops}.values()
    assert {op.kind for op in ops} == {"cli", "lib"}
    assert len(ops) == 7
    for op in ops:
        if op.kind == "cli":
            res = run_cli(*op.args)
            assert (res.returncode, res.stderr) == (0, ""), op.label
            out = res.stdout
        else:
            assert bench.child.LIB_OPS[op.args[0]](*op.args[1:]) == 0, op.label
            out = capsys.readouterr().out
        op.check(out.encode())
