"""bellshift benchmark: every CLI subcommand end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root; the program is imported from ``src/``.
One client runs one child at a time (a closed loop): each op is
``python -m bellshift ...`` (or a library op in ``child.py``) with its
stdout on a pipe that this process drains, and every output is checked
by ``oracle.py``, which does not use bellshift.  A pass runs each of the
workload's ops once; passes repeat until the next would overrun
``--seconds``.  An op fails on a nonzero exit code, a wrong output or a
timeout; ``failed / attempted`` is the error rate.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each a
median over passes: ``wall_rel`` and ``cpu_rel``, the pass's wall and
CPU time in units of a fixed reference computation timed just before
each op (see ``Pass.relative``); ``peak_rss_mb``, the largest child peak
RSS; and ``setup_s``, the start-up time of ``python -m bellshift
--help``, median of samples taken through the run.  ``--trace 1``
alternates untraced passes with passes whose children run under
``child.py --trace`` and reports the per-layer metrics, each a median
over traced passes.  The last stdout
line is one JSON object; the lines above it name each metric with its
unit and sample count, and every raw sample is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import oracle
from layers import LAYERS, merge
from workloads import CAP, WORKLOADS, Op, build, cli, lib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_TIMEOUT_S = 60.0
SETUP_SAMPLES = 5  # at the start; one more is taken before every untraced pass
REFERENCE_OUTPUT = b"599998 645\n"
# the focus of each workload: the layers meant to carry most of its traced time
FOCUS = {
    "exact-bigint": ("exact", "shiftpoly"),
    "modp-stream": ("modular", "cli"),
    "partition-oracle": ("partitions",),
}


def child_env() -> dict[str, str]:
    """The environment minus anything that could change a child's work or
    its bytecode cache; the program comes from ``src/``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BELLSHIFT_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Run:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    err: bytes
    trace: bytes
    timed_out: bool


class Launcher:
    """Client side of ``launcher.py``: one child at a time, its pipes drained here."""

    def __enter__(self) -> Launcher:
        self.pid: int | None = None  # the child running now
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(HERE / "launcher.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:  # left running by an error in run()
            os.kill(self.pid, signal.SIGKILL)
        self.sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _reply(self) -> dict:
        msg = self.sock.recv(1 << 16)
        if not msg:
            raise RuntimeError("launcher exited")
        return json.loads(msg)

    def run(self, argv: list[str], nfds: int, timeout: float = OP_TIMEOUT_S) -> Run:
        pipes = [os.pipe() for _ in range(nfds)]
        t0 = perf_counter()
        try:
            socket.send_fds(self.sock, [json.dumps({"argv": argv}).encode()],
                            [w for _, w in pipes])
        finally:
            for _, w in pipes:
                os.close(w)
        started = self._reply()
        if "error" in started:
            for r, _ in pipes:
                os.close(r)
            raise OSError(started["error"])
        self.pid = started["pid"]
        chunks: dict[int, list[bytes]] = {r: [] for r, _ in pipes}
        timed_out = False
        with selectors.DefaultSelector() as sel:
            for r in chunks:
                sel.register(r, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - perf_counter()
                if left <= 0 and not timed_out:
                    os.kill(self.pid, signal.SIGKILL)
                    timed_out = True
                for key, _ in sel.select(None if timed_out else left):
                    chunk = os.read(key.fd, 1 << 20)
                    if chunk:
                        chunks[key.fd].append(chunk)
                    else:
                        sel.unregister(key.fd)
                        os.close(key.fd)
        done = self._reply()
        wall = perf_counter() - t0
        self.pid = None
        out, err, trace = ([b"".join(chunks[r]) for r, _ in pipes] + [b""])[:3]
        return Run(done["rc"], wall, done["cpu_s"], done["rss_kb"] / 1024, out, err, trace,
                   timed_out)


@dataclass
class Sample:
    """One op in one pass, as recorded in the results file."""

    op: str
    kind: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    rows: int
    rc: int
    failure: str | None
    trace: dict | None


class Runner:
    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.verified: dict[str, bytes] = {}  # op label -> output already checked
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def argv(op: Op, traced: bool) -> list[str]:
        child = [sys.executable, str(HERE / "child.py")] + (["--trace"] if traced else [])
        if op.kind == "lib":
            return child + ["lib", *op.args]
        return (child + ["cli"] if traced else [sys.executable, "-m", "bellshift"]) + list(op.args)

    def judge(self, op: Op, run: Run) -> str | None:
        """Why the op failed, or None; a verified output is not checked again."""
        if run.timed_out:
            return f"timed out after {OP_TIMEOUT_S} s"
        if run.rc != 0:
            return f"exit code {run.rc}: {run.err.decode(errors='replace')[-300:]}"
        if self.verified.get(op.label) == run.out:
            return None
        try:
            op.check(run.out)
        except oracle.CheckFailed as exc:
            return f"wrong output: {exc}"
        self.verified[op.label] = run.out
        return None

    def record(self, op: Op, run: Run, traced: bool) -> Sample:
        failure = self.judge(op, run)
        trace = None
        if traced and failure is None:
            try:
                trace = json.loads(run.trace)
            except ValueError:
                failure = "no trace report"
        self.attempted += 1
        self.failed += failure is not None
        return Sample(op.label, op.kind, traced, run.wall_s, run.cpu_s, run.rss_mb, len(run.out),
                      run.out.count(b"\n"), run.rc, failure, trace)

    def run_op(self, op: Op, traced: bool) -> Sample:
        return self.record(op, self.launcher.run(self.argv(op, traced), 3 if traced else 2),
                           traced)

    def setup_sample(self) -> float:
        run = self.launcher.run([sys.executable, "-m", "bellshift", "--help"], 2)
        if run.rc != 0 or not run.out.startswith(b"usage:"):
            raise RuntimeError(f"bellshift does not start (exit {run.rc}): "
                               f"{run.err.decode(errors='replace')[-500:]}")
        return run.wall_s

    def run_pass(self, ops: list[Op], traced: bool) -> Pass:
        p = Pass(traced)
        for op in ops:
            if not traced:
                ref = self.launcher.run([sys.executable, str(HERE / "reference.py")], 2)
                if ref.rc != 0 or ref.out != REFERENCE_OUTPUT:
                    raise RuntimeError(f"reference.py failed (exit {ref.rc}): {ref.out!r}")
                p.ref_wall.append(ref.wall_s)
                p.ref_cpu.append(ref.cpu_s)
            p.samples.append(self.run_op(op, traced))
        return p


@dataclass
class Pass:
    """Each op run once; an untraced pass also times ``reference.py`` just
    before each op."""

    traced: bool
    samples: list[Sample] = field(default_factory=list)
    ref_wall: list[float] = field(default_factory=list)
    ref_cpu: list[float] = field(default_factory=list)

    def total(self, what: str) -> float:
        return sum(getattr(s, what) for s in self.samples)

    def relative(self, what: str) -> float:
        """The pass total of ``wall_s`` or ``cpu_s`` in units of the mean
        reference run's.

        On a shared 2-vCPU virtual machine the CPU speed was seen to swing
        by up to 2x, for every op alike, in phases of seconds to minutes,
        so pass times in seconds varied by 25-30 % between runs.  The
        reference runs next to each op slow down with it, and the ratio
        stays put.
        """
        refs = self.ref_wall if what == "wall_s" else self.ref_cpu
        return self.total(what) / statistics.fmean(refs)


# per-layer metrics that are not counters of a wrapped function
PASS_LEVEL = {"cli.self_s", "cli.stdout_bytes", "cli.rows", "cli.import_s", "trace.overhead_s"}


def pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer counters of one traced pass, keyed by metric name."""
    fns: dict[str, dict[str, float]] = {}
    out = {"cli.self_s": 0.0, "cli.stdout_bytes": 0, "cli.rows": 0}
    for s in p.samples:
        if s.trace is None:
            continue
        for fn, stats in s.trace["fns"].items():
            merge(fns.setdefault(fn, {}), stats)
        if s.kind == "cli":
            out["cli.self_s"] += s.trace["main_s"] - s.trace["top_s"]
            out["cli.stdout_bytes"] += s.stdout_bytes
            out["cli.rows"] += s.rows
    for fn, stats in fns.items():
        out.update({f"{fn}.{key}": value for key, value in stats.items()})
    return out


def layer_shares(traced: list[Pass]) -> dict[str, float]:
    """Median share of the traced pass wall time spent in each layer."""
    shares: dict[str, list[float]] = {layer: [] for layer in [*LAYERS, "cli"]}
    for p in traced:
        wall = p.total("wall_s")
        layers = pass_layers(p)
        for layer in LAYERS:
            busy = sum(layers.get(f"{layer}.{fn}.s", 0.0) for fn in LAYERS[layer])
            shares[layer].append(busy / wall)
        shares["cli"].append(layers["cli.self_s"] / wall)
    return {layer: statistics.median(v) for layer, v in shares.items()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def median_of(values: list[float]) -> tuple[float, str]:
    """The median, and how it was taken."""
    return statistics.median(values), (f"median of {len(values)}: min {min(values):.4g}, "
                                       f"max {max(values):.4g}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg()}
    ops = build(name, seed)
    with Launcher() as launcher:
        runner = Runner(launcher)
        runner.setup_sample()  # untimed warm-up: fills the bytecode cache
        setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
        untraced: list[Pass] = []
        traced: list[Pass] = []
        end = perf_counter() + seconds
        while True:
            setup.append(runner.setup_sample())
            untraced.append(runner.run_pass(ops, False))
            if trace:
                traced.append(runner.run_pass(ops, True))
            # the children's time only: the first round also checks every output
            round_s = sum(p.total("wall_s") + sum(p.ref_wall) for p in (untraced[-1], *traced[-1:]))
            if perf_counter() + round_s > end:
                break

    walls = [p.total("wall_s") for p in untraced]
    summary = [f"{name} seed={seed} trace={int(trace)}: {len(untraced) + len(traced)} passes "
               f"of {len(ops)} ops, attempted {runner.attempted}, failed {runner.failed}, "
               f"error_rate {runner.failed / runner.attempted:.4g}",
               f"  pass wall_s (s, not gated) {median_of(walls)[1]}; reference.py wall_s "
               f"{median_of([r for p in untraced for r in p.ref_wall])[1]}"]
    found: dict[str, tuple[float, str]] = {}
    if not trace:
        found["wall_rel"] = median_of([p.relative("wall_s") for p in untraced])
        found["cpu_rel"] = median_of([p.relative("cpu_s") for p in untraced])
        found["peak_rss_mb"] = median_of([max(s.rss_mb for s in p.samples) for p in untraced])
        found["setup_s"] = median_of(setup)
        wanted = spec["end_to_end"]
    else:
        layers = [pass_layers(p) for p in traced]
        for m in spec["per_layer"]:
            found[m["name"]] = median_of([p.get(m["name"], 0) for p in layers])
        found["cli.import_s"] = median_of([s.trace["import_s"] for p in traced
                                           for s in p.samples if s.trace])
        # each traced pass runs right after an untraced one, at much the same machine speed
        found["trace.overhead_s"] = median_of([t.total("wall_s") - u.total("wall_s")
                                               for u, t in zip(untraced, traced)])
        wanted = spec["per_layer"]
        shares = layer_shares(traced)
        focus = sum(shares[layer] for layer in FOCUS[name])
        summary.append("  share of traced wall time: "
                       + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
                       + f"; {'+'.join(FOCUS[name])} {focus:.3f}")
    metrics = {}
    for m in wanted:
        value, how = found[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        summary.append(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<6} {how}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"meta": meta, "setup_s": setup, "metrics": metrics,
              "passes": [asdict(p) for p in untraced + traced]}
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    for s in (s for p in untraced + traced for s in p.samples if s.failure):
        print(f"  FAILED {s.op}{' (traced)' if s.traced else ''}: {s.failure}")
    print("\n".join(summary))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def corrupt(out: bytes) -> bytes:
    """Change the digit nearest the middle of the output."""
    digits = [i for i, c in enumerate(out) if 48 <= c <= 57]
    i = min(digits, key=lambda i: abs(i - len(out) // 2))
    return out[:i] + bytes([48 + (out[i] - 47) % 10]) + out[i + 1:]


def self_test() -> int:
    """Each checker passes real output and fails corrupted output; a wrong
    exit code and a timeout are failures; every failure is counted."""
    small = [
        cli(partial(oracle.check_bell, n_max=40), "bell", 40, "--cross-check", depth=40),
        cli(partial(oracle.check_stirling, n_max=20), "stirling", 20, depth=20),
        cli(partial(oracle.check_shift_poly, j=20), "shift-poly", 20, "--check-recursive",
            depth=20),
        cli(partial(oracle.check_verify, p=3, m=2, n_hi=30), "verify", 3, 2, "--n-hi", 30),
        cli(partial(oracle.check_orbits, p=2, m=2), "orbits", 2, 2),
        cli(partial(oracle.check_orbits, p=5, m=1), "orbits", 5, 1),
        cli(partial(oracle.check_bell_mod, p=5, n_max=3000, fmt="tsv"), "bell-mod", 5, 3000),
        cli(partial(oracle.check_bell_mod, p=7, n_max=500, fmt="json-lines"),
            "bell-mod", 7, 500, "--format", "json-lines"),
        lib(partial(oracle.check_bell_shift, n_max=6, j_max=5), "bell-shift", 6, 5),
        lib(partial(oracle.check_count_by_blocks, n=7), "count-by-blocks", 7, CAP),
        lib(partial(oracle.check_fixed_partitions, p=2, m=2), "fixed-partitions", 2, 2, CAP),
    ]
    problems = []
    with Launcher() as launcher:
        runner = Runner(launcher)
        for op in small:
            for traced in (False, True):
                run = launcher.run(runner.argv(op, traced), 3 if traced else 2)
                if runner.record(op, run, traced).failure:
                    problems.append(f"{op.label}: real output rejected")
            bad = runner.record(op, Run(**{**asdict(run), "out": corrupt(run.out)}), False)
            lines = run.out.split(b"\n")
            short = b"\n".join(lines[:len(lines) // 2] + lines[len(lines) // 2 + 1:])
            missing = runner.record(op, Run(**{**asdict(run), "out": short}), False)
            wrong_rc = runner.record(op, Run(**{**asdict(run), "rc": 1}), False)
            for what, s in (("corrupted line", bad), ("missing line", missing),
                            ("exit code 1", wrong_rc)):
                print(f"{op.label:<45} {what:<15} -> {s.failure or 'ACCEPTED'}")
                if s.failure is None:
                    problems.append(f"{op.label}: {what} accepted")
        usage = cli(partial(oracle.check_orbits, p=13, m=1), "orbits", 13, 1)
        if runner.run_op(usage, False).failure is None:
            problems.append("an op exiting 2 was accepted")
        slow = launcher.run(runner.argv(small[0], False), 2, timeout=0.001)
        if runner.record(small[0], slow, False).failure is None:
            problems.append("a timed-out op was accepted")
    expected_failed = 3 * len(small) + 2
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"error_rate {runner.failed / runner.attempted:.4g} "
          f"(expected failed {expected_failed})")
    if runner.failed != expected_failed:
        problems.append(f"failed {runner.failed}, expected {expected_failed}")
    for p in problems:
        print("SELF-TEST PROBLEM:", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "bellshift").is_dir():
        print(f"error: no bellshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced_fns = {f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns}
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"] not in PASS_LEVEL and m["name"].rsplit(".", 1)[0] not in traced_fns]
    if unknown:
        print(f"error: BENCHMARK.json names metrics no layer records: {unknown}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
