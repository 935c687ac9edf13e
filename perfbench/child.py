"""Child-side entry point: library ops, and the traced run of any op.

    python perfbench/child.py [--trace] cli ARGS...      # bellshift.cli.main(ARGS)
    python perfbench/child.py [--trace] lib OP ARGS...   # one library op below

Library ops reach entry points that no CLI path calls, and print TSV
for the benchmark to check.  With ``--trace`` the public functions named
in ``layers.LAYERS`` are wrapped wherever a ``bellshift`` module holds
them, including the names ``bellshift.cli`` imported, and one JSON
object of per-function counters is written to file descriptor 3 when
the op ends.  stdout stays the real pipe, so emission is measured as it
is in an untraced run.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from time import perf_counter

from layers import ITEMS, LAYERS, merge


def bell_shift_sweep(n_max: str, j_max: str) -> int:
    """B_{n+j} through the shift identity for every 1 <= n <= N, 0 <= j <= J."""
    from bellshift import exact, shiftpoly

    n_max, j_max = int(n_max), int(j_max)
    tri = exact.build_stirling(n_max)
    bell = exact.build_bell_binomial(j_max)
    binom = exact.build_binomials(j_max)
    print("#n\tj\tvalue")
    for j in range(j_max + 1):
        poly = shiftpoly.shift_poly_closed(j, bell, binom)
        for n in range(1, n_max + 1):
            print(f"{n}\t{j}\t{shiftpoly.bell_shift(n, j, tri, poly)}")
    return 0


def count_by_blocks(n: str, cap: str) -> int:
    """The enumerator's tally of partitions of an n-set by block count."""
    from bellshift import partitions

    print("#k\tcount")
    for k, count in enumerate(partitions.count_by_blocks(int(n), int(cap)), 1):
        print(f"{k}\t{count}")
    return 0


def fixed_partitions(p: str, m: str, cap: str) -> int:
    """The translation-fixed partitions of Z/p^m Z, then the congruence-class
    partitions for j = 0..m."""
    from bellshift import modular, partitions

    pp = modular.PrimePower(int(p), int(m))
    print("#kind\tindex\tpartition")
    for i, part in enumerate(partitions.fixed_partitions(pp, int(cap))):
        print(f"fixed\t{i}\t{part}")
    for j in range(pp.m + 1):
        print(f"class\t{j}\t{partitions.congruence_class_partition(pp, j)}")
    return 0


LIB_OPS = {
    "bell-shift": bell_shift_sweep,
    "count-by-blocks": count_by_blocks,
    "fixed-partitions": fixed_partitions,
}


class Tracer:
    """Busy time and counters per wrapped function.

    ``top_s`` sums the spans that no other wrapped span encloses, so the
    caller's self time is its wall time minus ``top_s``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.top_s = 0.0
        self._depth = 0

    def _timed(self, st: dict[str, float], call):
        self._depth += 1
        t0 = perf_counter()
        try:
            return call()
        finally:
            dt = perf_counter() - t0
            self._depth -= 1
            st["s"] += dt
            if self._depth == 0:
                self.top_s += dt

    def _iterate(self, st: dict[str, float], key: str | None, it: Iterator):
        while True:
            try:
                item = self._timed(st, it.__next__)
            except StopIteration:
                return
            if key:
                st[key] = st.get(key, 0) + 1
            yield item

    def wrap(self, name: str, fn, extract):
        st = self.stats.setdefault(name, {"s": 0.0, "calls": 0})
        key = ITEMS.get(name)

        def traced(*args, **kwargs):
            st["calls"] += 1
            res = self._timed(st, lambda: fn(*args, **kwargs))
            if isinstance(res, Iterator):
                return self._iterate(st, key, res)
            try:
                if key:
                    merge(st, {key: len(res)})
                if extract:
                    merge(st, extract(res))
            except (AttributeError, TypeError, IndexError):
                pass  # a result shape this tracer does not know: time only
            return res

        return traced

    def install(self) -> None:
        """Replace every layer function in every loaded bellshift module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bellshift"]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"bellshift.{layer}")
            for name, extract in fns.items():
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                traced = self.wrap(f"{layer}.{name}", orig, extract)
                for module in modules:
                    if getattr(module, name, None) is orig:
                        setattr(module, name, traced)


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    kind, args = argv[0], argv[1:]
    t0 = perf_counter()
    import bellshift.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    if trace:
        tracer.install()
    t1 = perf_counter()
    try:
        if kind == "cli":
            code = bellshift.cli.main(args)
        else:
            code = LIB_OPS[args[0]](*args[1:])
        sys.stdout.flush()
    except SystemExit as exc:
        code = exc.code
    finally:
        main_s = perf_counter() - t1
        if trace:
            report = {"import_s": import_s, "main_s": main_s, "top_s": tracer.top_s,
                      "fns": tracer.stats}
            with open(3, "w") as out:
                json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
