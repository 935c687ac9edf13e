"""The benchmark's workloads: which ops one pass runs, and how each is checked.

A seed picks each op's parameters from a small menu of near-equal cost
and fixes the order of the ops in the pass.  Every op passes ``--depth``
and ``--cap`` itself, so no environment setting can change its work.

Why these three (each stresses one library layer and leaves the others
nearly idle, so a change to one layer has a workload that shows it and
workloads that predict no change):

* ``exact-bigint`` -- big-integer table building in ``exact`` and
  ``shiftpoly``: the binomial-convolution Bell table, the Stirling
  cross-check (the 200 MB peak), the recurrence shift polynomial.
  ``partitions`` does no work.
* ``modp-stream`` -- word-sized ``modular`` work and the emission of
  many short rows by the CLI; ``exact`` only builds the p seeds.
* ``partition-oracle`` -- the brute-force enumerator in ``partitions``;
  ``exact`` and ``shiftpoly`` do no work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

CAP = 12
DEFAULT_DEPTH = 200


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "cli": python -m bellshift ARGS; "lib": child.py lib ARGS
    args: tuple[str, ...]
    check: Callable[[bytes], None]


def cli(check, *args, depth: int = DEFAULT_DEPTH) -> Op:
    words = tuple(map(str, args))
    return Op(" ".join(words), "cli", words + ("--depth", str(depth), "--cap", str(CAP)), check)


def lib(check, *args) -> Op:
    words = tuple(map(str, args))
    return Op("lib " + " ".join(words), "lib", words, check)


def exact_bigint(rng: random.Random) -> list[Op]:
    n = rng.choice(range(998, 1003))
    j = rng.choice(range(248, 253))
    s = rng.choice(range(298, 303))
    h = rng.choice(range(596, 605))
    sn, sj = rng.choice(range(58, 63)), rng.choice(range(58, 63))
    return [
        cli(partial(oracle.check_bell, n_max=n), "bell", n, "--cross-check", depth=n),
        cli(partial(oracle.check_shift_poly, j=j), "shift-poly", j, "--check-recursive",
            depth=j),
        cli(partial(oracle.check_stirling, n_max=s), "stirling", s, depth=s),
        cli(partial(oracle.check_verify, p=7, m=2, n_hi=h), "verify", 7, 2, "--n-hi", h,
            depth=h + 49),
        lib(partial(oracle.check_bell_shift, n_max=sn, j_max=sj), "bell-shift", sn, sj),
    ]


def modp_stream(rng: random.Random) -> list[Op]:
    ops = []
    for menu, n_max, fmt in (((11, 13), 600_000, "tsv"),
                             ((191, 193, 197, 199), 300_000, "tsv"),
                             ((23, 29, 31), 100_000, "json-lines")):
        p = rng.choice(menu)
        extra = ("--format", fmt) if fmt != "tsv" else ()
        ops.append(cli(partial(oracle.check_bell_mod, p=p, n_max=n_max, fmt=fmt),
                       "bell-mod", p, n_max, *extra, depth=max(p - 1, DEFAULT_DEPTH)))
    return ops


def partition_oracle(rng: random.Random) -> list[Op]:
    p, m = rng.choice(((2, 3), (3, 2)))
    ops = [cli(partial(oracle.check_orbits, p=q, m=e), "orbits", q, e)
           for q, e in ((11, 1), (2, 3), (3, 2), (7, 1))]
    return ops + [
        lib(partial(oracle.check_count_by_blocks, n=11), "count-by-blocks", 11, CAP),
        lib(partial(oracle.check_fixed_partitions, p=p, m=m), "fixed-partitions", p, m, CAP),
    ]


WORKLOADS = {
    "exact-bigint": exact_bigint,
    "modp-stream": modp_stream,
    "partition-oracle": partition_oracle,
}


def build(name: str, seed: int) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
