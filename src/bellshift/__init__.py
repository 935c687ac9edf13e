"""Exact Bell and Stirling combinatorics with modular verification.

The package has four layers:

* :mod:`bellshift.exact` -- arbitrary-precision Pascal, Stirling, and
  Bell tables built from their defining recurrences, returned as plain
  tuples (``bell[n]`` is B_n, ``tri[n][k]`` is {n brace k});
* :mod:`bellshift.shiftpoly` -- the shift polynomials behind
  B_{n+j} = sum_k P_j(k) {n brace k}, built two independent ways and
  returned as tuples of ascending coefficients;
* :mod:`bellshift.modular` -- everything mod p: the two-term reduction
  of P_{p^m}, the residue B_{p^m} = m+1, Touchard's congruence, and a
  streaming B_n mod p generator;
* :mod:`bellshift.partitions` -- a brute-force set-partition oracle and
  the cyclic translation action whose fixed points explain the residue.

The command-line entry point lives in :mod:`bellshift.cli`.
"""

from .exact import (
    bell_from_stirling,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    stirling_rows,
)
from .modular import (
    CongruenceReport,
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    binomial_vanishing_check,
    is_prime,
    prime_powers_up_to,
    reduce_shift_poly,
    touchard_check,
)
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    OrbitSummary,
    SetPartition,
    TranslationAction,
    apply_shift,
    congruence_class_partition,
    count_by_blocks,
    enumerate_partitions,
    fixed_partitions,
    orbit_decomposition,
)
from .shiftpoly import (
    bell_shift,
    eval_poly,
    shift_poly_closed,
    shift_poly_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "bell_from_stirling",
    "build_bell_binomial",
    "build_binomials",
    "build_stirling",
    "stirling_rows",
    "bell_shift",
    "eval_poly",
    "shift_poly_closed",
    "shift_poly_recursive",
    "CongruenceReport",
    "PrimePower",
    "bell_mod_p_stream",
    "bell_prime_power_residue",
    "binomial_vanishing_check",
    "is_prime",
    "prime_powers_up_to",
    "reduce_shift_poly",
    "touchard_check",
    "DEFAULT_ENUMERATION_CAP",
    "OrbitSummary",
    "SetPartition",
    "TranslationAction",
    "apply_shift",
    "congruence_class_partition",
    "count_by_blocks",
    "enumerate_partitions",
    "fixed_partitions",
    "orbit_decomposition",
]
