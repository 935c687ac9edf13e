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

from . import exact, modular, partitions, shiftpoly
from .exact import *
from .modular import *
from .partitions import *
from .shiftpoly import *

__version__ = "0.1.0"

# each layer's own __all__, sorted, layer by layer
__all__ = [
    name for layer in (exact, shiftpoly, modular, partitions) for name in sorted(layer.__all__)
]
