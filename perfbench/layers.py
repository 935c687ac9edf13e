"""The library functions the traced run wraps, grouped by layer.

Each entry maps a public function name to an extractor of counters from
its result, or to None.  Besides those counters every function records
its busy seconds ``s`` and its ``calls``.  A counter whose key starts
with ``max_`` keeps the largest value seen; every other counter is
summed.

``ITEMS`` names the functions whose result is a sequence of rows: they
count the elements returned, or yielded when the function returns an
iterator.  An iterator's span also covers its iteration, so a streaming
version of such a function still counts as its layer's work.

This module imports nothing from ``bellshift``: the benchmark's parent
process reads the names from it, the traced child applies the
extractors.
"""

from __future__ import annotations


def _bell_table(res) -> dict[str, int]:
    values = getattr(res, "values", res)
    return {"max_index": len(values) - 1, "max_bits": values[-1].bit_length()}


LAYERS = {
    "exact": {
        "build_bell_binomial": _bell_table,
        "build_stirling": lambda res: {"max_row": len(getattr(res, "rows", res)) - 1},
        "bell_from_stirling": None,
        "build_binomials": None,
    },
    "shiftpoly": {
        "shift_poly_recursive": lambda res: {"max_j": len(getattr(res, "coeffs", res)) - 1},
        "shift_poly_closed": None,
        "bell_shift": None,
    },
    "modular": {
        "bell_mod_p_stream": None,
        "touchard_check": lambda res: {"checked": res.checked},
    },
    "partitions": {
        "orbit_decomposition": lambda res: {
            "orbits": len(res),
            "partitions": sum(s.size for s in res),
        },
        "count_by_blocks": lambda res: {"partitions": sum(res)},
        "fixed_partitions": None,
    },
}

ITEMS = {"modular.bell_mod_p_stream": "residues"}


def merge(into: dict[str, float], stats: dict[str, float]) -> None:
    """Fold one set of counters into another by the rule above."""
    for key, value in stats.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
