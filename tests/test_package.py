"""The package's public surface is exactly its four layers' surfaces."""

from __future__ import annotations

import ast
from pathlib import Path

import bellshift
from bellshift import exact, modular, partitions, shiftpoly

LAYERS = (exact, shiftpoly, modular, partitions)


def test_package_exports_the_union_of_the_layers():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(names) == len(set(names)), "two layers export one name"
    assert len(bellshift.__all__) == len(set(bellshift.__all__))
    assert set(bellshift.__all__) == set(names)


def test_every_exported_name_resolves_to_its_layer():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(bellshift, name) is getattr(layer, name)


def test_package_order_is_each_layers_names_sorted():
    assert bellshift.__all__ == [
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
        "reduce_shift_poly",
        "touchard_check",
        "DEFAULT_ENUMERATION_CAP",
        "SetPartition",
        "apply_shift",
        "congruence_class_partition",
        "count_by_blocks",
        "enumerate_partitions",
        "fixed_partitions",
        "orbit_decomposition",
    ]


def test_package_names_no_public_name_itself():
    # the surface is read from the layers, so a name is listed only there
    tree = ast.parse(Path(bellshift.__file__).read_text())
    named = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in bellshift.__all__
    ]
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert named == []
    assert set(imported) <= {"*", "exact", "modular", "partitions", "shiftpoly"}


def test_every_public_name_has_a_caller_outside_the_tests():
    # apply_shift stays as the tests' oracle for the translation action
    root = Path(__file__).resolve().parent.parent
    files = [*(root / "src" / "bellshift").glob("*.py")]
    files += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    loaded = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = set(bellshift.__all__) - loaded - {"apply_shift"}
    assert unused == set()
