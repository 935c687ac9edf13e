"""The package's public surface is exactly its four layers' surfaces, and
what every process that imports it pays for at start-up."""

from __future__ import annotations

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bellshift
from bellshift import (
    PrimePower,
    SetPartition,
    apply_shift,
    bell_mod_p_stream,
    bell_shift,
    build_bell_binomial,
    build_binomials,
    build_stirling,
    congruence_class_partition,
    count_by_blocks,
    enumerate_partitions,
    eval_poly,
    exact,
    fixed_partitions,
    is_prime,
    modular,
    orbit_decomposition,
    partitions,
    shift_poly_closed,
    shift_poly_recursive,
    shiftpoly,
    stirling_rows,
    touchard_check,
)

from conftest import child_env

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


def test_no_module_reads_the_environment():
    # a run depends on its arguments only
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(bellshift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names if n in readers]
    assert found == []


def test_the_two_bell_recurrences_share_no_private_code():
    # Aitken's triangle and the Stirling rows cross-check each other, so
    # neither may reach a private function of exact that the other reaches,
    # say a shared helper for popping a row; the integer rule is exempt
    tree = ast.parse(Path(exact.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            for node in ast.walk(defs[todo.pop()]):
                if isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
                    seen.add(node.id)
                    todo.append(node.id)
        return {n for n in seen if n.startswith("_")}

    assert "_stirling_step" in reached("stirling_rows")
    assert reached("build_bell_binomial") & reached("stirling_rows") == {"_check_ints"}


def test_every_imported_name_is_used_in_its_module():
    # a swap of one helper for another leaves no stale import behind
    found = []
    for path in sorted(Path(bellshift.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in bound if n not in used | {"*"}]
    assert found == []


# ------------------------------------------------------------------ start-up

# what ``dataclasses`` pulls in; ``json``, which only json-lines output
# needs; and what ``argparse`` pulls in, to parse an argv or write its help
START_UP_FREE = (
    *("dataclasses", "inspect", "ast", "dis", "tokenize", "json"),
    *("argparse", "re", "shutil", "gettext", "locale"),
)

# the CLI's rows and help go to stdout; its one usage error line, then the
# module report, go to stderr
_IMPORT_SET = f"""
import sys
import bellshift, bellshift.cli
assert bellshift.cli.main(["bell", "3"]) == 0
assert bellshift.cli.main(["bell", "--help"]) == bellshift.cli.main(["-h"]) == 0
assert bellshift.cli.main(["bell", "3", "--bogus"]) == 2
print(*sorted(set({START_UP_FREE!r}) & set(sys.modules)), file=sys.stderr)
assert bellshift.cli.main(["bell", "3", "--format", "json-lines"]) == 0
print("json" in sys.modules, file=sys.stderr)
"""


def test_start_up_imports_neither_dataclasses_nor_json():
    # -S: no site-packages hook loads a module the package does not ask for
    res = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SET], capture_output=True, text=True, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == "error: bell has no option --bogus\n\nTrue\n"


# ------------------------------------------------------------ value classes

VALUES = [
    (PrimePower(2, 3), "PrimePower(p=2, m=3)", {"p": 2, "m": 3}),
    (SetPartition((0, 1, 0)), "SetPartition(rgs=(0, 1, 0))", {"rgs": (0, 1, 0)}),
]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(value, text, fields):
    assert repr(value) == text
    values = tuple(fields.values())
    twin = type(value)(**fields)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(values)
    assert value != values and values != value
    assert all(value != other for other, _, _ in VALUES if other is not value)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


def test_value_classes_keep_their_checks():
    with pytest.raises(ValueError, match="not prime"):
        PrimePower(4, 1)
    with pytest.raises(ValueError, match="not canonical"):
        SetPartition((1,))
    with pytest.raises(TypeError, match="must be a tuple"):
        SetPartition([0])


# ---------------------------------------------------------- the integer rule

_PP = PrimePower(2, 1)
_TRI = build_stirling(4)

# each callable with arguments it accepts; every int among them is checked
INT_CALLS = [
    (build_binomials, {"n_max": 3}),
    (stirling_rows, {"n_max": 3}),
    (build_stirling, {"n_max": 3}),
    (build_bell_binomial, {"n_max": 3}),
    (shift_poly_closed, {"j": 2, "bell": (1, 1, 2), "binom": build_binomials(2)}),
    (shift_poly_recursive, {"j": 2}),
    (eval_poly, {"poly": (1, 1), "x": 2}),
    (bell_shift, {"n": 3, "j": 1, "tri": _TRI, "poly": (1, 1)}),
    (is_prime, {"n": 7}),
    (PrimePower, {"p": 2, "m": 1}),
    (touchard_check, {"pp": _PP, "n_lo": 1, "n_hi": 2, "bell": (1, 1, 2, 5, 15)}),
    (bell_mod_p_stream, {"p": 3, "n_max": 5}),
    (enumerate_partitions, {"n": 3, "cap": 12}),
    (count_by_blocks, {"n": 3, "cap": 12}),
    (orbit_decomposition, {"modulus": 3, "cap": 12}),
    (fixed_partitions, {"pp": _PP, "cap": 12}),
    (apply_shift, {"part": SetPartition((0, 1)), "y": 1}),
    (congruence_class_partition, {"pp": _PP, "j": 1}),
]

INT_PARAMS = [
    (call, kwargs, name)
    for call, kwargs in INT_CALLS
    for name, value in kwargs.items()
    if type(value) is int
]


@pytest.mark.parametrize(
    "call, kwargs, name", INT_PARAMS, ids=[f"{c.__name__}-{n}" for c, _, n in INT_PARAMS]
)
@pytest.mark.parametrize("bad", [True, 2.0])
def test_every_int_parameter_refuses_bool_and_float_at_the_call(call, kwargs, name, bad):
    call(**kwargs)
    with pytest.raises(TypeError, match=f"must be of type int, not {type(bad).__name__}"):
        call(**{**kwargs, name: bad})
