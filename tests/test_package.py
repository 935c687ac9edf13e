"""The package's public surface is exactly its four layers' surfaces."""

from __future__ import annotations

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
