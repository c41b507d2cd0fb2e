"""Layering rules that the code's shape must keep.

The change to a forward measure is one exponential tilt, evaluated by one
kernel (``model.tilt_exponents``); only the transform layers
(``affine_core``, ``processes``, ``model``) call ``transform``.  Helpers
that existed only for tests stay deleted.
"""

import ast
from pathlib import Path

import pytest

import affine_libor
from affine_libor import montecarlo, processes

SRC = Path(affine_libor.__file__).resolve().parent


def imported_names(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


@pytest.mark.parametrize("module", ["pricing", "montecarlo", "cli",
                                    "distributions", "quadrature"])
def test_only_the_transform_layers_import_transform(module):
    assert "transform" not in imported_names(module)


@pytest.mark.parametrize("name", ["cir_transform", "gamma_ou_transform",
                                  "subordinator_transform",
                                  "product_transform", "mc_floorlet"])
def test_test_only_helpers_are_gone(name):
    assert not hasattr(affine_libor, name)
    assert not hasattr(processes, name)
    assert not hasattr(montecarlo, name)
