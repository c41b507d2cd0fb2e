"""Layering rules that the code's shape must keep.

The change to a forward measure is one exponential tilt, evaluated by one
kernel (``model.tilt_exponents``); only the transform layers
(``affine_core``, ``processes``, ``model``) call ``transform``, which is a
batch of one for the single transform evaluator,
``affine_core.phi_psi_batch``.  Helpers that existed only for tests stay
deleted.  The library runs on numpy
alone: scipy is a test tool, never imported by ``affine_libor``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affine_libor
from affine_libor import affine_core, model, montecarlo, processes, quadrature

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


@pytest.mark.parametrize("name", ["DomainSpec", "domain_spec",
                                  "forward_measure_exponents"])
def test_second_transform_path_is_gone(name):
    for module in (affine_libor, affine_core, model):
        assert not hasattr(module, name)


def test_tail_probe_rides_the_fused_step_without_a_wrapper():
    # the fused step calls the integrand it was given; no per-segment
    # wrapper is left that would need functools.wraps
    assert not hasattr(quadrature, "_with_probe")
    assert "functools" not in imported_names("quadrature")


def test_one_transform_kernel():
    assert model.phi_psi_batch is affine_core.phi_psi_batch


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_closed_caplet_runs_without_scipy():
    """A fresh interpreter prices a closed caplet and never loads scipy."""
    config = SRC.parents[1] / "configs" / "cir.cfg"
    script = (
        "import sys\n"
        "import affine_libor\n"
        "from affine_libor import cli\n"
        f"status = cli.main(['caplet', '--config', {str(config)!r}, "
        "'--method', 'closed'])\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] == 'scipy')\n"
        "print('SCIPY', loaded, status)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert "price = " in run.stdout
    assert run.stdout.strip().splitlines()[-1] == "SCIPY [] 0"
