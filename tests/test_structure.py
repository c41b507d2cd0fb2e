"""Layering rules that the code's shape must keep.

The change to a forward measure is one exponential tilt, evaluated by one
kernel (``model.tilt_exponents``); only the transform layers
(``affine_core``, ``processes``, ``model``) call ``transform``, which is a
batch of one for the single transform evaluator,
``affine_core.phi_psi_batch``.  Helpers that existed only for tests stay
deleted: every public name of the library is used by the program itself
(the library, the demos, the benchmark or the acceptance gates).  The
library runs on numpy alone: scipy is a test tool, never imported by
``affine_libor``.
"""

import ast
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affine_libor
from affine_libor import (affine_core, distributions, model, montecarlo,
                          pricing, processes, quadrature)

SRC = Path(affine_libor.__file__).resolve().parent
ROOT = SRC.parents[1]


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


@pytest.mark.parametrize("module, name", [
    (model, "forward_price_mgf"), (model, "libor_lower_bound"),
    (montecarlo, "martingale_values"), (montecarlo, "_initial_value")])
def test_test_only_model_helpers_are_gone(module, name):
    assert not hasattr(affine_libor, name)
    assert not hasattr(module, name)


@pytest.mark.parametrize("cls, name", [
    (processes.GammaOuParams, "stationary_cumulant"),
    (processes.GammaOuParams, "driver_cumulant"),
    (processes.LevySubordinatorSpec, "compound_poisson_exponential"),
    (montecarlo.PathBatch, "dump_csv"), (montecarlo.PathBatch, "weights"),
    (montecarlo.PathBatch, "n_paths")])
def test_test_only_methods_are_gone(cls, name):
    assert not hasattr(cls, name)


def test_path_batch_holds_times_and_states_only():
    assert [f.name for f in dataclasses.fields(montecarlo.PathBatch)] == \
        ["times", "states"]


@pytest.mark.parametrize("fn", [montecarlo.agrees,
                                montecarlo.MartingaleReport.passed])
def test_agreement_threshold_is_not_a_knob(fn):
    assert "z_max" not in inspect.signature(fn).parameters


# Values that no program sets to anything but one value are constants:
# the contour, the head width, the series and mixture tolerances, the
# implied-vol bound slack, the bold strike and the mixture shift.
def test_quadrature_settings_are_gone():
    assert not hasattr(affine_libor, "QuadratureSettings")
    assert not hasattr(pricing, "QuadratureSettings")
    assert not hasattr(pricing, "DEFAULT_QUADRATURE")


def test_semi_infinite_oscillatory_takes_only_a_tolerance():
    params = inspect.signature(quadrature.semi_infinite_oscillatory).parameters
    assert list(params) == ["f", "rel_tol"]


@pytest.mark.parametrize("cls, fields", [
    (pricing.CapletSpec, ["period_index", "strike"]),
    (distributions.ChiSqMixSpec, ["sigmas", "nus", "alphas"])])
def test_spec_records_hold_no_derived_or_unused_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


@pytest.mark.parametrize("fn, name", [
    (distributions.ncchi2_cdf, "tol"), (distributions.ncchi2_sf, "tol"),
    (distributions.chisq_mix_cdf, "tol"), (distributions.chisq_mix_sf, "tol"),
    (pricing.black76_implied_vol, "tol")])
def test_tolerance_and_branch_are_not_knobs(fn, name):
    assert name not in inspect.signature(fn).parameters


def _program_files():
    """Files whose references count as use by the program: the library
    (its re-exports aside), the demos, the benchmark and the acceptance
    gates."""
    return ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def _referenced_names() -> set:
    """Names, attributes and imports in the program files, plus the
    identifiers in the benchmark's strings (its tracer names its targets
    in strings)."""
    names = set()
    for path in _program_files():
        bench = path.parent.name == "bench"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif bench and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _public_definitions() -> list:
    """Public module-level functions and classes of the library, and the
    public methods of those classes, as (qualified name, name)."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def test_every_public_name_is_used_by_the_program():
    used = _referenced_names()
    unused = [qual for qual, name in _public_definitions()
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("name", ["DomainSpec", "domain_spec",
                                  "forward_measure_exponents"])
def test_second_transform_path_is_gone(name):
    for module in (affine_libor, affine_core, model):
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", ["LsncChi2Params", "lsnc_cdf", "lsnc_sf",
                                  "lsnc_tilt", "lsnc_cgf"])
def test_one_chi_square_law_record(name):
    # ChiSqMixSpec is the only law record; one component is the
    # location-scale law
    assert not hasattr(affine_libor, name)
    assert not hasattr(distributions, name)


def test_tail_probe_rides_the_fused_step_without_a_wrapper():
    # the fused step calls the integrand it was given; no per-segment
    # wrapper is left that would need functools.wraps
    assert not hasattr(quadrature, "_with_probe")
    assert "functools" not in imported_names("quadrature")


# A floorlet comes from its caplet by cap-floor parity: no put contour,
# and one family check (the count of square-root factors) for the
# closed-form wrappers.
@pytest.mark.parametrize("name", ["_put_damping_candidates", "_require_cir",
                                  "_fourier_caplet"])
def test_put_contour_and_duplicate_checks_are_gone(name):
    assert not hasattr(pricing, name)


@pytest.mark.parametrize("fn", ["_fourier_cells", "_choose_damping"])
def test_contour_takes_no_call_put_flag(fn):
    params = inspect.signature(getattr(pricing, fn)).parameters
    assert "want_call" not in params


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
    config = ROOT / "configs" / "cir.cfg"
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


def test_pricing_has_one_chi_square_call():
    # caplet rows and the closed swaption share one tilted-tail helper
    tree = ast.parse((SRC / "pricing.py").read_text())
    from_distributions = {alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          and node.module == "distributions"
                          for alias in node.names}
    assert from_distributions == {"ChiSqMixSpec", "chisq_mix_sf"}
    assert not hasattr(pricing, "_factor_count")


@pytest.mark.parametrize("fn, name", [
    (model.fit_term_structure, "direction"), (model.estimate_gamma_x, "x0"),
    (affine_core.check_semiflow, "horizon")])
def test_settings_no_program_sets_are_not_parameters(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_oscillatory_budget_has_no_absolute_part():
    assert not hasattr(quadrature, "_SOI_ABS_TOL")


def test_validate_pool_is_the_standard_one():
    # the tasks run on concurrent.futures, imported where they run
    assert "threading" not in imported_names("cli")


# A vol surface is one batch per route: no per-row pricer, per-row quote
# table or scalar inversion loop is left beside it.
@pytest.mark.parametrize("name", ["_row_quotes", "_fourier_row",
                                  "_closed_row", "_surface_cell"])
def test_surface_rows_are_one_batch(name):
    assert not hasattr(pricing, name)


# The Black-76 inversion is one loop on Python floats: no numpy-lane pass,
# its Black value and normal CDF helpers, or the lane count that chose
# between the two is left.
@pytest.mark.parametrize("name", ["_newton_lanes", "_black_call", "_norm_cdf",
                                  "_LOG", "_EXP", "_ERF", "_SCALAR_LANES"])
def test_implied_vols_have_one_loop(name):
    assert not hasattr(pricing, name)


def test_settle_takes_rows_only():
    # every row brackets from [0, 1] and takes up to 100 Newton steps
    params = inspect.signature(pricing._settle).parameters
    assert list(params) == ["rows", "vols", "errors"]


# The chi-square series and mixtures compute survival functions only; a
# CDF is its complement.
def test_series_computes_the_survival_function_only():
    params = inspect.signature(distributions._poisson_gamma_series).parameters
    assert "upper" not in params
    assert not hasattr(distributions, "_ncchi2")
    assert not hasattr(distributions, "_chisq_mix")


@pytest.mark.parametrize("x", [-1.0, 0.0, 1e-3, 2.5, 7.0, 40.0, math.inf])
def test_cdfs_are_complements_of_the_survival_functions(x):
    nu, alpha = 3.0, 1.7
    assert distributions.ncchi2_cdf(x, nu, alpha) == \
        1.0 - distributions.ncchi2_sf(x, nu, alpha)
    mix = distributions.ChiSqMixSpec([1.0, 0.4], [2.5, 3.0], [0.5, 2.0])
    assert distributions.chisq_mix_cdf(x, mix) == \
        1.0 - distributions.chisq_mix_sf(x, mix)


def test_chi_square_laws_have_one_record():
    # a batch of laws is a ChiSqMixSpec with one row per law
    records = [name for name, value in vars(distributions).items()
               if dataclasses.is_dataclass(value)
               and value.__module__ == distributions.__name__]
    assert records == ["ChiSqMixSpec"]


# A closed quote is one batch of laws, as a surface is: shapes are arrays
# aligned with the points, and no one-law path keeps float shapes.
@pytest.mark.parametrize("fn, name", [(pricing._tilted_tails, "alone"),
                                      (distributions._gamma_prefactor,
                                       "x_max")])
def test_one_law_is_a_batch_of_one(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_every_series_point_names_its_law():
    law = inspect.signature(distributions._poisson_gamma_series).parameters[
        "law"]
    assert law.default is inspect.Parameter.empty


def test_gamma_ratios_have_no_float_shape_branch():
    tree = ast.parse((SRC / "distributions.py").read_text())
    float_checks = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and ast.unparse(node.args[1]) == "float"]
    assert float_checks == []
