"""The public name set, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import heunforge

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

PUBLIC = {
    "EXACT", "FLOAT", "BackendMismatchError", "RationalComplex",
    "Poly", "parse_poly", "format_poly",
    "CLASSIC", "EXTENDED", "Eigenstate", "NoBranchError", "NuEquation",
    "PhiFactor", "PiBranch", "QuantizationRelation", "ReducedForm",
    "branch_from_pi", "enumerate_branches", "phi_factor",
    "polynomial_solution", "quantization", "radicand", "reduce_branch",
    "OdeFamily", "OdeForm", "Recurrence", "coefficient_map",
    "frobenius_recurrence", "ode_residual", "series_coeffs",
    "termination_polynomial", "termination_solve",
    "HEUN_CLASSES", "HeunClass", "HeunParams", "heun_accessory",
    "heun_class", "heun_class_relation", "heun_eigenstate",
    "heun_eigenstates", "heun_nu_from_product", "heun_params_for_class",
    "heun_to_nu",
    "CHE_CLASSES", "CheClass", "CheParams", "che_accessory", "che_class",
    "che_class_relation", "che_eigenstate", "che_eigenstates",
    "che_params_for_class", "che_to_nu",
    "ANTISYMMETRIC", "SYMMETRIC", "Coulomb3SReport", "DoubleWellReport",
    "ElectronsSphereState", "bethe_residual", "coulomb3s_energy",
    "coulomb3s_verify", "doublewell_spectrum", "doublewell_verify",
    "electrons_sphere_state",
}


def test_star_import_exports_the_public_names():
    namespace = {}
    exec("from heunforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert len(heunforge.__all__) == len(PUBLIC)


def _resolve(path):
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module("heunforge." + module), attr)


def test_every_name_the_tracer_wraps_exists():
    # a traced benchmark run patches these by name and fails on a missing one
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.SPANNED:
        assert callable(_resolve("%s.%s" % (module, name))), (module, name)
    for path, method, _ in tracing.COUNTED + tracing.SPANNED_METHODS:
        assert callable(_resolve(path).__dict__.get(method)), (path, method)
