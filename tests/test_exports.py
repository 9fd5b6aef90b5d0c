"""The public name set, the names the benchmark's tracer wraps, and that
every public name is read somewhere."""

import importlib
import importlib.util
import re
from pathlib import Path

import heunforge

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

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
    "heun_class", "heun_eigenstate",
    "heun_eigenstates", "heun_nu_from_product", "heun_params_for_class",
    "heun_to_nu",
    "CHE_CLASSES", "CheClass", "CheParams", "che_accessory", "che_class",
    "che_eigenstate", "che_eigenstates", "che_params_for_class", "che_to_nu",
    "class_relation",
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


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_tracer_wraps_exists():
    # a traced benchmark run patches these by name and fails on a missing one
    tracing = _tracing()
    for module, name in tracing.SPANNED:
        assert callable(_resolve("%s.%s" % (module, name))), (module, name)
    for path, method, _ in tracing.COUNTED + tracing.SPANNED_METHODS:
        assert callable(_resolve(path).__dict__.get(method)), (path, method)


# a "from .module import ..." statement of the package's import block,
# and the package's table of the names it serves lazily, which lists them
# as the import block does
_IMPORT = re.compile(r"^from \.\w* import (?:\([^)]*\)|.*)$", re.M)
_LAZY_TABLE = re.compile(r"^_LAZY = \{$.*?^\}$", re.M | re.S)


def _listing_stripped(text):
    stripped = _IMPORT.sub("", text)
    assert _LAZY_TABLE.search(stripped), "no lazy-name table in __init__.py"
    return _LAZY_TABLE.sub("", stripped)


def test_every_public_name_is_read_somewhere():
    # read as text: src/ less its definitions and the package's import
    # block and lazy-name table, the README, and the names
    # bench/tracing.py's lists bind
    package = Path(heunforge.__file__).parent
    src = [_listing_stripped(path.read_text()) if path.name == "__init__.py"
           else path.read_text() for path in sorted(package.glob("*.py"))]
    tracing = _tracing()
    bound = {name for _, name in tracing.SPANNED}
    for path, method, _ in tracing.COUNTED + tracing.SPANNED_METHODS:
        bound.update((path.rpartition(".")[2], method))
    readme = (ROOT / "README.md").read_text()
    unread = []
    for name in heunforge.__all__:
        own = re.compile(r"^(?:\s*(?:def|class) %s\b|%s\s*=).*$" % (name, name), re.M)
        word = re.compile(r"\b%s\b" % re.escape(name))
        if name in bound or word.search(readme):
            continue
        if not any(word.search(own.sub("", text)) for text in src):
            unread.append(name)
    assert unread == []


def test_lazy_names_are_their_modules_names():
    # the table lists no name twice and none that is not public; every
    # public name the package does not bind is in it, under the module
    # that defines it, and the package serves that module's object
    package = Path(heunforge.__file__).parent
    lazy = {name: module for module, names in heunforge._LAZY.items() for name in names}
    assert set(heunforge._LAZY) == {"heun", "che", "apps"}
    assert sum(map(len, heunforge._LAZY.values())) == len(lazy)
    assert set(lazy) <= PUBLIC
    assert set(lazy) | (PUBLIC & set(vars(heunforge))) == PUBLIC
    assert PUBLIC <= set(dir(heunforge))
    for name, module_name in lazy.items():
        module = importlib.import_module("heunforge." + module_name)
        own = re.compile(r"^(?:(?:def|class) %s\b|%s\s*=)" % (name, name), re.M)
        assert own.search((package / ("%s.py" % module_name)).read_text()), (module_name, name)
        assert getattr(heunforge, name) is getattr(module, name), name
