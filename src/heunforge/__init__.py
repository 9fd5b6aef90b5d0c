"""Polynomial solutions of Heun-type equations via extended
Nikiforov-Uvarov reduction, verified by an independent Frobenius-series
oracle.

The family modules `heun` and `che` and the model problems `apps` are
registered unexecuted: each runs on the first read of an attribute it
lacks, so a CLI launch compiles only the layers its command runs. Their
public names are served from them by the module `__getattr__`."""

import _thread
import importlib.util
import sys
import types

from .scalars import EXACT, FLOAT, BackendMismatchError, RationalComplex
from .poly import Poly, parse_poly, format_poly
from .engine import (
    CLASSIC,
    EXTENDED,
    Eigenstate,
    NoBranchError,
    NuEquation,
    PhiFactor,
    PiBranch,
    QuantizationRelation,
    ReducedForm,
    branch_from_pi,
    enumerate_branches,
    phi_factor,
    polynomial_solution,
    quantization,
    radicand,
    reduce_branch,
)
from .oracle import (
    OdeFamily,
    OdeForm,
    Recurrence,
    coefficient_map,
    frobenius_recurrence,
    ode_residual,
    series_coeffs,
    termination_polynomial,
    termination_solve,
)
from .family import class_relation

# the public names of the modules registered unexecuted, per module
_LAZY = {
    "heun": ("HEUN_CLASSES", "HeunClass", "HeunParams", "heun_accessory", "heun_class",
             "heun_eigenstate", "heun_eigenstates", "heun_nu_from_product",
             "heun_params_for_class", "heun_to_nu"),
    "che": ("CHE_CLASSES", "CheClass", "CheParams", "che_accessory", "che_class",
            "che_eigenstate", "che_eigenstates", "che_params_for_class", "che_to_nu"),
    "apps": ("ANTISYMMETRIC", "SYMMETRIC", "Coulomb3SReport", "DoubleWellReport",
             "ElectronsSphereState", "bethe_residual", "coulomb3s_energy",
             "coulomb3s_verify", "doublewell_spectrum", "doublewell_verify",
             "electrons_sphere_state"),
}

_OWNER = {name: module for module, names in _LAZY.items() for name in names}


_RUN_LOCK = _thread.RLock()
_running = set()


class _Unrun(types.ModuleType):
    """A submodule that stands in sys.modules before it has run. The first
    read of an attribute it lacks runs it under _RUN_LOCK, and only then
    does it become a plain module, so a thread reading it meanwhile waits
    for the whole module. (importlib.util.LazyLoader before Python 3.12.3
    makes the module plain before running it, and a second thread then
    reads a half-run module.) A read from inside the run finds what has
    run so far, as in any partly initialised module."""

    def __getattr__(self, name):
        with _RUN_LOCK:
            if type(self) is _Unrun and self.__name__ not in _running:
                _running.add(self.__name__)
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    _running.discard(self.__name__)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


def _register(name):
    """The submodule `name`, placed in sys.modules without running it."""
    module = importlib.util.module_from_spec(
        importlib.util.find_spec("%s.%s" % (__name__, name)))
    module.__class__ = _Unrun
    sys.modules[module.__name__] = module
    return module


heun, che, apps = map(_register, _LAZY)


def __getattr__(name):
    # reading the name runs its module, if it has not run yet
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_OWNER})


# the public names imported above, less the modules those imports bind,
# and the names served lazily
__all__ = [name for name, value in vars().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += _OWNER

__version__ = "0.1.0"
