"""Polynomial solutions of Heun-type equations via extended
Nikiforov-Uvarov reduction, verified by an independent Frobenius-series
oracle."""

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
from .heun import (
    HEUN_CLASSES,
    HeunClass,
    HeunParams,
    heun_accessory,
    heun_class,
    heun_class_relation,
    heun_eigenstate,
    heun_eigenstates,
    heun_nu_from_product,
    heun_params_for_class,
    heun_to_nu,
)
from .che import (
    CHE_CLASSES,
    CheClass,
    CheParams,
    che_accessory,
    che_class,
    che_class_relation,
    che_eigenstate,
    che_eigenstates,
    che_params_for_class,
    che_to_nu,
)
from .apps import (
    ANTISYMMETRIC,
    SYMMETRIC,
    Coulomb3SReport,
    DoubleWellReport,
    ElectronsSphereState,
    bethe_residual,
    coulomb3s_energy,
    coulomb3s_verify,
    doublewell_spectrum,
    doublewell_verify,
    electrons_sphere_state,
)

# the public names imported above, less the submodules those imports bind
__all__ = [name for name, value in vars().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

__version__ = "0.1.0"
