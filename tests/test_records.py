"""The record contract: each of the package's 17 immutable records is a
namedtuple subclass with the fields, defaults, repr, equality and hash it
had as a frozen dataclass, read-only fields, and one set of checks that
every way to build it runs: the constructor, _make, _replace, at(),
to_float(), and pickling and copying."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from heunforge import (
    ANTISYMMETRIC,
    EXACT,
    EXTENDED,
    FLOAT,
    BackendMismatchError,
    CheClass,
    CheParams,
    Coulomb3SReport,
    DoubleWellReport,
    Eigenstate,
    ElectronsSphereState,
    HeunClass,
    HeunParams,
    NuEquation,
    OdeFamily,
    OdeForm,
    PhiFactor,
    PiBranch,
    Poly,
    QuantizationRelation,
    RationalComplex,
    Recurrence,
    ReducedForm,
    coulomb3s_verify,
    doublewell_verify,
    electrons_sphere_state,
    enumerate_branches,
    frobenius_recurrence,
    heun_accessory,
    heun_eigenstates,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.family import FamilyClass

rc = RationalComplex


def _exact_heun():
    return heun_params_for_class("I", 2, rc(2), rc(F(1, 2)), rc(F(1, 3)), rc(F(1, 4)))


def _float_heun():
    return heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)


def _state():
    p = _float_heun()
    return heun_eigenstates(p, "I", 2, heun_accessory(p, "I", 2)[:1])[0]


def _ode():
    return heun_to_nu(_exact_heun()).psi_ode()


# per record type: a build of one record, deterministic, and the fields in
# the order the frozen dataclass declared them
RECORDS = {
    OdeForm: (_ode, ("p2", "p1", "p0")),
    OdeFamily: (lambda: OdeFamily(_ode(), Poly.constant(rc(-1), EXACT)), ("base", "p0_dir")),
    Recurrence: (lambda: frobenius_recurrence(_ode(), rc(0), rc(0)),
                 ("point", "exponent", "bands", "backend")),
    NuEquation: (lambda: heun_to_nu(_exact_heun()), ("tau_tilde", "sigma", "sigma_tilde", "mode")),
    PiBranch: (lambda: enumerate_branches(heun_to_nu(_exact_heun()))[0], ("g", "s", "pi", "sign")),
    ReducedForm: (lambda: enumerate_branches(heun_to_nu(_exact_heun()))[0].reduced(
        heun_to_nu(_exact_heun())), ("tau", "h")),
    QuantizationRelation: (lambda: _state().quantization,
                           ("n", "mode", "slope_residual", "constant_offset", "lambda_n")),
    PhiFactor: (lambda: _state().phi, ("exp_part", "powers")),
    Eigenstate: (_state, ("n", "accessory", "quantization", "phi", "poly", "residual")),
    FamilyClass: (lambda: FamilyClass("I", (0, 0, 0)), ("label", "flags")),
    HeunClass: (lambda: HeunClass("IV", (1, 1, 0)), ("label", "flags")),
    HeunParams: (_exact_heun, ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")),
    CheClass: (lambda: CheClass("1", (1, 1, 1), (2, 0, 0, 1)),
               ("label", "flags", "coupling_coeffs")),
    CheParams: (lambda: CheParams(1.3, 0.4, 0.7, 0.9, -1.1),
                ("alpha", "beta", "gamma", "mu", "nu")),
    Coulomb3SReport: (lambda: coulomb3s_verify(2, 1, 0.5),
                      ("n", "m", "gamma", "energy", "s_plus", "s_minus",
                       "residual_direct", "residual_flipped")),
    ElectronsSphereState: (lambda: electrons_sphere_state(1, 1.0, 2.0),
                           ("n", "gamma_param", "delta_param", "radius", "energy",
                            "accessory", "poly", "roots", "bethe")),
    DoubleWellReport: (lambda: doublewell_verify(1, 1.0, 100.0, ANTISYMMETRIC),
                       ("N", "parity", "epsilon", "params", "matched_class",
                        "relation_residual", "resolved_mu", "termination_residual")),
}
# the records that keep state in an instance __dict__
STATEFUL = {NuEquation, HeunParams, CheParams}
IDS = [kind.__name__ for kind in RECORDS]


def test_seventeen_record_types():
    assert len(RECORDS) == 17
    assert all(issubclass(kind, tuple) for kind in RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=IDS)
def test_fields_repr_and_slots(kind):
    build, names = RECORDS[kind]
    record = build()
    assert type(record) is kind and kind._fields == names
    assert repr(record) == "%s(%s)" % (kind.__name__, ", ".join(
        "%s=%r" % (name, getattr(record, name)) for name in names))
    assert hasattr(record, "__dict__") == (kind in STATEFUL)


@pytest.mark.parametrize("kind", RECORDS, ids=IDS)
def test_fields_are_read_only(kind):
    build, names = RECORDS[kind]
    record = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    if kind not in STATEFUL:
        with pytest.raises(AttributeError):
            record.other = 1


@pytest.mark.parametrize("kind", RECORDS, ids=IDS)
def test_equal_records_hash_equal(kind):
    build, _ = RECORDS[kind]
    one, two = build(), build()
    assert one is not two and one == two and hash(one) == hash(two)
    # a record is the tuple of its field values
    assert one == tuple(one) and hash(one) == hash(tuple(one))


@pytest.mark.parametrize("kind", RECORDS, ids=IDS)
def test_every_build_path_gives_the_same_record(kind):
    build, names = RECORDS[kind]
    record = build()
    twins = [kind(*record), kind(**dict(zip(names, record))), kind._make(record),
             record._replace(), copy.copy(record), copy.deepcopy(record),
             pickle.loads(pickle.dumps(record))]
    for twin in twins:
        assert type(twin) is kind and twin == record
        if kind in (HeunParams, CheParams):
            assert twin.backend == record.backend


def test_defaults_are_the_dataclass_defaults():
    eq = heun_to_nu(_exact_heun())
    assert NuEquation(eq.tau_tilde, eq.sigma, eq.sigma_tilde).mode == EXTENDED
    relation = QuantizationRelation(2, EXTENDED, 0.0)
    assert relation.constant_offset is None and relation.lambda_n is None
    state = _state()
    assert Eigenstate(*state[:5]).residual is None


def _poly(backend):
    return Poly([1, 2], backend)


def _unpickled(record, index, value):
    """What unpickling builds from a pickle of `record` whose field `index`
    holds `value`: the reduce callable on the changed arguments."""
    build, args = record.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    args = list(args)
    args[1 + index] = value  # args[0] is the class
    return build(*args)


# per record: one invalid field value, its index, and what each build raises
INVALID = {
    "OdeForm-p2": (_ode, 0, Poly.zero(EXACT), ValueError),
    "OdeForm-backend": (_ode, 1, _poly(FLOAT), ValueError),
    "OdeFamily-backend": (RECORDS[OdeFamily][0], 1, _poly(FLOAT), ValueError),
    "NuEquation-mode": (RECORDS[NuEquation][0], 3, "other", ValueError),
    "NuEquation-degree": (RECORDS[NuEquation][0], 0, Poly([0, 0, 0, 1], EXACT), ValueError),
    "HeunParams-a": (_exact_heun, 0, 0, ValueError),
    "HeunParams-a-float": (_float_heun, 0, 1.0, ValueError),
    "HeunParams-epsilon": (_exact_heun, 6, rc(5), ValueError),
    "HeunParams-backend": (_exact_heun, 1, 0.5, BackendMismatchError),
    "CheParams-backend": (lambda: CheParams(rc(1), rc(2), rc(3), rc(4), rc(5)), 3, 0.5,
                          BackendMismatchError),
}


@pytest.mark.parametrize("build, index, value, error", INVALID.values(), ids=INVALID)
def test_every_build_path_runs_the_checks(build, index, value, error):
    record = build()
    kind = type(record)
    args = list(record)
    args[index] = value
    field = kind._fields[index]
    with pytest.raises(error):
        kind(*args)
    with pytest.raises(error):
        kind(**dict(zip(kind._fields, args)))
    with pytest.raises(error):
        kind._make(args)
    with pytest.raises(error):
        record._replace(**{field: value})
    with pytest.raises(error):
        _unpickled(record, index, value)


def test_at_runs_the_checks():
    # an exact record takes exact accessory values only
    with pytest.raises(BackendMismatchError):
        _exact_heun().at(0.5)
    with pytest.raises(BackendMismatchError):
        CheParams(rc(1), rc(2), rc(3), rc(4), rc(5)).at(0.5)
    p = CheParams(rc(1), rc(2), rc(3), rc(4), rc(5))
    assert p.at(rc(1)) == CheParams(rc(1), rc(2), rc(3), rc(1), rc(8))


@pytest.mark.parametrize("build", [_exact_heun, lambda: CheParams(rc(1), F(1, 2), 3, 4, 5)],
                         ids=["heun", "che"])
def test_params_coerce_on_every_build_path(build):
    # ints and Fractions become the backend the fields infer; a float
    # copy is a fresh record with a fresh backend and no kept setups
    p = build()
    for twin in (p, type(p)._make(tuple(p)), p._replace(), pickle.loads(pickle.dumps(p))):
        assert twin.backend == EXACT
        assert all(type(value) is RationalComplex for value in twin)
    p.at(rc(0))._setups["x"] = 1
    assert p._setups == {}
    f = p.to_float()
    assert type(f) is type(p) and f.backend == FLOAT and f._setups == {}
    assert all(type(value) is complex for value in f)
    assert heun_to_nu(_exact_heun()).to_float().backend == FLOAT
