"""The shared class-solve pipeline against per-family reference copies."""

import random
from fractions import Fraction as F

import pytest

from heunforge import (
    CHE_CLASSES,
    HEUN_CLASSES,
    BackendMismatchError,
    CheParams,
    HeunParams,
    OdeFamily,
    Poly,
    RationalComplex,
    branch_from_pi,
    che_accessory,
    che_class,
    che_params_for_class,
    che_to_nu,
    heun_accessory,
    heun_class,
    heun_params_for_class,
    heun_to_nu,
    reduce_branch,
    termination_solve,
)
from heunforge.che import che_match
from heunforge.engine import CLASSIC, EXTENDED, NuEquation
from heunforge.family import check_relation
from heunforge.heun import heun_match
from heunforge.scalars import EXACT, as_scalar, infer_backend

DEGREES = range(0, 9)


def _reference_heun_accessory(p, label, n):
    """heun_accessory as each family module wrote it out before the
    shared pipeline."""
    check_relation(p, label, n)
    cls = heun_class(label)
    p0 = p.at(as_scalar(0, p.backend))
    eq0 = heun_to_nu(p0)
    branch = branch_from_pi(eq0, cls.pi(p0))
    rf = reduce_branch(eq0, branch)
    direction = Poly.constant(as_scalar(-1, p.backend), p.backend)
    family = OdeFamily(rf.ode(eq0), direction)
    return termination_solve(family, n)


def _reference_che_accessory(p, label, n):
    """che_accessory as each family module wrote it out before the
    shared pipeline."""
    check_relation(p, label, n)
    cls = che_class(label)
    zero = as_scalar(0, p.backend)
    p0 = CheParams(p.alpha, p.beta, p.gamma, zero, p.coupling)
    eq0 = che_to_nu(p0)
    branch = branch_from_pi(eq0, cls.pi(p0))
    rf = reduce_branch(eq0, branch)
    direction = Poly.constant(as_scalar(-1, p.backend), p.backend)
    family = OdeFamily(rf.ode(eq0), direction)
    return termination_solve(family, n)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(new, ref):
    # repr tells signed zeros apart, which == does not
    assert new == ref
    assert repr(new) == repr(ref)


def _rational(rng, lo, hi):
    while True:
        den = rng.randint(2, 9)
        value = F(round(rng.uniform(lo, hi) * den), den)
        if value.denominator != 1:  # integer exponents collide
            return value


# the accessory value stored in p must be ignored, so it is drawn nonzero
def _heun_params(rng, label, n, exact):
    wrap = RationalComplex if exact else (lambda v: v)
    while True:
        try:
            return heun_params_for_class(
                label, n, wrap(_rational(rng, 1.4, 3.0)),
                *(wrap(_rational(rng, 0.2, 1.8)) for _ in range(3)),
                q=wrap(_rational(rng, -2.0, 2.0)))
        except ValueError:  # alpha, beta not Gaussian-rational
            continue


def _che_params(rng, label, n, exact):
    wrap = RationalComplex if exact else (lambda v: v)
    return che_params_for_class(
        label, n, wrap(_rational(rng, 0.5, 2.5)),
        *(wrap(_rational(rng, 0.1, 1.9)) for _ in range(2)),
        mu=wrap(_rational(rng, -2.0, 2.0)))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("label", [c.label for c in HEUN_CLASSES])
def test_heun_accessory_equals_reference(label, exact):
    rng = random.Random("heun/%s/%s" % (label, exact))
    for n in DEGREES:
        p = _heun_params(rng, label, n, exact)
        _assert_same(_outcome(heun_accessory, p, label, n),
                     _outcome(_reference_heun_accessory, p, label, n))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("label", [c.label for c in CHE_CLASSES])
def test_che_accessory_equals_reference(label, exact):
    rng = random.Random("che/%s/%s" % (label, exact))
    for n in DEGREES:
        p = _che_params(rng, label, n, exact)
        _assert_same(_outcome(che_accessory, p, label, n),
                     _outcome(_reference_che_accessory, p, label, n))


def test_record_fields_are_the_parameters():
    # FamilyParams.to_float rebuilds a record from its fields, and callers
    # _replace() them; the backend is derived, not a field
    assert HeunParams._fields == (
        "a", "q", "alpha", "beta", "gamma", "delta", "epsilon")
    assert CheParams._fields == ("alpha", "beta", "gamma", "mu", "nu")


def _reference_fields(names, values):
    """(backend, fields) as HeunParams and CheParams each coerced their
    own fields: one backend inferred from all of them."""
    backend = infer_backend(values)
    return backend, {name: as_scalar(v, backend) for name, v in zip(names, values)}


def _reference_che_params_for_class(label, n, alpha, beta, gamma, mu=0):
    """che_params_for_class as it coerced its arguments by hand."""
    cls = che_class(label)
    backend = infer_backend([alpha, beta, gamma, mu])
    alpha, beta, gamma, mu = (as_scalar(v, backend) for v in (alpha, beta, gamma, mu))
    return CheParams(alpha, beta, gamma, mu, cls.coupling_value(n, alpha, beta, gamma) - mu)


# each turns an integer into one scalar type a record accepts
_KINDS = (int, F, RationalComplex, float, complex)


def _mixes(rng, count):
    for kind in _KINDS:
        yield [kind] * count
    for _ in range(300):
        yield [rng.choice(_KINDS) for _ in range(count)]


@pytest.mark.parametrize("record,values", [
    (HeunParams, (2, -3, 2, -1, 3, 1, -2)),  # epsilon = alpha + beta - gamma - delta + 1
    (CheParams, (3, -1, 2, -2, 5)),
], ids=["heun", "che"])
def test_record_coercion_is_the_per_family_one(record, values):
    names = list(record._fields)
    for kinds in _mixes(random.Random(record.__name__), len(values)):
        args = [kind(v) for kind, v in zip(kinds, values)]
        if RationalComplex in kinds and {float, complex} & set(kinds):
            with pytest.raises(BackendMismatchError):
                _reference_fields(names, args)
            with pytest.raises(BackendMismatchError):
                record(*args)
            continue
        backend, want = _reference_fields(names, args)
        p = record(*args)
        assert p.backend == backend
        assert [getattr(p, name) for name in names] == list(want.values())
        assert repr(p) == "%s(%s)" % (record.__name__, ", ".join(
            "%s=%r" % item for item in want.items()))


def test_che_params_for_class_coerces_as_before():
    for kinds in _mixes(random.Random("che_params_for_class"), 4):
        args = [kind(v) for kind, v in zip(kinds, (3, -1, 2, -2))]
        try:
            want = repr(_reference_che_params_for_class("4", 2, *args))
        except BackendMismatchError:
            with pytest.raises(BackendMismatchError):
                che_params_for_class("4", 2, *args)
            continue
        assert repr(che_params_for_class("4", 2, *args)) == want


def _nonzero(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 9))


def _matched(got, want, exact):
    if exact:
        return got == want
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("exact", [True, False])
def test_family_match_returns_the_parameters_of_the_equation(exact):
    # heun_match and che_match read back what built the equation, with the
    # class table, and refuse classic mode and the other family's sigma
    rng = random.Random("family match/%s" % exact)
    wrap = RationalComplex if exact else float
    for _ in range(40):
        a = _nonzero(rng)
        if a == 1:
            continue
        q, alpha, beta, gamma, delta = (_nonzero(rng) for _ in range(5))
        epsilon = alpha + beta - gamma - delta + 1
        heun = heun_to_nu(HeunParams(*map(wrap, (a, q, alpha, beta, gamma, delta, epsilon))))
        got = heun_match(heun)
        assert got.CLASSES is HEUN_CLASSES and got.backend == heun.backend
        for name, want in zip(("a", "gamma", "delta", "epsilon"), (a, gamma, delta, epsilon)):
            assert _matched(getattr(got, name), wrap(want), exact), name
        mu, nu = _nonzero(rng), _nonzero(rng)
        che = che_to_nu(CheParams(*map(wrap, (alpha, beta, gamma, mu, nu))))
        got = che_match(che)
        assert got.CLASSES is CHE_CLASSES and got.backend == che.backend
        for name, want in zip(("alpha", "beta", "gamma"), (alpha, beta, gamma)):
            assert _matched(getattr(got, name), wrap(want), exact), name
        assert heun_match(che) is None and che_match(heun) is None
        # a confluent shape without alpha and kappa fits classic mode
        classic = NuEquation(che.tau_tilde - che.sigma * wrap(alpha), che.sigma,
                             che.sigma * wrap(-mu), CLASSIC)
        extended = classic._replace(mode=EXTENDED)
        assert che_match(extended).alpha == 0
        assert heun_match(classic) is None and che_match(classic) is None


# an exact zero test reads no float off its refs: these once took abs() of
# an exact value beyond float range, for a bound an exact test never reads


def test_exact_class_relation_reads_no_float():
    big = RationalComplex(10**200)
    p = heun_params_for_class("II", 1, RationalComplex(F(19, 10)), big, big,
                              RationalComplex(F(1, 5)))
    assert p.backend == EXACT
    check_relation(p, "II", 1)


def test_exact_heun_match_reads_no_float():
    a = RationalComplex(10**400)
    z = Poly.x(EXACT)
    sigma = z * (z - Poly.one(EXACT)) * (z - Poly.constant(a, EXACT))
    eq = NuEquation(Poly([1, 1], EXACT), sigma, sigma * Poly([-3, 2], EXACT))
    assert heun_match(eq).a == a
