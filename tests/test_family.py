"""The shared class-solve pipeline against per-family reference copies."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from heunforge import (
    CHE_CLASSES,
    HEUN_CLASSES,
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
from heunforge.family import check_relation
from heunforge.scalars import as_scalar

DEGREES = range(0, 9)


def _reference_heun_accessory(p, label, n):
    """heun_accessory as each family module wrote it out before the
    shared pipeline."""
    check_relation(HEUN_CLASSES, p, label, n)
    cls = heun_class(label)
    p0 = replace(p, q=as_scalar(0, p.backend))
    eq0 = heun_to_nu(p0)
    branch = branch_from_pi(eq0, cls.pi(p0))
    rf = reduce_branch(eq0, branch)
    direction = Poly.constant(as_scalar(-1, p.backend), p.backend)
    family = OdeFamily(rf.ode(eq0), direction)
    return termination_solve(family, n)


def _reference_che_accessory(p, label, n):
    """che_accessory as each family module wrote it out before the
    shared pipeline."""
    check_relation(CHE_CLASSES, p, label, n)
    cls = che_class(label)
    zero = as_scalar(0, p.backend)
    p0 = replace(p, mu=zero, nu=p.coupling)
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
