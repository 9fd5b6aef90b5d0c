"""The solve path's lean forms against the Poly-op forms they stand for.

Per state, sigma~ = (kappa z - t) sigma builds kappa z - t on coefficient
lists, sigma_bar is summed on coefficient lists, and the quantization
relation takes its h-free products once per degree; per record, the NU
maps and class pi parts share their factor products; the null vector is
read with one `.tolist()`. Each is compared, to the bit, with a
test-local copy of its Poly-op form: floats by float.hex of both parts
(and their type), exact values by their stored ints (_abd). An exact
class setup takes h = g + pi' from its branch; it must equal the
division it replaces, exactly.
"""

import math
import random
from fractions import Fraction as F
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest

from heunforge.che import CHE_CLASSES, CheParams, che_accessory, che_params_for_class, che_to_nu
from heunforge.engine import (
    CLASSIC,
    DIVIDE_REL_TOL,
    EXTENDED,
    BranchSetup,
    NoBranchError,
    NuEquation,
    QuantizationRelation,
    ReducedForm,
    _quantizer,
    _reduce,
    enumerate_branches,
)
from heunforge.family import class_setup, flagged_sum, sigma_tilde
from heunforge.floatkernel import null_vector
from heunforge.heun import (
    HEUN_CLASSES,
    HeunParams,
    heun_accessory,
    heun_nu_from_product,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.poly import TRIM_REL, Poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex, as_scalar, infer_backend


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


# -- test-local copies of the Poly-op forms ------------------------------------


def _ref_sigma_tilde(sigma, coupling, accessory, backend):
    return (Poly.x(backend) * coupling - Poly.constant(accessory, backend)) * sigma


def _ref_reduce(eq, sigma_tilde, tau, terms):
    pi_sq, pi_gap, dpi_sigma = terms
    sigma_bar = sigma_tilde + pi_sq + pi_gap + dpi_sigma
    h, rem = sigma_bar.divrem(eq.sigma)
    if not rem.negligible(DIVIDE_REL_TOL * max(sigma_bar.max_abs(), 1.0)):
        raise NoBranchError("sigma_bar is not divisible by sigma: inadmissible branch")
    if h.degree > (1 if eq.mode == EXTENDED else 0):
        raise NoBranchError("reduced h exceeds the mode's degree bound")
    return ReducedForm(tau, h)


def _ref_quantize(sigma, mode, rf, n):
    backend = rf.h.backend
    if mode == CLASSIC:
        lam_n = (-n * rf.tau.coeff(1)
                 - as_scalar(n * (n - 1), backend) * sigma.coeff(2))
        return QuantizationRelation(n, CLASSIC, slope_residual=rf.h.coeff(0) - lam_n,
                                    lambda_n=lam_n)
    slope = (rf.h.coeff(1)
             + as_scalar(n, backend) * rf.tau.coeff(2)
             + as_scalar(n * (n - 1), backend) * sigma.coeff(3))
    c_n = rf.h.coeff(0) + as_scalar(F(n, 2), backend) * rf.tau.coeff(1)
    if sigma.degree == 3:
        c_n = c_n + as_scalar(F(n * (n - 1), 3), backend) * sigma.coeff(2)
    return QuantizationRelation(n, EXTENDED, slope_residual=slope, constant_offset=c_n)


def _ref_heun_nu(a, q, product, gamma, delta, epsilon):
    backend = infer_backend([a, q, product, gamma, delta, epsilon])
    a, q, product = (as_scalar(v, backend) for v in (a, q, product))
    z, one, ac = Poly.x(backend), Poly.one(backend), Poly.constant(a, backend)
    sigma = z * (z - one) * (z - ac)
    tau_tilde = ((z - one) * (z - ac) * as_scalar(gamma, backend)
                 + z * (z - ac) * as_scalar(delta, backend)
                 + z * (z - one) * as_scalar(epsilon, backend))
    return NuEquation(tau_tilde, sigma, _ref_sigma_tilde(sigma, product, q, backend), EXTENDED)


def _ref_heun_parts(p):
    backend = p.backend
    z, one, ac = Poly.x(backend), Poly.one(backend), Poly.constant(p.a, backend)
    unit = as_scalar(1, backend)
    return ((z - one) * (z - ac) * (unit - p.gamma),
            z * (z - ac) * (unit - p.delta),
            z * (z - one) * (unit - p.epsilon))


def _ref_che_nu(p):
    backend = p.backend
    z, one, unit = Poly.x(backend), Poly.one(backend), as_scalar(1, backend)
    sigma = z * (z - one)
    tau_tilde = sigma * p.alpha + (z - one) * (p.beta + unit) + z * (p.gamma + unit)
    return NuEquation(tau_tilde, sigma, _ref_sigma_tilde(sigma, p.coupling, p.mu, backend),
                      EXTENDED)


def _ref_che_parts(p):
    backend = p.backend
    z, one = Poly.x(backend), Poly.one(backend)
    return z * (z - one) * (-p.alpha), (z - one) * (-p.beta), z * (-p.gamma)


def _ref_null_vector(mat, n):
    _, svals, vh = np.linalg.svd(mat)
    vec = np.conj(vh[-1])
    if vec[n] == 0:
        return svals.tolist(), None
    return svals.tolist(), [complex(v) for v in vec / vec[n]]


# -- comparison --------------------------------------------------------------


def _key(value):
    """A value down to its bits: type, float.hex of both parts, or _abd."""
    if value is None:
        return None
    if isinstance(value, Poly):
        return value.backend, _key(value.coeffs)
    if isinstance(value, NuEquation):
        return value.mode, _key((value.tau_tilde, value.sigma, value.sigma_tilde))
    if isinstance(value, ReducedForm):
        return _key((value.tau, value.h))
    if isinstance(value, QuantizationRelation):
        return value.n, value.mode, _key((value.slope_residual, value.constant_offset,
                                          value.lambda_n))
    if isinstance(value, (list, tuple)):
        return tuple(map(_key, value))
    if isinstance(value, RationalComplex):
        return value._abd
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value.real.hex(), value.imag.hex()


def _outcome(fn, *args):
    try:
        return "ok", _key(fn(*args))
    except (NoBranchError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def _float_value(rng):
    """A complex with parts that are often signed zeros."""
    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-4, 4), rng.uniform(-4, 4)))
    return complex(part(), part())


def _exact_value(rng):
    if rng.random() < 0.25:
        return rc(0)
    return rc(F(rng.randint(-40, 40), rng.randint(1, 9)), F(rng.randint(-3, 3), rng.randint(1, 5)))


def _value(rng, backend):
    return _exact_value(rng) if backend == EXACT else _float_value(rng)


def _random_poly(rng, backend, degree):
    coeffs = [_value(rng, backend) for _ in range(degree)]
    return Poly(coeffs + [_value(rng, backend) or as_scalar(1, backend)], backend)


# -- sigma~ per state --------------------------------------------------------


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
def test_sigma_tilde_is_the_poly_op_version_to_the_bit(backend):
    rng = random.Random("sigma-tilde/%s" % backend)
    zero = as_scalar(0, backend)
    seen = {"kappa=0": 0, "t=0": 0, "both": 0, "che": 0, "trimmed": 0, "non-finite": 0}
    for trial in range(1500):
        sigma = _random_poly(rng, backend, rng.choice((1, 2, 3)))
        kappa, t = _value(rng, backend), _value(rng, backend)
        if trial % 5 == 0:
            kappa = rng.choice(_ZEROS) if backend == FLOAT else zero
        if trial % 7 == 0:
            t = rng.choice(_ZEROS) if backend == FLOAT else zero
        if trial % 11 == 0 and backend == FLOAT:
            # kappa z at or below TRIM_REL of t: the line trims to -t
            kappa = t * rng.choice((TRIM_REL, 0.5 * TRIM_REL, 2 * TRIM_REL))
            seen["trimmed"] += 1
        if trial % 3 == 0:
            # che's state at t: mu + nu as p.at(mu) holds it
            kappa = t + (kappa - t)
            seen["che"] += 1
        if trial % 13 == 0 and backend == FLOAT:
            # an overflowed alpha*beta: 1 * kappa is not kappa
            kappa = rng.choice((complex(math.inf, 0.0), complex(1.0, -math.inf),
                                complex(math.nan, 2.0)))
            seen["non-finite"] += 1
        seen["kappa=0"] += not kappa
        seen["t=0"] += not t
        seen["both"] += not kappa and not t
        got = _outcome(sigma_tilde, sigma, kappa, t, backend)
        assert got == _outcome(_ref_sigma_tilde, sigma, kappa, t, backend), (sigma, kappa, t)
    if backend == EXACT:
        assert seen.pop("trimmed") == seen.pop("non-finite") == 0
    assert all(seen.values())


# -- the sigma_bar sum and the quantization relation ---------------------------


def _heun_record(rng, backend):
    vals = [_value(rng, backend) for _ in range(4)]
    a = _value(rng, backend)
    if not a or not (a - 1):
        a = as_scalar(3, backend)
    alpha, beta, gamma, delta = vals
    epsilon = alpha + beta - gamma - delta + as_scalar(1, backend)
    return HeunParams(a, _value(rng, backend), alpha, beta, gamma, delta, epsilon)


def _che_record(rng, backend):
    return CheParams(*(_value(rng, backend) for _ in range(5)))


def _extended_setups(rng, backend):
    """(eq, setup, record) of class setups of random records of both
    families, with every class."""
    for make, classes in ((_heun_record, HEUN_CLASSES), (_che_record, CHE_CLASSES)):
        for _ in range(6):
            p = make(rng, backend)
            p0 = p.at(as_scalar(0, backend))
            eq = p0.to_nu()
            for cls in classes:
                try:
                    setup = BranchSetup(eq, cls.pi(p0))
                except NoBranchError:
                    continue
                yield eq, setup, p


def _classic_setups(rng, backend):
    """(eq, setup, None) of classic equations with a planted branch:
    sigma~ = g sigma - pi^2 - pi (tau~ - sigma')."""
    for _ in range(40):
        sigma = _random_poly(rng, backend, rng.choice((1, 2)))
        tau_tilde, pi = _random_poly(rng, backend, 1), _random_poly(rng, backend, 1)
        g = Poly.constant(_value(rng, backend), backend)
        st = g * sigma - pi * pi - pi * (tau_tilde - sigma.derivative())
        eq = NuEquation(tau_tilde, sigma, st, CLASSIC)
        try:
            yield eq, BranchSetup(eq, pi), None
        except NoBranchError:
            continue


def _staged_trim_cases(rng):
    """Float (eq, sigma~, tau, terms) whose sigma~ + pi^2 cancels at its
    top to below TRIM_REL, so the partial sum is trimmed before the next
    term adds to that degree; sigma_bar stays a multiple of sigma, up to
    rounding. Every other case is real with signed-zero imaginary parts,
    where the +0 pad decides the sign of a zero part of h."""
    for k in range(60):
        real = k % 2 == 0

        def value(lo, hi):
            if real:
                return complex(rng.uniform(lo, hi), rng.choice((0.0, -0.0)))
            return complex(rng.uniform(lo, hi), rng.uniform(-1, 1))

        a = complex(rng.uniform(1.5, 3), rng.choice((0.0, -0.0)))
        sigma = Poly([0, a, -1 - a, 1], FLOAT)
        target = (Poly([value(-2, 2), value(0.5, 2)], FLOAT) * sigma).coeffs
        top = value(1, 3)
        st = [value(-2, 2) for _ in range(4)] + [top]
        pi_sq = [value(-2, 2) for _ in range(4)] + [
            complex(-top.real * (1 + rng.uniform(0.01, 0.1) * TRIM_REL), -top.imag)]
        pi_gap = [value(-2, 2) for _ in range(4)] + [value(0.5, 2)]
        dpi_sigma = [complex(t.real - s.real - q.real - g.real, rng.choice((0.0, -0.0))
                             if real else t.imag - s.imag - q.imag - g.imag)
                     for t, s, q, g in zip(target, st, pi_sq, pi_gap)]
        st = Poly(st, FLOAT)
        eq = NuEquation(Poly([1, 1], FLOAT), sigma, st, EXTENDED)
        yield eq, st, Poly([1, 2, 3], FLOAT), tuple(
            Poly(c, FLOAT) for c in (pi_sq, pi_gap, dpi_sigma))


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
@pytest.mark.parametrize("mode", [EXTENDED, CLASSIC])
def test_reduce_and_quantize_are_the_poly_op_versions_to_the_bit(backend, mode):
    rng = random.Random("reduce/%s/%s" % (backend, mode))
    cases = passed = 0
    setups = (_extended_setups if mode == EXTENDED else _classic_setups)(rng, backend)
    for eq, setup, p in setups:
        tau, terms = setup.tau, setup.terms
        shifts = [eq.sigma_tilde]
        for _ in range(3):
            t = _value(rng, backend)
            kappa = p.coupling_with(t) if p is not None else _value(rng, backend)
            shifts.append(sigma_tilde(eq.sigma, kappa, t, backend))
        if mode == EXTENDED:
            shifts.append(sigma_tilde(eq.sigma, as_scalar(0, backend), as_scalar(0, backend),
                                      backend))
        for st in shifts:
            got, want = _outcome(_reduce, eq, st, tau, terms), _outcome(
                _ref_reduce, eq, st, tau, terms)
            assert got == want
            cases += 1
            if got[0] != "ok":
                continue
            passed += 1
            rf = _ref_reduce(eq, st, tau, terms)
            for n in range(7):
                assert _key(_quantizer(eq.sigma, eq.mode, tau, n)(rf.h)) == _key(
                    _ref_quantize(eq.sigma, eq.mode, rf, n))
    assert cases >= 40 and passed >= 20


def test_staged_trim_of_sigma_bar_is_the_poly_sum_to_the_bit():
    rng = random.Random("staged-trim")
    fired = moved = 0
    for eq, st, tau, terms in _staged_trim_cases(rng):
        fired += (st + terms[0]).degree < 4
        got, want = _outcome(_reduce, eq, st, tau, terms), _outcome(
            _ref_reduce, eq, st, tau, terms)
        assert got == want
        assert got[0] == "ok"
        rf = _ref_reduce(eq, st, tau, terms)
        for n in range(5):
            assert _key(_quantizer(eq.sigma, eq.mode, tau, n)(rf.h)) == _key(
                _ref_quantize(eq.sigma, eq.mode, rf, n))
        # a sum trimmed only at its end keeps the cancelled remnant
        at_end = st.coeffs
        for term in terms:
            at_end = [a + b for a, b in zip_longest(at_end, term.coeffs, fillvalue=0j)]
        moved += _key(Poly(at_end, FLOAT)) != _key(st + terms[0] + terms[1] + terms[2])
    assert fired == 60 and moved


# -- NU maps and class pi parts ------------------------------------------------


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
def test_nu_maps_and_class_parts_are_the_poly_op_versions_to_the_bit(backend):
    rng = random.Random("nu-maps/%s" % backend)
    for _ in range(60):
        p = _heun_record(rng, backend)
        assert _key(heun_to_nu(p)) == _key(
            _ref_heun_nu(p.a, p.q, p.product, p.gamma, p.delta, p.epsilon))
        parts = _ref_heun_parts(p)
        # cli's class catalog passes a namespace of the matched parameters
        matched = SimpleNamespace(a=p.a, gamma=p.gamma, delta=p.delta, epsilon=p.epsilon,
                                  backend=backend)
        for cls in HEUN_CLASSES:
            want = _key(flagged_sum(cls.flags, parts))
            assert _key(cls.pi(p)) == want
            assert _key(cls.pi(matched)) == want
        # raw values, as apps passes them
        if backend == FLOAT:
            a = rng.choice((3, F(5, 2), -1.0, 2 - 1j))
            raw = [rng.choice((0, 1, -2, F(1, 3), 0.5, -0.0, 1.5 + 0j)) for _ in range(5)]
        else:
            a = rng.choice((3, F(5, 2), rc(F(7, 3), -1)))
            raw = [rng.choice((0, 1, F(1, 3), rc(F(-5, 4), 2))) for _ in range(4)] + [rc(2)]
        assert _key(heun_nu_from_product(a, *raw)) == _key(_ref_heun_nu(a, *raw))

        p = _che_record(rng, backend)
        for state in (p, p.at(_value(rng, backend))):
            assert _key(che_to_nu(state)) == _key(_ref_che_nu(state))
            parts = _ref_che_parts(state)
            matched = SimpleNamespace(alpha=state.alpha, beta=state.beta, gamma=state.gamma,
                                      backend=backend)
            for cls in CHE_CLASSES:
                want = _key(flagged_sum(cls.flags, parts))
                assert _key(cls.pi(state)) == want
                assert _key(cls.pi(matched)) == want


# -- the null vector -------------------------------------------------------------


def test_null_vector_is_the_listcomp_version_to_the_bit():
    rng = random.Random("null-vector")
    nones = 0
    for n in range(13):
        for trial in range(12):
            mat = np.array([[_float_value(rng) for _ in range(n + 1)]
                            for _ in range(n + 2)])
            if trial % 4 == 0:
                # a zero column k: the null vector is e_k, 0 at n when k < n
                mat[:, rng.randrange(n + 1)] = 0j
            got, want = null_vector(mat, n), _ref_null_vector(mat, n)
            assert _key(got) == _key(want)
            nones += got[1] is None
    assert nones


# -- the exact class setup's h = g + pi' ---------------------------------------


def _exact_records(rng):
    for _ in range(4):
        yield "heun", _heun_record(rng, EXACT)
        yield "che", _che_record(rng, EXACT)
    # the collapse: pi = (sigma' - tau~)/2 = 0 in every class
    yield "heun", HeunParams(rc(3), rc(0), rc(1), rc(1), rc(1), rc(1), rc(1))
    yield "che", CheParams(rc(0), rc(0), rc(0), rc(0), rc(0))


def test_exact_setup_reads_h_off_its_branch_exactly():
    rng = random.Random("exact-setup")
    built = collapsed = 0
    for family, p in _exact_records(rng):
        p0 = p.at(rc(0))
        eq = p0.to_nu()
        for cls in p.CLASSES:
            try:
                setup = BranchSetup(eq, cls.pi(p0))
            except NoBranchError:
                continue
            base = setup.family.base
            assert "terms" not in vars(setup)
            divided = _reduce(eq, eq.sigma_tilde, setup.tau, setup.terms).ode(eq)
            assert base == divided
            assert _key((base.p2, base.p1, base.p0)) == _key(
                (divided.p2, divided.p1, divided.p0))
            built += 1
            collapsed += setup.branch.sign == 0
    assert built >= 40 and collapsed >= 16


def test_exact_setup_keeps_the_degree_bound():
    # classic mode: a pi of degree 2 gives a g, and so an h, of degree 2
    eq = NuEquation(Poly([1, 1], EXACT), Poly([0, -1, 1], EXACT), Poly([0, -2], EXACT),
                    CLASSIC)
    with pytest.raises(NoBranchError, match="degree bound"):
        BranchSetup(eq, Poly([0, 0, 1], EXACT)).family
    # a certified branch's h = g + pi' keeps the bound; the exact setup still
    # tests it, as the division did
    pi = next(b.pi for b in enumerate_branches(eq) if b.backend == EXACT)
    setup = BranchSetup(eq, pi)
    setup.branch = setup.branch._replace(g=setup.branch.g + Poly.x(EXACT))
    with pytest.raises(NoBranchError, match="reduced h exceeds the mode's degree bound"):
        setup.family


@pytest.mark.parametrize("family", ["heun", "che"])
def test_exact_accessory_builds_no_sigma_bar_terms(family):
    if family == "heun":
        p, label, accessory = heun_params_for_class(
            "V", 1, rc(3), rc(F(13, 2)), rc(F(-2, 3)), rc(F(-8, 3))), "V", heun_accessory
    else:
        p, label, accessory = che_params_for_class(
            "6", 1, rc(F(17, 6)), rc(F(17, 4)), rc(F(7, 3))), "6", che_accessory
    assert p.backend == EXACT
    assert accessory(p, label, 1)
    setup = class_setup(p, label)
    assert setup.eq.backend == EXACT
    assert "terms" not in vars(setup)
