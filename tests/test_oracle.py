"""Frobenius-series oracle: recurrences, termination conditions, residuals."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from heunforge.che import (
    CHE_CLASSES,
    che_accessory,
    che_eigenstate,
    che_eigenstates,
    che_params_for_class,
    che_to_nu,
)
from heunforge.engine import NoBranchError, PhiFactor
from heunforge.family import accessory_family
from heunforge.heun import (
    HEUN_CLASSES,
    heun_accessory,
    heun_eigenstate,
    heun_eigenstates,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.oracle import (
    OdeFamily,
    OdeForm,
    ResidualContour,
    coefficient_map,
    frobenius_recurrence,
    ode_residual,
    residual_contour,
    series_coeffs,
    termination_polynomial,
    termination_solve,
)
from heunforge.poly import Poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex


F = Fraction


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


def heun_ode(a, g, d, e, ab, q, backend=EXACT):
    """sigma y'' + tau~ y' + (ab z - q) y = 0 with the three-singular sigma."""
    z = Poly.x(backend)
    one = Poly.one(backend)
    ac = Poly.constant(a, backend)
    sig = z * (z - one) * (z - ac)
    tt = (z - one) * (z - ac) * g + z * (z - ac) * d + z * (z - one) * e
    return OdeForm(sig, tt, z * ab - Poly.constant(q, backend))


def test_odeform_validation():
    with pytest.raises(ValueError):
        OdeForm(Poly.zero(EXACT), Poly.one(EXACT), Poly.one(EXACT))
    with pytest.raises(ValueError):
        OdeForm(Poly.one(EXACT), Poly.one(FLOAT), Poly.one(EXACT))


def test_sinh_series():
    # w'' - w = 0 about 0, exponent 1 picks out sinh: z + z^3/6 + z^5/120
    ode = OdeForm(Poly([rc(1)], EXACT), Poly.zero(EXACT), Poly([rc(-1)], EXACT))
    rec = frobenius_recurrence(ode, 0, 1)
    cs = series_coeffs(rec, 1, 6)
    assert cs[2] == rc(Fraction(1, 6))
    assert cs[4] == rc(Fraction(1, 120))
    assert not cs[1] and not cs[3]


def test_indicial_collision_raises():
    # exponents 0 and 1 differ by an integer: the exponent-0 series breaks
    ode = OdeForm(Poly([rc(1)], EXACT), Poly.zero(EXACT), Poly([rc(-1)], EXACT))
    rec = frobenius_recurrence(ode, 0, 0)
    with pytest.raises(ValueError, match="indicial collision"):
        series_coeffs(rec, 1, 6)


def test_wrong_exponent_rejected():
    # indicial roots at 0 are 0 and 1 - gamma = 1/3; 1/5 is neither
    ode = heun_ode(rc(3), rc(Fraction(2, 3)), rc(Fraction(1, 2)),
                   rc(Fraction(3, 4)), rc(Fraction(5, 7)), rc(Fraction(1, 5)))
    frobenius_recurrence(ode, 0, rc(Fraction(1, 3)))
    with pytest.raises(ValueError, match="not an indicial root"):
        frobenius_recurrence(ode, 0, rc(Fraction(1, 5)))


def test_irregular_point_rejected():
    # z^3 y'' + y = 0 has an irregular singular point at 0
    z = Poly.x(EXACT)
    ode = OdeForm(z * z * z, Poly.zero(EXACT), Poly.one(EXACT))
    with pytest.raises(ValueError, match="irregular"):
        frobenius_recurrence(ode, 0, 0)


def test_three_singular_recurrence_bands():
    # the first band at (0, exponent 0) starts G_1(s) = a s(s - 1 + gamma),
    # so c_1 = q / (a gamma)
    a, g = rc(3), rc(Fraction(2, 3))
    ode = heun_ode(a, g, rc(Fraction(1, 2)), rc(Fraction(3, 4)),
                   rc(Fraction(5, 7)), rc(Fraction(1, 5)))
    rec = frobenius_recurrence(ode, 0, 0)
    assert rec.bands[0](rc(1)) == a * g
    cs = series_coeffs(rec, 1, 3)
    assert cs[1] == rc(Fraction(1, 5)) / (a * g)


def test_termination_polynomial_exact_quadratic():
    # two-singular base with an affine accessory direction; the degree-1
    # truncation condition is a monic quadratic with frozen coefficients
    al, be, ga = rc(Fraction(3, 2)), rc(Fraction(1, 3)), rc(Fraction(2, 5))
    z = Poly.x(EXACT)
    one = Poly.one(EXACT)
    sig = z * (z - one)
    tt = sig * al + (z - one) * (be + rc(1)) + z * (ga + rc(1))
    base = OdeForm(sig, tt, z * (-al))
    fam = OdeFamily(base, Poly.constant(rc(-1), EXACT))
    mon = termination_polynomial(fam, 1).monic()
    want = Poly([-al * (rc(1) + be), -(rc(2) + ga + be - al), rc(1)], EXACT)
    assert mon == want


def _direction_family(direction):
    z = Poly.x(EXACT)
    base = OdeForm(z * (z - Poly.one(EXACT)),
                   Poly([rc(F(1, 3)), rc(F(5, 2))], EXACT),
                   Poly.constant(rc(F(2, 7)), EXACT))
    return OdeFamily(base, direction)


def test_termination_polynomial_nonconstant_direction_frozen():
    # direction z adds t to a band above p0's own: it must not be dropped
    z = Poly.x(EXACT)
    got = termination_polynomial(_direction_family(z), 3)
    want = Poly([rc(F(-10364679, 3073280)), rc(F(64161, 62720)),
                 rc(F(9, 128))], EXACT)
    assert got == want


@pytest.mark.parametrize("power", [1, 2])
def test_termination_polynomial_nonconstant_direction_equals_series(power):
    # c_{n+1}(t) is the series coefficient of the ODE at t, for every t
    z = Poly.x(EXACT)
    fam = _direction_family(z if power == 1 else z * z)
    for n in (3, 4, 5):
        cpoly = termination_polynomial(fam, n)
        assert cpoly.degree >= 1
        for t in (F(0), F(1), F(-2, 3), F(7, 5), F(-11, 4)):
            rec = frobenius_recurrence(fam.at(rc(t)), 0, 0)
            assert cpoly(rc(t)) == series_coeffs(rec, 1, n + 2)[n + 1]


def test_termination_solve_float_roots():
    al, be, ga = 1.5, 1 / 3, 0.4
    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    sig = z * (z - one)
    tt = sig * al + (z - one) * (be + 1) + z * (ga + 1)
    fam = OdeFamily(OdeForm(sig, tt, z * (-al)), Poly.constant(-1.0, FLOAT))
    roots = termination_solve(fam, 1)
    want = sorted([37 / 60 + math.sqrt(8569) / 60,
                   37 / 60 - math.sqrt(8569) / 60])
    got = sorted(r.real for r in roots)
    assert len(roots) == 2
    for x, y in zip(got, want):
        assert abs(x - y) < 1e-10


def test_termination_solve_validates_roots():
    # every returned root must actually truncate the series: c_{n+1} and
    # c_{n+2} vanish when the recurrence is re-run at that value
    al, be, ga = 1.5, 1 / 3, 0.4
    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    sig = z * (z - one)
    tt = sig * al + (z - one) * (be + 1) + z * (ga + 1)
    base = OdeForm(sig, tt, z * (-2 * al))
    fam = OdeFamily(base, Poly.constant(-1.0, FLOAT))
    for root in termination_solve(fam, 2):
        ode = OdeForm(sig, tt, z * (-2 * al) + Poly.constant(-root, FLOAT))
        rec = frobenius_recurrence(ode, 0, 0)
        cs = series_coeffs(rec, 1, 5)
        scale = max(abs(c) for c in cs)
        assert abs(cs[3]) < 1e-8 * scale and abs(cs[4]) < 1e-8 * scale


def _apply(ode, w: Poly) -> Poly:
    """The polynomial P2 w'' + P1 w' + P0 w."""
    return ode.p2 * w.derivative().derivative() + ode.p1 * w.derivative() + ode.p0 * w


def test_coefficient_map_columns_are_images_of_monomials():
    ode = heun_ode(rc(3), rc(F(2, 3)), rc(F(1, 2)), rc(F(3, 4)),
                   rc(F(5, 7)), rc(F(1, 5)))
    mat = coefficient_map(ode, 4)
    assert mat.shape == (6, 5)
    for j in range(5):
        image = _apply(ode, Poly([0] * j + [1], EXACT))
        assert list(mat[:, j]) == [image.coeff(k) for k in range(6)]
    fmat = coefficient_map(ode.to_float(), 4)
    assert fmat.dtype == complex
    assert np.allclose(fmat, mat.astype(complex), rtol=1e-14, atol=0)
    z = Poly.x(EXACT)
    with pytest.raises(ValueError, match="more than one"):
        coefficient_map(OdeForm(ode.p2, ode.p1, z * z), 2)


def test_termination_solve_rejects_nonconstant_direction():
    z = Poly.x(EXACT)
    for direction in (z, Poly.zero(EXACT)):
        with pytest.raises(ValueError, match="constant"):
            termination_solve(_direction_family(direction), 2)


def test_termination_solve_needs_a_negligible_top_row():
    # off the class coupling the z^(n+1) coefficient of the image of z^n
    # cannot vanish, whatever the accessory value
    al, be, ga = 1.5, 1 / 3, 0.4
    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    sig = z * (z - one)
    tt = sig * al + (z - one) * (be + 1) + z * (ga + 1)
    fam = OdeFamily(OdeForm(sig, tt, z * (-al)), Poly.constant(-1.0, FLOAT))
    assert len(termination_solve(fam, 1)) == 2
    assert termination_solve(fam, 2) == []


# at alpha = 1e170 the map's norm overflows a float; the backward-error
# check must still drop the spurious t = 0, with no numpy warning
@pytest.mark.filterwarnings("error")
def test_termination_solve_checks_a_map_whose_norm_overflows():
    p = che_params_for_class("2", 2, 1e170, 1 / 3, 2 / 5, 0.0)
    values = che_accessory(p, "2", 2)
    assert len(values) == 2
    for got, want in zip(values, (-2e170, -1e170)):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_termination_solve_orders_values():
    # ascending real part, then imaginary part, and each value is within
    # a Newton step of a root of c_{n+1}
    p = heun_params_for_class("I", 5, 1.9, 0.6, 0.8, 0.7)
    fam = accessory_family(heun_to_nu(replace(p, q=0.0)), Poly.zero(FLOAT))
    values = termination_solve(fam, 5)
    assert len(values) == 6
    assert values == sorted(values, key=lambda t: (t.real, t.imag))
    cpoly = termination_polynomial(fam, 5)
    for t in values:
        assert abs(cpoly(t)) <= 1e-9 * abs(cpoly.derivative()(t)) * max(1, abs(t))


def test_termination_rejects_unknown_in_leading_band():
    # sigma = z^2 pushes the leading band up to row 2, and a constant
    # accessory direction lands exactly there: c_j would turn rational
    # in the unknown, so the builder must refuse
    z = Poly.x(EXACT)
    base = OdeForm(z * z, Poly.zero(EXACT), Poly.zero(EXACT))
    with pytest.raises(ValueError, match="leading"):
        termination_polynomial(OdeFamily(base, Poly.one(EXACT)), 1)


def test_residual_contour_avoids_singularities():
    # points within clearance of a root get pushed out radially; a point
    # that cannot escape is dropped, so the count may shrink slightly
    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    sig = z * (z - one) * (z - Poly.constant(1.9, FLOAT))
    pts = residual_contour(sig, 64)
    assert 56 <= len(pts) <= 64
    for p in pts:
        assert min(abs(p), abs(p - 1), abs(p - 1.9)) > 0.1 - 1e-9
        assert abs(complex(sig(p))) > 1e-6


def test_ode_residual_on_known_solution():
    # y = z^2 - 1/2 solves y'' - 2z y' + 4y = 0 (Hermite, n = 2)
    z = Poly.x(FLOAT)
    ode = OdeForm(Poly.one(FLOAT), z * (-2.0), Poly.constant(4.0, FLOAT))
    y = Poly([-0.5, 0.0, 1.0], FLOAT)
    assert ode_residual(y, ode) < 1e-12
    bad = Poly([-0.4, 0.0, 1.0], FLOAT)
    assert ode_residual(bad, ode) > 1e-3


def _reference_residual(state, ode, samples=50):
    """ode_residual with the prefactor's log-derivative terms rebuilt at
    every contour point, as a reference for the hoisted version."""
    poly, phi = state.poly, state.phi
    odef = ode.to_float()
    p = poly.to_float()
    dp = p.derivative()
    ddp = dp.derivative()
    worst = 0.0
    for z in residual_contour(odef.p2, samples):
        ep = phi.exp_part.to_float()
        lval = complex(ep.derivative()(z))
        lder = complex(ep.derivative().derivative()(z))
        for root, expo in phi.powers:
            dz = z - complex(root)
            lval += complex(expo) / dz
            lder -= complex(expo) / (dz * dz)
        pv, dv, ddv = p(z), dp(z), ddp(z)
        w0 = pv
        w1 = dv + lval * pv
        w2 = ddv + 2 * lval * dv + (lval * lval + lder) * pv
        t2 = odef.p2(z) * w2
        t1 = odef.p1(z) * w1
        t0 = odef.p0(z) * w0
        scale = max(abs(t2), abs(t1), abs(t0))
        if scale == 0.0:
            continue
        worst = max(worst, abs(t2 + t1 + t0) / scale)
    return worst


def test_ode_residual_matches_per_point_reference():
    states = []
    for label in HEUN_CLASSES:
        p = heun_params_for_class(label.label, 2, 1.9, 0.6, 0.8, 0.7)
        for q in heun_accessory(p, label.label, 2):
            states.append((heun_eigenstate(replace(p, q=q), label.label, 2),
                           heun_to_nu(replace(p, q=q)).psi_ode()))
    for label in CHE_CLASSES:
        p = che_params_for_class(label.label, 1, 1.5, 0.3, 0.4)
        for mu in che_accessory(p, label.label, 1):
            pm = replace(p, mu=mu, nu=p.coupling - mu)
            states.append((che_eigenstate(pm, label.label, 1),
                           che_to_nu(pm).psi_ode()))
    # an exact prefactor with an exponential part, on an equation the
    # polynomial does not solve
    z = Poly.x(EXACT)
    phi = PhiFactor(Poly([rc(1), rc(F(-3, 2), 1), rc(F(1, 4))], EXACT),
                    ((rc(0), rc(F(-1, 3))), (rc(1), rc(F(2, 5), -1))))
    ode = OdeForm(z * (z - Poly.one(EXACT)), z * rc(2) + rc(F(1, 3)),
                  z * rc(F(-5, 7), 1))
    states.append((SimpleNamespace(poly=z * z - rc(F(1, 2)), phi=phi), ode))
    assert len(states) > 20
    for state, ode in states:
        for samples in (50, 17):
            assert ode_residual(state, ode, samples) == _reference_residual(
                state, ode, samples)


def _plain_reference_residual(poly, ode, samples=50):
    """ode_residual of a bare polynomial, point by point in Python
    complex numbers."""
    odef = ode.to_float()
    p = poly.to_float()
    dp = p.derivative()
    ddp = dp.derivative()
    worst = 0.0
    for z in residual_contour(odef.p2, samples):
        t2 = odef.p2(z) * ddp(z)
        t1 = odef.p1(z) * dp(z)
        t0 = odef.p0(z) * p(z)
        scale = max(abs(t2), abs(t1), abs(t0))
        if scale == 0.0:
            continue
        worst = max(worst, abs(t2 + t1 + t0) / scale)
    return worst


def _assert_bits(a, b):
    assert type(a) is float and type(b) is float
    assert a.hex() == b.hex()


# README parameters: four-point a, gamma, delta, epsilon; confluent
# alpha, beta, gamma
FAMILIES = {
    "heun": (HEUN_CLASSES, heun_params_for_class, heun_accessory,
             heun_eigenstates, heun_eigenstate, heun_to_nu,
             lambda p, t: replace(p, q=t), (1.9, 0.6, 0.8, 0.7)),
    "che": (CHE_CLASSES, che_params_for_class, che_accessory,
            che_eigenstates, che_eigenstate, che_to_nu,
            lambda p, t: replace(p, mu=t, nu=p.coupling - t),
            (1.5, 1 / 3, 0.4)),
}


def _per_state_error(single, p, label, n):
    try:
        single(p, label, n)
    except NoBranchError as exc:
        return str(exc)
    return None


def _check_eigenstates_call(family, label, n, args):
    """One eigenstates call against the per-state reference: each state's
    residual is the point-by-point one, to the bit, and a call that fails
    fails on the first state the per-state loop fails on, with its error.
    Returns the number of states checked, or None for a failed call."""
    (_, params_for_class, accessory, batch, single, to_nu, at,
     _) = FAMILIES[family]
    p = params_for_class(label, n, *args)
    values = accessory(p, label, n)
    try:
        states = batch(p, label, n, values)
    except NoBranchError as exc:
        errors = [_per_state_error(single, at(p, t), label, n) for t in values]
        k = next(k for k, error in enumerate(errors) if error is not None)
        assert errors[k] == str(exc), (label, n)
        with pytest.raises(NoBranchError):
            batch(p, label, n, values[k: k + 1])
        states = batch(p, label, n, values[:k])
        failed = True
    else:
        assert len(states) == len(values)
        failed = False
    for state in states:
        ode = to_nu(at(p, state.accessory)).psi_ode()
        _assert_bits(state.residual, _reference_residual(state, ode))
    return None if failed else len(states)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_eigenstates_residuals_are_the_per_point_reference(family):
    classes, args = FAMILIES[family][0], FAMILIES[family][-1]
    checked = sum(_check_eigenstates_call(family, cls.label, n, args)
                  for cls in classes for n in range(13))
    assert checked == len(classes) * sum(n + 1 for n in range(13))


@pytest.mark.parametrize("family, label, n, args", [
    # degree resonances: states 1 and 3 of 4, and 1 of 3, have a null
    # vector of lower degree; states 0 and 2 verify
    ("heun", "I", 3, (1.9, -0.9, -0.9, -1.2)),
    ("heun", "III", 2, (1.9, -2.1, -1.2, -2.1)),
    # the monic eigenpolynomial's top coefficient is trimmed in state 0
    ("che", "2", 12, (0.5, 1 / 3, 13 / 9)),
])
def test_failing_eigenstates_call_raises_the_per_state_error(
        family, label, n, args):
    assert _check_eigenstates_call(family, label, n, args) is None


def test_residuals_batch_with_rows_of_different_degrees():
    z = Poly.x(FLOAT)
    phi = PhiFactor(Poly([0.3, -0.2j, 0.05], FLOAT),
                    ((0j, -1 / 3 + 0j), (1 + 0j, 0.4 - 1j)))
    p2 = z * (z - Poly.one(FLOAT)) * (z - Poly.constant(1.9, FLOAT))
    p1 = z * z * (0.5 + 0.25j) + z * 2.0 + 1 / 3
    polys = [
        Poly([-0.5, 0.0, 1.0], FLOAT),
        Poly([0.25 + 1j, 1.0], FLOAT),
        Poly.one(FLOAT),
        Poly([1.0, -2.0, 0.5j, 3.0, -0.75 + 0.1j, 1.0], FLOAT),
        Poly([rc(F(-1, 3)), rc(0), rc(1)], EXACT),
    ]
    p0s = [
        Poly.constant(4.0, FLOAT),
        Poly([0.7, -1.3j, 2.0, 0.1, -0.02j], FLOAT),
        Poly([0.0, 0.0, 0.0, 0.1, -5.0], FLOAT),
        Poly.zero(FLOAT),
        Poly([rc(F(2, 3)), rc(F(-5, 7), 1)], EXACT),
    ]
    for samples in (50, 17):
        contour = ResidualContour(p2, p1, phi, samples)
        got = contour.residuals(polys, p0s)
        assert len(got) == len(polys)
        for poly, p0, value in zip(polys, p0s, got):
            state = SimpleNamespace(poly=poly, phi=phi)
            ode = OdeForm(p2, p1, p0.to_float())
            _assert_bits(value, _reference_residual(state, ode, samples))
            _assert_bits(value, ode_residual(state, ode, samples))
    assert ResidualContour(p2, p1, phi).residuals([], []) == []


def test_phi_free_residual_is_the_per_point_reference():
    z = Poly.x(FLOAT)
    odes = [
        OdeForm(Poly.one(FLOAT), z * (-2.0), Poly.constant(4.0, FLOAT)),
        OdeForm(z * (z - Poly.one(FLOAT)), z * (1.5 - 0.5j) + 0.3,
                z * 0.2 - Poly.constant(1.1j, FLOAT)),
    ]
    polys = [
        Poly([-0.5, 0.0, 1.0], FLOAT),
        Poly([-0.4, 0.0, 1.0], FLOAT),
        Poly([0.3 - 0.1j, -1.7, 0.2j, 1.0], FLOAT),
    ]
    for ode in odes:
        for poly in polys:
            for samples in (50, 17):
                _assert_bits(ode_residual(poly, ode, samples),
                             _plain_reference_residual(poly, ode, samples))


def test_residual_on_a_contour_that_dropped_points():
    # two sigma roots close together on the circle: one of the 17 sample
    # points cannot be pushed clear of both and is dropped
    z = Poly.x(FLOAT)
    r1, r2 = 0.95 + 0.05j, 0.95 - 0.08j
    p2 = (z - Poly.constant(r1, FLOAT)) * (z - Poly.constant(r2, FLOAT))
    assert len(residual_contour(p2, 17)) < 17
    ode = OdeForm(p2, z * (0.7 + 0.2j) - 1.0, Poly.constant(-0.6, FLOAT))
    phi = PhiFactor(Poly([0.0, 0.3], FLOAT), ((r1, 0.25 + 0j), (r2, -0.5j)))
    for poly in (Poly([-0.5, 0.0, 1.0], FLOAT), Poly([0.2j, 1.0], FLOAT)):
        state = SimpleNamespace(poly=poly, phi=phi)
        _assert_bits(ode_residual(state, ode, 17),
                     _reference_residual(state, ode, 17))
        _assert_bits(ode_residual(poly, ode, 17),
                     _plain_reference_residual(poly, ode, 17))


def test_residual_where_all_three_terms_are_zero():
    # p = z - z3 and p1 = z - z3 vanish at the contour point z3, and
    # p'' = 0, so T2, T1 and T0 are exactly 0 there and the point is
    # skipped; every other point counts
    z3 = residual_contour(Poly.one(FLOAT))[3]
    poly = Poly([-z3, 1.0], FLOAT)
    ode = OdeForm(Poly.one(FLOAT), Poly([-z3, 1.0], FLOAT),
                  Poly([-1.0, 0.5], FLOAT))
    terms = (ode.p2(z3) * 0, ode.p1(z3) * poly.derivative()(z3),
             ode.p0(z3) * poly(z3))
    assert all(t == 0 for t in terms)
    value = ode_residual(poly, ode)
    _assert_bits(value, _plain_reference_residual(poly, ode))
    assert 0.0 < value < math.inf


def test_residual_skips_points_where_the_terms_are_rounding_noise():
    # the mu = 0 state of confluent class 7 at beta = 1 is psi = 1, an
    # exact solution whose terms are all about 1e-18 at every point:
    # noise divided by itself used to read 1.88 there
    p = che_params_for_class("7", 1, 1.5, 1.0, -0.5)
    values = che_accessory(p, "7", 1)
    states = che_eigenstates(p, "7", 1, values)
    zero = [s for s in states if abs(s.accessory) < 1e-12]
    assert len(zero) == 1 and zero[0].residual <= 1e-8
    assert all(s.residual <= 1e-8 for s in states)


def test_residual_overflow_raises_as_python_abs_does():
    # a term whose finite parts overflow in the modulus raises, as abs()
    # of a Python complex does
    huge = Poly.constant(1.5e308, FLOAT)
    ode = OdeForm(Poly.one(FLOAT), Poly.zero(FLOAT),
                  Poly.constant(1 + 1j, FLOAT))
    with pytest.raises(OverflowError):
        _plain_reference_residual(huge, ode)
    with pytest.raises(OverflowError):
        ode_residual(huge, ode)
