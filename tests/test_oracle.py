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
    che_params_for_class,
    che_to_nu,
)
from heunforge.engine import PhiFactor
from heunforge.family import accessory_family
from heunforge.heun import (
    HEUN_CLASSES,
    heun_accessory,
    heun_eigenstate,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.oracle import (
    OdeFamily,
    OdeForm,
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


def test_coefficient_map_columns_are_images_of_monomials():
    ode = heun_ode(rc(3), rc(F(2, 3)), rc(F(1, 2)), rc(F(3, 4)),
                   rc(F(5, 7)), rc(F(1, 5)))
    mat = coefficient_map(ode, 4)
    assert mat.shape == (6, 5)
    for j in range(5):
        image = ode.apply(Poly([0] * j + [1], EXACT))
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
