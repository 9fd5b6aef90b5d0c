"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdicts. Every tolerance below is the contract value, not a convenience.
"""

import math
from fractions import Fraction

import numpy as np

from heunforge.apps import (
    ANTISYMMETRIC,
    SYMMETRIC,
    coulomb3s_verify,
    doublewell_spectrum,
    doublewell_verify,
    electrons_sphere_state,
)
from heunforge.che import (
    CHE_CLASSES,
    CheParams,
    che_accessory,
    che_eigenstate,
    che_params_for_class,
    che_to_nu,
)
from heunforge.engine import (
    branch_from_pi,
    enumerate_branches,
    quantization,
    reduce_branch,
)
from heunforge.family import class_relation
from heunforge.heun import (
    HEUN_CLASSES,
    HeunParams,
    heun_accessory,
    heun_class,
    heun_eigenstate,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.oracle import OdeFamily, ode_residual, termination_polynomial
from heunforge.poly import Poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex

F = Fraction


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


def _random_heun(rng):
    """One Fuchsian-consistent draw with margins keeping the eight
    branches distinct (degenerate exponents collapse the catalog)."""
    while True:
        a = float(rng.uniform(1.4, 3.2))
        gamma, delta = (float(v) for v in rng.uniform(0.25, 1.8, size=2))
        alpha, beta = (float(v) for v in rng.uniform(0.3, 1.6, size=2))
        epsilon = alpha + beta - gamma - delta + 1
        q = float(rng.uniform(-1.2, 1.2))
        margins = (abs(1 - gamma), abs(1 - delta), abs(1 - epsilon),
                   abs(epsilon))
        if min(margins) < 0.08:
            continue
        try:
            return HeunParams(a, q, alpha, beta, gamma, delta, epsilon)
        except ValueError:
            continue


def _random_che(rng):
    while True:
        alpha = float(rng.uniform(0.4, 2.2))
        beta, gamma = (float(v) for v in rng.uniform(0.2, 1.6, size=2))
        mu = float(rng.uniform(-1.0, 1.0))
        nu = float(rng.uniform(-1.0, 1.0))
        if min(abs(alpha), abs(beta), abs(gamma)) < 0.08:
            continue
        return CheParams(alpha, beta, gamma, mu, nu)


def _distinct_g_count(branches):
    reps = []
    for b in branches:
        gf = b.g.to_float()
        key = (complex(gf.coeff(1)), complex(gf.coeff(0)))
        if not any(abs(key[0] - r[0]) + abs(key[1] - r[1]) < 1e-8
                   for r in reps):
            reps.append(key)
    return len(reps)


def _matches_catalog(branches, classes, params):
    for cls in classes:
        target = cls.pi(params)
        scale = max(target.max_abs(), 1.0)
        hits = [b for b in branches
                if (b.pi.to_float() - target).max_abs() < 1e-8 * scale]
        if len(hits) != 1:
            return False
    return True


def test_criterion_1_branch_catalogs():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        p = _random_heun(rng)
        branches = enumerate_branches(heun_to_nu(p))
        assert len(branches) == 8, p
        assert _distinct_g_count(branches) == 4, p
        assert _matches_catalog(branches, HEUN_CLASSES, p), p
    for _ in range(100):
        p = _random_che(rng)
        branches = enumerate_branches(che_to_nu(p))
        assert len(branches) == 8, p
        assert _distinct_g_count(branches) == 4, p
        assert _matches_catalog(branches, CHE_CLASSES, p), p
    print("criterion 1: PASS (100 draws per family, 8 branches, "
          "4 g's, full catalog at 1e-8)")


def test_criterion_2_eigenvalue_relations():
    rng = np.random.default_rng(40)
    for trial in range(5):
        ph = _random_heun(rng)
        eqh = heun_to_nu(ph)
        for cls in HEUN_CLASSES:
            b = branch_from_pi(eqh, cls.pi(ph))
            for n in range(11):
                qr = quantization(eqh, b, n)
                rel = class_relation(ph, cls.label, n)
                assert abs(complex(qr.slope_residual) - complex(rel)) \
                    < 1e-9, (cls.label, n)
        pc = _random_che(rng)
        eqc = che_to_nu(pc)
        for cls in CHE_CLASSES:
            b = branch_from_pi(eqc, cls.pi(pc))
            for n in range(11):
                qr = quantization(eqc, b, n)
                rel = class_relation(pc, cls.label, n)
                assert abs(complex(qr.slope_residual) - complex(rel)) \
                    < 1e-9, (cls.label, n)
    # at tuned parameters the slope constraint vanishes outright
    for cls in HEUN_CLASSES:
        for n in (0, 4, 10):
            p = heun_params_for_class(cls.label, n, 1.9, 0.6, 0.8, 0.7)
            b = branch_from_pi(heun_to_nu(p), cls.pi(p))
            qr = quantization(heun_to_nu(p), b, n)
            assert abs(complex(qr.slope_residual)) < 1e-9, (cls.label, n)
    for cls in CHE_CLASSES:
        for n in (0, 4, 10):
            p = che_params_for_class(cls.label, n, 1.3, 0.4, 0.7)
            b = branch_from_pi(che_to_nu(p), cls.pi(p))
            qr = quantization(che_to_nu(p), b, n)
            assert abs(complex(qr.slope_residual)) < 1e-9, (cls.label, n)
    print("criterion 2: PASS (8 + 8 class relations, n = 0..10, 1e-9)")


def test_criterion_3_coulomb_grid():
    worst = 0.0
    for n in range(6):
        for m in range(4):
            for g in (0.0, 0.5, 2.0):
                rep = coulomb3s_verify(n, m, g)
                worst = max(worst, rep.residual_direct, rep.residual_flipped)
                assert rep.residual_direct < 1e-9, (n, m, g)
                assert rep.residual_flipped < 1e-9, (n, m, g)
    print("criterion 3: PASS (n=0..5, m=0..3, gamma in {0, 0.5, 2}; "
          "worst residual %.3g)" % worst)


def test_criterion_4_electrons_grid():
    for dl in (0.5, 1.0, 2.0, 3.0):
        for gm in (0.5, 1.0, 2.0, 3.0):
            st1 = electrons_sphere_state(1, gm, dl)
            assert abs(st1.radius - 0.5 * math.sqrt(dl / gm)) < 1e-9
            assert abs(st1.energy - gm) < 1e-9
            assert st1.bethe < 1e-8
            st2 = electrons_sphere_state(2, gm, dl)
            assert abs((2 * st2.radius) ** 2
                       - (2 * (dl + 2) + (4 * dl + 6) / gm)) < 1e-9
            want = gm * (dl + 1) / (gm * (dl + 2) + 2 * dl + 3)
            assert abs(st2.energy - want) < 1e-9
            assert st2.bethe < 1e-8
    print("criterion 4: PASS (n=1,2 closed forms to 1e-9 over the "
          "4x4 grid; Bethe residual < 1e-8)")


def test_criterion_5_doublewell_grid():
    for d in (0.5, 1.0, 2.0):
        for u0 in (25.0, 100.0):
            for upper in range(4):
                s = doublewell_spectrum(upper, d, u0, SYMMETRIC)
                a = doublewell_spectrum(upper, d, u0, ANTISYMMETRIC)
                root = d * math.sqrt(u0)
                assert abs(s + (3 + 4 * upper - root) ** 2 / (4 * d * d)) \
                    < 1e-9
                assert abs(a + (5 + 4 * upper - root) ** 2 / (4 * d * d)) \
                    < 1e-9
                for parity in (SYMMETRIC, ANTISYMMETRIC):
                    rep = doublewell_verify(upper, d, u0, parity)
                    assert rep.relation_residual < 1e-9
                    assert rep.termination_residual < 1e-8
    print("criterion 5: PASS (both parities, N=0..3, d in {0.5,1,2}, "
          "U0 in {25,100}; truncation coefficient < 1e-8)")


def _band_f2_poly(k, a, gamma, delta, epsilon):
    """F_2(k) as an affine exact polynomial in the accessory unknown q."""
    one = rc(1)
    kk = rc(k)
    const = (-(one + a) * kk * (kk - one)
             - (gamma * (one + a) + delta * a + epsilon) * kk)
    return Poly([const, rc(-1)], EXACT)


def _tridiagonal_det(n, p):
    """Determinant of the (n+1)x(n+1) truncation system as an exact
    polynomial in q, by the tridiagonal three-term recursion."""
    a, g, d, e = p.a, p.gamma, p.delta, p.epsilon
    ab = p.product

    def f1(k):
        return a * rc(k) * (rc(k) - rc(1) + g)

    def f3(k):
        return rc(k) * (rc(k) - rc(1)) + (g + d + e) * rc(k) + ab

    minors = [Poly.one(EXACT), _band_f2_poly(0, a, g, d, e)]
    for k in range(1, n + 1):
        nxt = (_band_f2_poly(k, a, g, d, e) * minors[-1]
               - minors[-2] * (f1(k) * f3(k - 1)))
        minors.append(nxt)
    return minors[-1]


def test_criterion_6_exact_determinant_oracle():
    # exact backend: the truncation polynomial from the series oracle is
    # bit-for-bit the banded determinant, so the root sets are identical
    for n in (1, 2):
        p = heun_params_for_class("I", n, rc(2), rc(F(1, 2)), rc(F(1, 3)),
                                  rc(F(1, 4)))
        assert p.backend == EXACT
        eq0 = heun_to_nu(p.at(rc(0)))
        b = branch_from_pi(eq0, heun_class("I").pi(p))
        rf = reduce_branch(eq0, b)
        fam = OdeFamily(rf.ode(eq0), Poly.constant(rc(-1), EXACT))
        mon = termination_polynomial(fam, n).monic()
        det = _tridiagonal_det(n, p).monic()
        assert mon == det, (n, mon.coeffs, det.coeffs)
        # and the numeric accessory roots solve that determinant
        detf = det.to_float()
        for root in heun_accessory(p, "I", n):
            assert abs(complex(detf(root))) < 1e-9 * max(detf.max_abs(), 1.0)
    print("criterion 6: PASS (n=1,2 truncation polynomial equals the "
          "2x2/3x3 determinant exactly)")


def test_criterion_7_residual_gate():
    # every assembled eigenfunction from both catalogs clears 1e-8 on the
    # 50-point contour, and a 1e-3 accessory detune is detected above 1e-4
    for cls in HEUN_CLASSES:
        p = heun_params_for_class(cls.label, 2, 1.9, 0.6, 0.8, 0.7)
        q0 = heun_accessory(p, cls.label, 2)[0]
        st = heun_eigenstate(p.at(q0), cls.label, 2)
        assert st.residual < 1e-8, (cls.label, st.residual)
        off = heun_to_nu(p.at(q0 + 1e-3))
        assert ode_residual(st, off.psi_ode()) > 1e-4, cls.label
    for cls in CHE_CLASSES:
        p = che_params_for_class(cls.label, 2, 1.3, 0.4, 0.7)
        mu0 = che_accessory(p, cls.label, 2)[0]
        p2 = CheParams(p.alpha, p.beta, p.gamma, mu0, complex(p.coupling) - mu0)
        st = che_eigenstate(p2, cls.label, 2)
        assert st.residual < 1e-8, (cls.label, st.residual)
        off = che_to_nu(CheParams(p2.alpha, p2.beta, p2.gamma, mu0 + 1e-3,
                                  complex(p.coupling) - mu0 - 1e-3))
        assert ode_residual(st, off.psi_ode()) > 1e-4, cls.label
    print("criterion 7: PASS (16 eigenfunctions < 1e-8 on 50 contour "
          "points; 1e-3 detuning raises residual above 1e-4)")


def _random_poly(rng, max_degree, nonzero=False):
    deg = int(rng.integers(0 if not nonzero else 1, max_degree + 1))
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    while abs(coeffs[-1]) < 1e-3:
        coeffs[-1] = complex(rng.normal() + 1j * rng.normal())
    return Poly([complex(c) for c in coeffs], FLOAT)


def test_criterion_8_polynomial_kernel_suites():
    failures = 0
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        p = _random_poly(rng, 6)
        d = _random_poly(rng, 3, nonzero=True)
        q, r = p.divrem(d)
        scale = max(p.max_abs(), q.max_abs() * max(d.max_abs(), 1.0), 1.0)
        if (q * d + r - p).max_abs() > 1e-9 * scale:
            failures += 1
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        if (lhs - rhs).max_abs() > 1e-10 * max(lhs.max_abs(), 1.0):
            failures += 1
    rng = np.random.default_rng(97)
    for _ in range(1000):
        s = _random_poly(rng, 3)
        d = s * s
        head, rem = d.sqrt_head()
        scale = max(s.max_abs(), 1.0)
        if min((head - s).max_abs(), (head + s).max_abs()) > 1e-9 * scale:
            failures += 1
        if rem.max_abs() > 1e-9 * scale * scale:
            failures += 1
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        p = _random_poly(rng, 6, nonzero=True)
        scale = max(p.max_abs(), 1.0)
        for root in p.roots():
            bound = 1e-7 * scale * max(1.0, abs(root)) ** p.degree
            if abs(complex(p.to_float()(root))) > bound:
                failures += 1
    assert failures == 0
    print("criterion 8: PASS (4 property suites x 1000 cases, "
          "zero failures)")
