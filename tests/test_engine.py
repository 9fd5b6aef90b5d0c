"""Branch engine: enumeration, reduction, quantization, eigenfunctions."""

from fractions import Fraction

import numpy as np
import pytest

from heunforge import (
    CHE_CLASSES,
    HEUN_CLASSES,
    che_accessory,
    che_eigenstates,
    che_params_for_class,
    che_to_nu,
    heun_accessory,
    heun_eigenstates,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.engine import (
    CLASSIC,
    EXTENDED,
    NoBranchError,
    NuEquation,
    branch_from_pi,
    enumerate_branches,
    phi_factor,
    polynomial_solution,
    quantization,
    radicand,
    reduce_branch,
)
from heunforge.oracle import OdeForm, ode_residual
from heunforge.poly import Poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex

F = Fraction


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


def heun_nu(a, g, d, e, ab, q, backend=FLOAT):
    """Three-finite-singular equation in raw form, accessory already fixed."""
    z = Poly.x(backend)
    one = Poly.one(backend)
    ac = Poly.constant(a, backend)
    sig = z * (z - one) * (z - ac)
    tt = (z - one) * (z - ac) * g + z * (z - ac) * d + z * (z - one) * e
    st = (z * ab - Poly.constant(q, backend)) * sig
    return NuEquation(tt, sig, st, EXTENDED)


def test_mode_and_degree_validation():
    z = Poly.x(FLOAT)
    with pytest.raises(ValueError, match="mode"):
        NuEquation(Poly.zero(FLOAT), Poly.one(FLOAT), Poly.one(FLOAT), "bogus")
    with pytest.raises(ValueError, match="sigma must be nonzero"):
        NuEquation(Poly.zero(FLOAT), Poly.zero(FLOAT), Poly.one(FLOAT),
                   EXTENDED)
    # classic bounds are (1, 2, 2): a cubic sigma~ must be rejected
    with pytest.raises(ValueError, match="degree bounds"):
        NuEquation(Poly.zero(FLOAT), Poly.one(FLOAT), z * z * z, CLASSIC)
    # extended bounds are (2, 3, 4)
    with pytest.raises(ValueError, match="degree bounds"):
        NuEquation(z * z * z, Poly.one(FLOAT), Poly.one(FLOAT), EXTENDED)


def test_radicand_identity():
    eq = heun_nu(2.3, 0.7, 1.2, 0.9, 1.37, 0.41)
    for b in enumerate_branches(eq):
        rad = radicand(eq, b.g)
        diff = rad - b.s * b.s
        assert diff.max_abs() < 1e-8 * max(rad.max_abs(), 1.0)


def test_eight_branches_four_g_lines():
    av, gv, dv, ev = 2.3, 0.7, 1.2, 0.9
    abv, qv = 1.37, 0.41
    eq = heun_nu(av, gv, dv, ev, abv, qv)
    branches = enumerate_branches(eq)
    assert len(branches) == 8
    # the four affine g's, each carrying a +/- pair of branches
    g1 = (abv, -qv)
    g2 = (abv - (1 - gv) * ((1 - dv) + (1 - ev)),
          -qv - (1 - gv) * ((1 - dv) * (-av) + (1 - ev) * (-1)))
    g3 = (abv - (1 - ev) * ((1 - gv) + (1 - dv)), -qv + (1 - ev) * (1 - gv))
    g4 = (abv - (1 - dv) * ((1 - gv) + (1 - ev)),
          -qv + av * (1 - dv) * (1 - gv))
    found = []
    for b in branches:
        gf = b.g.to_float()
        found.append((complex(gf.coeff(1)), complex(gf.coeff(0))))
    for want in (g1, g2, g3, g4):
        hits = [f for f in found
                if abs(f[0] - want[0]) < 1e-8 and abs(f[1] - want[1]) < 1e-8]
        assert len(hits) == 2, (want, found)


def test_reduction_h_equals_g_plus_pi_prime():
    eq = heun_nu(2.3, 0.7, 1.2, 0.9, 1.37, 0.41)
    for b in enumerate_branches(eq):
        rf = reduce_branch(eq, b)
        diff = rf.h - b.g - b.pi.derivative()
        assert diff.max_abs() < 1e-8
        assert (rf.tau - eq.tau_tilde - b.pi - b.pi).max_abs() < 1e-12


def test_branch_from_pi_exact_roundtrip():
    ae, ge, de, ee = rc(2), rc(F(3, 4)), rc(F(5, 6)), rc(F(7, 8))
    abe, qe = rc(F(5, 7)), rc(F(1, 5))
    eq = heun_nu(ae, ge, de, ee, abe, qe, EXACT)
    z = Poly.x(EXACT)
    one = Poly.one(EXACT)
    ap = Poly.constant(ae, EXACT)
    pi = ((z - one) * (z - ap) * (rc(1) - ge)
          + z * (z - ap) * (rc(1) - de)
          + z * (z - one) * (rc(1) - ee))
    b = branch_from_pi(eq, pi)
    assert b.backend == EXACT
    assert b.g.coeff(1) == abe and b.g.coeff(0) == -qe
    rf = reduce_branch(eq, b)
    assert rf.h == b.g + b.pi.derivative()


def test_branch_from_pi_rejects_non_branch():
    eq = heun_nu(rc(2), rc(F(3, 4)), rc(F(5, 6)), rc(F(7, 8)),
                 rc(F(5, 7)), rc(F(1, 5)), EXACT)
    with pytest.raises(NoBranchError):
        branch_from_pi(eq, Poly([rc(1), rc(1)], EXACT))
    z = Poly.x(EXACT)
    with pytest.raises(ValueError, match="degree"):
        branch_from_pi(eq, z * z * z)


def test_quantization_zero_branch_frozen():
    # on the pi = 0 branch, slope residual at n = 1 is ab + (e + g + d)
    # and the constant offset is -q + tau~[1]/2
    ae, ge, de, ee = rc(2), rc(F(3, 4)), rc(F(5, 6)), rc(F(7, 8))
    abe, qe = rc(F(5, 7)), rc(F(1, 5))
    eq = heun_nu(ae, ge, de, ee, abe, qe, EXACT)
    b = branch_from_pi(eq, Poly.zero(EXACT))
    qr = quantization(eq, b, 1)
    assert qr.mode == EXTENDED
    assert qr.slope_residual == abe + (ee + ge + de)
    z = Poly.x(EXACT)
    one = Poly.one(EXACT)
    ap = Poly.constant(ae, EXACT)
    tt = (z - one) * (z - ap) * ge + z * (z - ap) * de + z * (z - one) * ee
    assert qr.constant_offset == -qe + tt.coeff(1) * rc(F(1, 2))


def test_polynomial_solution_with_residual():
    # fix the coupling so degree 1 terminates on the pi = 0 branch, then
    # resolve the accessory numerically and check the assembled solution
    gv, dv, ev = 0.6, 0.8, 0.7
    abv = -(ev + gv + dv)
    av = 1.9
    from heunforge.oracle import OdeFamily, termination_solve

    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    ac = Poly.constant(av, FLOAT)
    sig = z * (z - one) * (z - ac)
    tt = (z - one) * (z - ac) * gv + z * (z - ac) * dv + z * (z - one) * ev
    fam = OdeFamily(OdeForm(sig, tt, z * abv), Poly.constant(-1.0, FLOAT))
    roots = termination_solve(fam, 1)
    assert len(roots) == 2
    q0 = roots[0]
    eq = heun_nu(av, gv, dv, ev, abv, q0)
    b = branch_from_pi(eq, Poly.zero(FLOAT))
    assert abs(complex(quantization(eq, b, 1).slope_residual)) < 1e-10
    y = polynomial_solution(eq, b, 1)
    assert y.degree == 1
    assert abs(complex(y.leading()) - 1) < 1e-12
    ode = OdeForm(sig, tt, z * abv - Poly.constant(q0, FLOAT))
    assert ode_residual(y, ode) < 1e-11


def _log_deriv(ph, z) -> complex:
    """phi'/phi of a PhiFactor at z, from its exponential part and powers."""
    val = complex(ph.exp_part.to_float().derivative()(z))
    for root, expo in ph.powers:
        val += complex(expo) / (z - complex(root))
    return val


def test_phi_factor_power_prefactor():
    # pi = (1-gamma)(z-1)(z-a) gives phi = z^(1-gamma), no exponential part
    ae, ge = rc(2), rc(F(3, 4))
    eq = heun_nu(ae, ge, rc(F(5, 6)), rc(F(7, 8)), rc(F(5, 7)), rc(F(1, 5)),
                 EXACT)
    z = Poly.x(EXACT)
    one = Poly.one(EXACT)
    pi = (z - one) * (z - Poly.constant(ae, EXACT)) * (rc(1) - ge)
    b = branch_from_pi(eq, pi)
    ph = phi_factor(eq, b)
    assert ph.exp_part.to_float().max_abs() < 1e-14
    by_root = sorted(ph.powers, key=lambda t: abs(t[0]))
    assert abs(by_root[0][0]) < 1e-12 and abs(by_root[0][1] - 0.25) < 1e-10
    assert all(abs(e) < 1e-12 for _, e in by_root[1:])
    # phi'/phi must equal pi/sigma pointwise
    zz = 0.37 + 0.21j
    lhs = _log_deriv(ph, zz)
    rhs = complex(b.pi.to_float()(zz)) / complex(eq.sigma.to_float()(zz))
    assert abs(lhs - rhs) < 1e-12


def test_phi_factor_rejects_repeated_sigma_root():
    z = Poly.x(FLOAT)
    sig = z * z * (z - Poly.constant(1.0, FLOAT))
    eq = NuEquation(Poly.zero(FLOAT), sig, Poly.zero(FLOAT), EXTENDED)
    b = branch_from_pi(eq, Poly.zero(FLOAT))
    with pytest.raises(ValueError, match="repeated root"):
        phi_factor(eq, b)


def test_degenerate_radicand_collapses():
    # sigma~ chosen so the radicand vanishes identically at g = 0: the
    # enumeration must report the sign-0 degenerate branch
    z = Poly.x(FLOAT)
    one = Poly.one(FLOAT)
    ac = Poly.constant(1.9, FLOAT)
    sig = z * (z - one) * (z - ac)
    tt = (z - one) * (z - ac) * 0.6 + z * (z - ac) * 0.8 + z * (z - one) * 0.7
    half = (sig.derivative() - tt) * 0.5
    eq = NuEquation(tt, sig, half * half, EXTENDED)
    degen = [b for b in enumerate_branches(eq) if b.sign == 0]
    assert degen
    assert degen[0].g.to_float().max_abs() < 1e-9


def test_classic_mode_hermite():
    # psi'' + (lam - z^2) psi = 0 at lam = 5 admits the degree-2 solution
    # z^2 - 1/2 on the pi = -z branch
    lam = 5.0
    eq = NuEquation(Poly.zero(FLOAT), Poly.one(FLOAT),
                    Poly([lam, 0.0, -1.0], FLOAT), CLASSIC)
    branches = enumerate_branches(eq)
    assert len(branches) >= 2
    good = [b for b in branches
            if abs(complex(quantization(eq, b, 2).slope_residual)) < 1e-9]
    assert good
    qr = quantization(eq, good[0], 2)
    assert qr.mode == CLASSIC
    assert abs(complex(qr.lambda_n) - 4.0) < 1e-9
    y = polynomial_solution(eq, good[0], 2)
    assert abs(complex(y.coeff(0)) + 0.5) < 1e-10
    assert abs(complex(y.coeff(1))) < 1e-10


def test_accessory_shift_moves_h_only():
    # the accessory enters sigma~ = (alpha beta z - q) sigma, so q + 0.25
    # moves sigma~ by -0.25 sigma
    eq = heun_nu(2.3, 0.7, 1.2, 0.9, 1.37, 0.41)
    shifted = heun_nu(2.3, 0.7, 1.2, 0.9, 1.37, 0.41 + 0.25)
    b = branch_from_pi(eq, Poly.zero(FLOAT))
    bs = branch_from_pi(shifted, Poly.zero(FLOAT))
    h0 = reduce_branch(eq, b).h
    h1 = reduce_branch(shifted, bs).h
    diff = h0 - h1
    assert abs(complex(diff.coeff(0)) - 0.25) < 1e-12
    assert abs(complex(diff.coeff(1))) < 1e-12


def test_random_equations_branch_structure():
    # random Fuchsian-consistent draws: 8 branches, all validated by the
    # divisibility reduction, radicand identity everywhere
    rng = np.random.default_rng(8121311)
    for _ in range(25):
        av = 1.5 + rng.uniform(0.2, 1.5)
        gv, dv, ev = rng.uniform(0.3, 1.7, size=3)
        alv, bev = rng.uniform(0.3, 1.5, size=2)
        ev = alv + bev - gv - dv + 1
        if abs(ev) < 0.05 or min(abs(1 - gv), abs(1 - dv), abs(1 - ev)) < 0.05:
            continue
        qv = rng.uniform(-1.0, 1.0)
        eq = heun_nu(av, gv, dv, ev, alv * bev, qv)
        branches = enumerate_branches(eq)
        assert len(branches) == 8
        for b in branches:
            rad = radicand(eq, b.g)
            assert (rad - b.s * b.s).max_abs() <= 1e-7 * max(
                rad.max_abs(), 1.0)
            reduce_branch(eq, b)


# -- repeated roots of sigma ---------------------------------------------------


def _exact_poly(coeffs):
    return Poly([rc(c) for c in coeffs], EXACT)


def _cast(p, backend):
    return p if backend == EXACT else p.to_float()


SHAPES = {
    # name: (roots of sigma with multiplicity, expected branch count)
    "cube": ((F(3, 7),) * 3, 2),
    "square-linear": ((F(-5, 4), F(-5, 4), F(2, 3)), 4),
    "square": ((F(5, 6), F(5, 6)), 4),
    "linear": ((F(1, 3),), 4),
    "constant": ((), 2),
}


TAU_TILDE = [F(1, 3), F(-3, 2), F(4, 5)]


def _sigma(roots):
    sig = _exact_poly([2])
    for r in roots:
        sig = sig * (Poly.x(EXACT) - Poly.constant(rc(r), EXACT))
    return sig


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_repeated_root_sigma_planted_branch(shape, backend):
    # sigma~ is built so that pi0 is a branch with g = g0:
    # pi0^2 + pi0 (tau~ - sigma') + sigma~ = g0 sigma
    roots, count = SHAPES[shape]
    sig = _sigma(roots)
    tt = _exact_poly(TAU_TILDE)
    pi0 = _exact_poly([F(-7, 8), F(5, 3), F(2, 5)])
    g0 = _exact_poly([F(3, 4), F(-1, 6)])
    st = g0 * sig - pi0 * pi0 - pi0 * (tt - sig.derivative())
    eq = NuEquation(_cast(tt, backend), _cast(sig, backend),
                    _cast(st, backend), EXTENDED)
    branches = enumerate_branches(eq)
    assert len(branches) == count
    hits = [b for b in branches
            if (b.pi.to_float() - pi0.to_float()).max_abs() < 1e-9]
    assert len(hits) == 1
    if backend == EXACT:
        assert hits[0].pi == pi0 and hits[0].g == g0
    for b in branches:
        reduce_branch(eq, b)


# B = ((sigma' - tau~)/2)^2 - sigma~ vanishing at the repeated point of
# sigma to order v: odd v below the multiplicity admits no branch, any
# other v > 0 a continuum of branches. A linear sigma puts its repeated
# point at infinity, where B vanishes to order 4 - deg B.
VANISHING = [
    ("cube", 1, "empty"),
    ("cube", 2, "continuum"),
    ("cube", 3, "continuum"),
    ("square-linear", 1, "empty"),
    ("square-linear", 2, "continuum"),
    ("square", 1, "empty"),
    ("square", 2, "continuum"),
    ("linear", 1, "empty"),
    ("linear", 2, "continuum"),
]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("shape,order,outcome", VANISHING)
def test_radicand_vanishing_at_repeated_point(shape, order, outcome, backend):
    roots = SHAPES[shape][0]
    sig = _sigma(roots)
    tt = _exact_poly(TAU_TILDE)
    bpoly = _exact_poly([F(2, 9), F(1, 2), 1, -1][: 5 - order])
    if sig.degree >= 2:  # the repeated point is the root roots[0]
        c = Poly.x(EXACT) - Poly.constant(rc(roots[0]), EXACT)
        for _ in range(order):
            bpoly = bpoly * c
    half = (sig.derivative() - tt) * rc(F(1, 2))
    eq = NuEquation(_cast(tt, backend), _cast(sig, backend),
                    _cast(half * half - bpoly, backend), EXTENDED)
    if outcome == "empty":
        assert enumerate_branches(eq) == []
    else:
        with pytest.raises(NoBranchError, match="not finite"):
            enumerate_branches(eq)


def test_exact_branches_survive_a_near_miss_rationalization():
    # g0 = 229211/348480 of branches 0 and 1 lies within 1e-9 of 1966/2989,
    # so g rounded on a denominator ladder can come out wrong. The exact g
    # must come from the branch identity, here through pi = 87/88 - 15/11 z
    # + 3/8 z^2 and -2753/4840 z - 7/40 z^2, whose denominators are small
    eq = NuEquation(
        _exact_poly([F(145, 88), F(-25847, 4840), F(14, 5)]),
        _exact_poly([0, F(29, 11), F(-40, 11), 1]),
        _exact_poly([0, F(116, 99), F(244, 495), F(-244, 99), F(4, 5)]),
        EXTENDED,
    )
    branches = enumerate_branches(eq)
    assert len(branches) == 8
    for b in branches:
        assert b.backend == EXACT
        assert all(isinstance(c, RationalComplex) for c in b.g.coeffs)
        reduce_branch(eq, b)
    for b in branches[:2]:
        assert b.g.coeff(0) == rc(F(229211, 348480))
    assert abs(F(1966, 2989) - F(229211, 348480)) <= F(1, 10**9)


# the README parameters, float backend
_CLASS_CASES = [
    (heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7), heun_to_nu,
     HEUN_CLASSES),
    (che_params_for_class("1", 2, 1.5, 1 / 3, 0.4), che_to_nu, CHE_CLASSES),
]


@pytest.mark.parametrize("p, to_nu, classes", _CLASS_CASES,
                         ids=["heun", "che"])
def test_branch_from_pi_gives_a_class_pi_sign_plus_one(p, to_nu, classes):
    eq = to_nu(p)
    for cls in classes:
        pi = cls.pi(p)
        b = branch_from_pi(eq, pi)
        assert b.sign == 1, cls.label
        assert b.pi == pi and b.s == pi - eq.half_gap()
        rad = radicand(eq, b.g)
        assert (rad - b.s * b.s).max_abs() <= 1e-9 * max(1.0, rad.max_abs())


def _degree_two_solves():
    """(p, equation, class, eigenstates function, accessory values) of
    every class at degree 2 and the README parameters."""
    for cls in HEUN_CLASSES:
        p = heun_params_for_class(cls.label, 2, 1.9, 0.6, 0.8, 0.7)
        yield (p, heun_to_nu(p), cls, heun_eigenstates,
               heun_accessory(p, cls.label, 2))
    for cls in CHE_CLASSES:
        p = che_params_for_class(cls.label, 2, 1.5, 1 / 3, 0.4)
        yield (p, che_to_nu(p), cls, che_eigenstates,
               che_accessory(p, cls.label, 2))


def test_class_solves_take_no_square_root(monkeypatch):
    # a prescribed pi names its square root s = pi - (sigma' - tau~)/2
    solves = list(_degree_two_solves())

    def no_sqrt(self):
        raise AssertionError("sqrt_head called")

    monkeypatch.setattr(Poly, "sqrt_head", no_sqrt)
    for p, eq, cls, eigenstates, values in solves:
        branch_from_pi(eq, cls.pi(p))
        assert len(eigenstates(p, cls.label, 2, values)) == 3
