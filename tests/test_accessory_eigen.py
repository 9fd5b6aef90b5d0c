"""Accessory values as eigenvalues of the degree-n coefficient map.

oracle.coefficient_map is the matrix of w -> p2 w'' + p1 w' + p0 w on
polynomials of degree <= n. termination_solve takes the accessory values
from the eigenvalues of its square block, and the engine assembles each
eigenpolynomial as a null vector of the same map. These tests hold the
eigenvalues to the exact series-truncation condition c_{n+1}(t), the
assembly to the column-by-column assembly it replaced, and the float
backend to the degree range it must resolve.
"""

import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from heunforge import (
    CHE_CLASSES,
    EXACT,
    FLOAT,
    HEUN_CLASSES,
    NoBranchError,
    Poly,
    RationalComplex,
    branch_from_pi,
    che_accessory,
    che_class,
    che_eigenstates,
    che_params_for_class,
    coefficient_map,
    doublewell_verify,
    electrons_sphere_state,
    heun_accessory,
    heun_class,
    heun_eigenstates,
    heun_nu_from_product,
    heun_params_for_class,
    polynomial_solution,
    reduce_branch,
    termination_polynomial,
    termination_solve,
)
from heunforge.engine import BranchSetup, _nullspace
from heunforge.floatkernel import with_h
from heunforge.oracle import OdeForm
from heunforge.poly import TRIM_REL

HEUN_VALUES = (F(19, 10), F(3, 5), F(4, 5), F(7, 10))  # a, gamma, delta, epsilon
CHE_VALUES = (F(3, 2), F(1, 3), F(2, 5))  # alpha, beta, gamma

CLASSES = [("heun", c.label) for c in HEUN_CLASSES] + [
    ("che", c.label) for c in CHE_CLASSES
]


def rc(value):
    return RationalComplex(F(value))


def _class_setup(family, label, n, exact):
    """(eq_at, pi): the class equation at the degree-n class coupling as
    a function of the accessory value, and the class pi. The four-point
    equation is built from alpha*beta, so exact parameters need no
    Gaussian-rational alpha and beta."""
    wrap = RationalComplex if exact else float
    if family == "heun":
        a, g, d, e = (wrap(v) for v in HEUN_VALUES)
        cls = heun_class(label)
        product = cls.product_value(n, g, d, e)
        backend = EXACT if exact else FLOAT
        pi = cls.pi(SimpleNamespace(backend=backend, a=a, gamma=g, delta=d,
                                    epsilon=e))
        return (lambda t: heun_nu_from_product(a, t, product, g, d, e)), pi
    p = che_params_for_class(label, n, *(wrap(v) for v in CHE_VALUES))
    return (lambda t: p.at(t).to_nu()), che_class(label).pi(p)


def _distinct(values, tol=1e-8):
    return all(abs(x - y) > tol * max(1.0, abs(x), abs(y))
               for i, x in enumerate(values) for y in values[i + 1:])


# -- the assembly against the column-by-column assembly it replaced ----------


def _column_images(sigma, tau, n):
    """(z^j, sigma (z^j)'' + tau (z^j)') for j = 0..n, as Poly columns."""
    out = []
    for j in range(n + 1):
        mono = Poly([0] * j + [1], tau.backend)
        out.append(
            (mono, sigma * mono.derivative().derivative() + tau * mono.derivative())
        )
    return out


def _column_rows(images, h, n):
    columns = []
    for mono, image in images:
        column = image + h * mono
        columns.append([column.coeff(k) for k in range(n + 2)])
    return [[columns[j][k] for j in range(n + 1)] for k in range(n + 2)]


def _column_solve(images, rf, n):
    """The degree-n null vector as assembled from Poly columns, with the
    same gates and messages as the engine."""
    rows = _column_rows(images, rf.h, n)
    if rf.h.backend == EXACT:
        kernel = _nullspace(rows, EXACT)
        if len(kernel) != 1:
            raise NoBranchError(
                "null space dimension is %d, not 1 (wrong accessory value "
                "or degenerate parameters)" % len(kernel)
            )
        vec = kernel[0]
        if not vec[n]:
            raise NoBranchError(
                "polynomial solution has degree below %d (wrong accessory "
                "value)" % n
            )
        return Poly([v / vec[n] for v in vec], EXACT)
    mat = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    _, svals, vh = np.linalg.svd(mat)
    scale = svals[0] if n else max(1.0, rf.tau.max_abs())
    if scale == 0.0:
        raise NoBranchError("coefficient map vanishes; parameters degenerate")
    small = [s for s in svals if s <= 1e-7 * scale]
    if len(small) != 1:
        raise NoBranchError(
            "null space dimension is %d, not 1 (wrong accessory value or "
            "degenerate parameters)" % len(small)
        )
    vec = np.conj(vh[-1])
    if vec[n] == 0:
        raise NoBranchError(
            "polynomial solution has degree below %d (wrong accessory value)" % n
        )
    poly = Poly([complex(v) for v in vec / vec[n]], FLOAT)
    if poly.degree != n:
        raise NoBranchError(
            "polynomial solution has degree below %d (its top coefficient "
            "is below TRIM_REL of its largest)" % n
        )
    return poly


def _outcome(fn):
    try:
        poly = fn()
    except NoBranchError as exc:
        return "error", str(exc)
    return "ok", poly.coeffs


def _check_same_assembly(eq, pi, n, value):
    rf = reduce_branch(eq, branch_from_pi(eq, pi))
    images = _column_images(eq.sigma, rf.tau, n)
    fixed = coefficient_map(OdeForm(eq.sigma, rf.tau, Poly.zero(eq.backend)), n)
    assert with_h(fixed, rf.h).tolist() == _column_rows(images, rf.h, n)
    want = _outcome(lambda: _column_solve(images, rf, n))
    got = _outcome(lambda: polynomial_solution(eq, branch_from_pi(eq, pi), n))
    shared = _outcome(
        lambda: BranchSetup(eq, pi).states(n, [(value, eq.sigma_tilde)])[0].poly)
    assert got == want and shared == want, (n, value)
    return want[0] == "ok"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("family,label", CLASSES)
def test_assembly_equals_column_assembly(family, label, exact):
    # float: every value the series-truncation solver proposed (the
    # companion roots of c_{n+1}), so also the ones it then rejected.
    # exact: the exact degree-0 value, and for n >= 1 a rationalized root,
    # where no solution exists and both assemblies must say so alike
    solved = 0
    for n in range(10):
        eq_at, pi = _class_setup(family, label, n, exact)
        zero = rc(0) if exact else 0.0
        cpoly = termination_polynomial(BranchSetup(eq_at(zero), pi).family, n)
        if not exact:
            values = cpoly.roots()
        elif n == 0:
            values = [-cpoly.coeff(0) / cpoly.coeff(1)]
        else:
            root = cpoly.roots()[0]
            values = [RationalComplex(F(root.real).limit_denominator(10**6),
                                      F(root.imag).limit_denominator(10**6))]
        for v in values:
            solved += _check_same_assembly(eq_at(v), pi, n, v)
    assert solved >= (1 if exact else 20)


def test_exact_assembly_equals_column_assembly_at_rational_roots():
    # rational accessory roots of exact degree-1 conditions
    p = heun_params_for_class("V", 1, rc(3), rc(F(13, 2)), rc(F(-2, 3)),
                              rc(F(-8, 3)))
    for q in (rc(F(-112, 3)), rc(-39)):
        assert _check_same_assembly(p.at(q).to_nu(), heun_class("V").pi(p), 1, q)
    p = che_params_for_class("6", 1, rc(F(17, 6)), rc(F(17, 4)), rc(F(7, 3)))
    for mu in (rc(F(595, 24)), rc(F(131, 8))):
        assert _check_same_assembly(p.at(mu).to_nu(), che_class("6").pi(p), 1, mu)


# -- the float gate -------------------------------------------------------------


def _gate_cases():
    for cls in HEUN_CLASSES:
        for n in range(2, 11):
            yield "heun", cls.label, n
    for cls in CHE_CLASSES:
        for n in range(2, 12):
            yield "che", cls.label, n


@pytest.mark.parametrize("family,label,n", list(_gate_cases()))
def test_float_gate(family, label, n):
    # n+1 distinct accessory values, each with an eigenstate whose contour
    # residual is within the CLI's 1e-8
    if family == "heun":
        p = heun_params_for_class(label, n, *(float(v) for v in HEUN_VALUES))
        values = heun_accessory(p, label, n)
        assemble = heun_eigenstates
    else:
        p = che_params_for_class(label, n, *(float(v) for v in CHE_VALUES))
        values = che_accessory(p, label, n)
        assemble = che_eigenstates
    assert len(values) == n + 1
    assert _distinct(values)
    states = assemble(p, label, n, values)
    assert max(s.residual for s in states) <= 1e-8


def test_confluent_eigenpolynomials_with_wide_coefficients_verify():
    # the unit null vector at mu = 5.26 has its top monomial coefficient
    # at 8.7e-8 of its largest; the state is right all the same
    p = che_params_for_class("6", 9, 1.5, 1 / 3, 0.4)
    states = che_eigenstates(p, "6", 9, che_accessory(p, "6", 9))
    assert len(states) == 10
    assert max(s.residual for s in states) <= 1e-8


def test_degree_resonance_still_rejects_lower_degree_solutions():
    # at these parameters two of the four degree-3 accessory values carry
    # a degree-1 solution: the degree check must still reject them
    p = heun_params_for_class("I", 3, 1.9, -1.2, -0.9, -0.9)
    values = heun_accessory(p, "I", 3)
    assert len(values) == 4
    rejected = []
    for q in values:
        try:
            state = heun_eigenstates(p, "I", 3, [q])[0]
        except NoBranchError as exc:
            assert "degree below 3" in str(exc)
            rejected.append(q.real)
        else:
            assert state.residual <= 1e-8
    assert len(rejected) == 2
    assert abs(rejected[0] - 1.4855) < 1e-4 and abs(rejected[1] - 4.6045) < 1e-4


def test_electrons_radius_grows_with_degree():
    radii = [electrons_sphere_state(n, 1, 2).radius for n in range(1, 11)]
    assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:])), radii


@pytest.mark.parametrize("parity", ["symmetric", "antisymmetric"])
def test_double_well_resolves_every_mu(parity):
    for N in range(11):
        report = doublewell_verify(N, 1, 400, parity)
        assert len(report.resolved_mu) == N + 1, N
        assert report.termination_residual <= 1e-8, N


# -- exact certificates -----------------------------------------------------------


def _det(rows):
    """Determinant of a square exact matrix by Gauss elimination."""
    mat = [list(r) for r in rows]
    size = len(mat)
    det = rc(1)
    for c in range(size):
        pivot = next((i for i in range(c, size) if mat[i][c]), None)
        if pivot is None:
            return rc(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det = det * mat[c][c]
        inv = rc(1) / mat[c][c]
        for i in range(c + 1, size):
            if mat[i][c]:
                factor = mat[i][c] * inv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[c])]
    return det


@pytest.mark.parametrize("family,label", CLASSES)
def test_eigen_determinant_is_truncation_condition(family, label):
    # det(M_n - t I) and c_{n+1}(t) have the same roots: their ratio is
    # one constant at n+2 distinct rational t, which pins a degree n+1
    # polynomial down
    for n in range(1, 7):
        eq_at, pi = _class_setup(family, label, n, exact=True)
        fam = BranchSetup(eq_at(rc(0)), pi).family
        square = coefficient_map(fam.base, n)[: n + 1]
        cpoly = termination_polynomial(fam, n)
        ratios = []
        for k in range(n + 2):
            t = rc(F(3 * k - 4, 7))
            shifted = square.copy()
            for j in range(n + 1):
                shifted[j, j] = shifted[j, j] - t
            ratios.append(_det(shifted) / cpoly(t))
        assert all(r == ratios[0] for r in ratios), (n, ratios)
        assert ratios[0]


@pytest.mark.parametrize("family,label", CLASSES)
def test_eigenvalues_certified_by_exact_newton_step(family, label):
    # each float value, taken as an exact rational, is within a Newton
    # step |c/c'| of a root of the exact truncation condition
    for n in (10, 11, 12):
        eq_at, pi = _class_setup(family, label, n, exact=True)
        fam = BranchSetup(eq_at(rc(0)), pi).family
        values = termination_solve(fam, n)
        assert len(values) == n + 1
        assert _distinct(values)
        cpoly = termination_polynomial(fam, n)
        dpoly = cpoly.derivative()
        for t in values:
            exact_t = RationalComplex(F(t.real), F(t.imag))
            step = abs(complex(cpoly(exact_t) / dpoly(exact_t)))
            assert step <= 1e-8 * max(1.0, abs(t)), (n, t, step)


def _fancy_index_with_h(fixed, h):
    """with_h as fancy indexing wrote it: the reference for the strided
    views."""
    out = fixed.copy()
    cols = np.arange(out.shape[1])
    out[cols, cols] += h.coeff(0)
    out[cols + 1, cols] += h.coeff(1)
    if out.dtype == complex:
        top = out[cols + 1, cols]
        small = np.abs(top) <= TRIM_REL * np.abs(out).max(axis=0)
        out[cols + 1, cols] = np.where(small, 0j, top)
    return out


def _signed_zero(rng):
    return complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))


@pytest.mark.parametrize("exact", [False, True])
def test_with_h_is_the_fancy_index_version_to_the_bit(exact):
    rng = random.Random(2606 + exact)
    trimmed = kept = 0
    for n in range(13):
        for trial in range(8):
            if exact:
                def entry():
                    return rc(F(rng.randint(-99, 99), rng.randint(1, 12)))
                fixed = np.array([[entry() for _ in range(n + 1)]
                                  for _ in range(n + 2)], dtype=object)
                h = (entry(), entry())
            else:
                fixed = np.array([[complex(rng.uniform(-5, 5), rng.choice(
                    (0.0, -0.0, rng.uniform(-5, 5)))) for _ in range(n + 1)]
                    for _ in range(n + 2)])
                h = [_signed_zero(rng) if rng.random() < 0.4
                     else complex(rng.uniform(-5, 5), rng.choice((0.0, -0.0)))
                     for _ in range(2)]
                if trial >= 4:
                    # each column's top entry at, or just above, TRIM_REL of
                    # the column's largest, with h[1] a signed zero
                    h[1] = _signed_zero(rng)
                    for j in range(n + 1):
                        fixed[j + 1, j] = 0j
                        col = fixed[:, j].copy()
                        col[j] += h[0]
                        top = TRIM_REL * np.abs(col).max()
                        if trial % 2:
                            top = math.nextafter(top, math.inf)
                        fixed[j + 1, j] = complex(top, rng.choice((0.0, -0.0)))
            poly_h = SimpleNamespace(coeff=h.__getitem__)
            got = with_h(fixed, poly_h)
            want = _fancy_index_with_h(fixed, poly_h)
            assert got.dtype == want.dtype == fixed.dtype
            if exact:
                assert got.tolist() == want.tolist()
                assert all(type(v) is RationalComplex for v in got.flat)
                continue
            assert [(v.real.hex(), v.imag.hex()) for v in got.flat] == [
                (v.real.hex(), v.imag.hex()) for v in want.flat]
            if trial >= 4:
                tops = [got[j + 1, j] for j in range(n + 1)]
                assert all((t == 0) == (trial % 2 == 0) for t in tops)
                trimmed += trial % 2 == 0
                kept += trial % 2 == 1
    assert exact or (trimmed and kept)
