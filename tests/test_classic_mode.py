"""Classic-mode branch enumeration.

Classic mode (deg sigma <= 2, g a constant k) runs the same square-root
modulo sigma construction as extended mode, at degree budget 2. These
tests hold it to a copy of the discriminant root-finder it replaced,
which solved the perfect-square condition of the radicand as a quadratic
in k, on a seeded grid of classic equations.
"""

import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from heunforge.branches import _dedupe
from heunforge.engine import (
    CLASSIC,
    NoBranchError,
    NuEquation,
    PiBranch,
    enumerate_branches,
    radicand,
    reduce_branch,
)
from heunforge.poly import Poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex


def _is_negligible(p, scale, tol):
    return p.negligible(tol * max(scale, 1.0))


def rc(value):
    return RationalComplex(F(value))


def _poly(coeffs, backend=EXACT):
    p = Poly([rc(c) for c in coeffs], EXACT)
    return p if backend == EXACT else p.to_float()


# -- the discriminant root-finder classic mode used to run -------------------------


def _validated(eq, branches):
    """Keep branches whose sigma_bar divides by sigma: the second pass
    enumerate_branches ran over its float branches before each candidate
    carried its own certificate."""
    good = []
    for b in branches:
        try:
            reduce_branch(eq, b)
        except ValueError:
            continue
        good.append(b)
    return good


def _try_branches(eq, g, scale):
    """Branches for a candidate g, or [] when the radicand is not a
    perfect square: the radicand's sqrt_head, the funnel the
    discriminant root-finder fed."""
    d = radicand(eq, g)
    half = eq.half_gap()
    if _is_negligible(d, scale, 1e-9):
        return [PiBranch(g, Poly.zero(eq.backend), half, 0)]
    if d.degree % 2 != 0:
        return []
    try:
        s, rem = d.sqrt_head()
    except ValueError:
        return []
    if not _is_negligible(rem, max(scale, d.max_abs()), 1e-8):
        return []
    out = []
    for sign in (1, -1):
        pi = half + s if sign == 1 else half - s
        if pi.degree > 2:
            continue
        out.append(PiBranch(g, s, pi, sign))
    return out


def _rationalizations(value, tol=1e-9):
    """Gaussian rationals near value from the denominator ladder, small
    denominators first, or the closest one with denominator at most
    10**12 when no rung lands within tol."""
    parts = []
    for part in (value.real, value.imag):
        fracs = []
        for den in (1, 6, 60, 2520, 10**4, 10**6, 10**9, 10**12):
            cand = F(part).limit_denominator(den)
            if abs(cand - part) <= tol * max(1.0, abs(part)) and cand not in fracs:
                fracs.append(cand)
        parts.append(fracs or [F(part).limit_denominator(10**12)])
    return [RationalComplex(re, im) for re, im in product(*parts)]


def _reference_branches(eq):
    """Classic branches by the discriminant of the radicand in k: the
    radicand B + k sigma (degree <= 2) is a perfect square where its
    discriminant, a quadratic in k, vanishes, and is identically zero at
    the least-squares k when that fits."""
    half = eq.half_gap().to_float()
    base = half * half - eq.sigma_tilde.to_float()
    sig = eq.sigma.to_float()
    bases = [complex(base.coeff(i)) for i in range(3)]
    b_vec = [complex(sig.coeff(i)) for i in range(3)]
    scale = max([1.0] + [abs(b) for b in bases])
    c2, c1, c0 = [(bases[i], b_vec[i]) for i in (2, 1, 0)]
    conv = [0j, 0j, 0j]
    for i in range(2):
        for j in range(2):
            conv[i + j] += c1[i] * c1[j] - 4 * c2[i] * c0[j]
    disc = Poly(conv, FLOAT)
    if disc.is_zero:
        raise NoBranchError("perfect-square set is not finite")
    k_values = [] if disc.degree == 0 else disc.roots()
    mat = np.array([[b_vec[i]] for i in range(3)], dtype=complex)
    rhs = np.array([-b for b in bases], dtype=complex)
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.max(np.abs(mat @ sol - rhs)) <= 1e-9 * scale:
        k_values.append(complex(sol[0]))
    eq_f = eq.to_float()
    branches = []
    for k in k_values:
        branches.extend(_try_branches(eq_f, Poly([k], FLOAT), scale))
    branches = _dedupe(_validated(eq_f, branches))
    if eq.backend != EXACT:
        return branches
    out = []
    for b in branches:
        out.append(b)
        for k in _rationalizations(complex(b.g.coeff(0))):
            cands = [c for c in _try_branches(eq, Poly([k], EXACT), scale)
                     if _same_s(c, b)]
            if cands:
                out[-1] = cands[0]
                break
    return out


def _same_s(cand, b):
    if cand.backend != EXACT or cand.sign != b.sign:
        return False
    gap = (cand.s.to_float() - b.s).max_abs()
    return gap <= 1e-6 * max(1.0, b.s.max_abs())


def _disc_has_double_root(eq):
    """Whether the reference's discriminant in k, taken exactly, is a
    quadratic with a double root; its float roots then split by about
    the square root of the rounding error."""
    half = eq.half_gap()
    base = half * half - eq.sigma_tilde
    c2, c1, c0 = [(base.coeff(i), eq.sigma.coeff(i)) for i in (2, 1, 0)]
    conv = [rc(0)] * 3
    for i in range(2):
        for j in range(2):
            conv[i + j] = conv[i + j] + c1[i] * c1[j] - rc(4) * c2[i] * c0[j]
    return bool(conv[2]) and not (conv[1] * conv[1] - rc(4) * conv[2] * conv[0])


# -- the seeded grid ------------------------------------------------------------------


def _frac(rng, top=9, den=4):
    return F(rng.randint(-top, top), rng.randint(1, den))


def _is_rational_square(value):
    if value < 0:
        return False
    num, den = value.numerator, value.denominator
    return round(num ** 0.5) ** 2 == num and round(den ** 0.5) ** 2 == den


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sigma(shape, rng):
    lead = _frac(rng) or F(1)
    if shape == "constant":
        return [lead]
    if shape == "linear":
        return [-lead * _frac(rng), lead]
    if shape == "distinct":
        r1 = _frac(rng)
        r2 = r1 + (_frac(rng) or F(1, 2))
        return [lead * c for c in _times([-r1, 1], [-r2, 1])]
    if shape == "double":
        r = _frac(rng)
        return [lead * c for c in _times([-r, 1], [-r, 1])]
    while True:  # irrational, real or complex, roots
        b, c = _frac(rng), _frac(rng)
        if b * b - 4 * c and not _is_rational_square(b * b - 4 * c):
            return [lead * c, lead * b, lead]


SHAPES = ("constant", "linear", "distinct", "double", "irrational")


def _grid(count, seed):
    """count classic equations as exact (tau~, sigma, sigma~, pi) coefficient
    lists; every other one has a planted exact branch pi with constant k,
    sigma~ = k sigma - pi^2 - pi (tau~ - sigma'), and the rest have pi None."""
    rng = random.Random(seed)
    for i in range(count):
        sigma = _sigma(SHAPES[i % len(SHAPES)], rng)
        tau = [_frac(rng), _frac(rng)]
        if i % 2:
            yield tau, sigma, [_frac(rng) for _ in range(3)], None
            continue
        pi = [_frac(rng), _frac(rng)]
        k = _frac(rng)
        dsigma = [c * j for j, c in enumerate(sigma)][1:] or [F(0)]
        gap = [(tau + [F(0)])[j] - (dsigma + [F(0)] * 2)[j] for j in range(2)]
        pi_sq, pi_gap = _times(pi, pi), _times(pi, gap)
        sigma_tilde = [k * (sigma + [F(0)] * 3)[j] - pi_sq[j] - pi_gap[j]
                       for j in range(3)]
        yield tau, sigma, sigma_tilde, pi


def _classic(tau, sigma, sigma_tilde, backend):
    return NuEquation(_poly(tau, backend), _poly(sigma, backend),
                      _poly(sigma_tilde, backend), CLASSIC)


def _outcome(fn):
    try:
        return fn()
    except NoBranchError as exc:
        return str(exc)


def _same_set(got, want):
    """Whether two branch lists hold the same (backend, g, pi) up to
    order: exact branches equal, float ones within 1e-7."""
    if isinstance(got, str) or isinstance(want, str):
        return isinstance(got, str) and isinstance(want, str)
    if len(got) != len(want):
        return False
    left = list(want)
    for b in got:
        for c in left:
            if b.backend != c.backend:
                continue
            if b.backend == EXACT:
                same = b.g == c.g and b.pi == c.pi
            else:
                tol = 1e-7 * max(1.0, c.g.max_abs(), c.pi.max_abs())
                same = ((b.g - c.g).max_abs() <= tol
                        and (b.pi - c.pi).max_abs() <= tol)
            if same:
                left.remove(c)
                break
        else:
            return False
    return True


GRID = list(_grid(420, seed=2015))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_classic_enumeration_matches_discriminant_reference(backend):
    compared = differ = unreduced = 0
    for tau, sigma, sigma_tilde, _ in GRID:
        eq = _classic(tau, sigma, sigma_tilde, backend)
        if _disc_has_double_root(_classic(tau, sigma, sigma_tilde, EXACT)):
            continue
        compared += 1
        got = _outcome(lambda: enumerate_branches(eq))
        want = _outcome(lambda: _reference_branches(eq))
        if not _same_set(got, want):
            differ += 1
        if not isinstance(got, str):
            unreduced += sum(isinstance(_outcome(lambda: reduce_branch(eq, b)), str)
                             for b in got)
    assert compared >= 400
    assert differ == 0
    # a candidate's remainder test is the one reduce_branch makes, and on
    # this grid no branch enumerate_branches returns fails the reduction
    assert unreduced == 0


def test_planted_branches_come_out_exact():
    # double discriminant roots are left to the tests below
    shapes = set()
    for i, (tau, sigma, sigma_tilde, pi) in enumerate(GRID):
        eq = _classic(tau, sigma, sigma_tilde, EXACT)
        if pi is None or _disc_has_double_root(eq):
            continue
        branches = enumerate_branches(eq)
        assert any(b.backend == EXACT and b.pi == _poly(pi) for b in branches), i
        shapes.add(SHAPES[i % len(SHAPES)])
    assert shapes == set(SHAPES)


DOUBLE_ROOT = ([F(-4, 3), F(-2, 3)], [0, F(-1, 3), 1],
               [F(1, 4), F(-1, 3), F(-5, 4)])


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_double_discriminant_root_gives_two_branches(backend):
    # the radicand's discriminant in k is a multiple of (k - 5)^2: the
    # reference's float roots split to 5 +- 1.4e-7 i and gave 4 branches
    eq = _classic(*DOUBLE_ROOT, backend)
    assert _disc_has_double_root(_classic(*DOUBLE_ROOT, EXACT))
    branches = enumerate_branches(eq)
    assert len(branches) == 2
    for b in branches:
        assert abs(complex(b.g.coeff(0)) - 5) <= 1e-12
        assert b.g.degree == 0
        reduce_branch(eq, b)
        if backend == EXACT:
            assert b.backend == EXACT
            assert b.g.coeffs == (rc(5),)
            assert all(isinstance(c, RationalComplex) for c in b.pi.coeffs)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("sigma", [[-1, 0, 1], [F(1, 2), -2], [0, 3, F(-3, 2)]])
def test_classic_zero_radicand_gives_sign_zero_branch(sigma, backend):
    # sigma~ = ((sigma' - tau~)/2)^2 + k sigma makes the radicand
    # (g - k) sigma, identically zero at g = k and a square nowhere else
    k = F(7, 3)
    exact_sigma = _poly(sigma)
    tau = _poly([F(1, 5), F(-2, 3)])
    half = (exact_sigma.derivative() - tau) * rc(F(1, 2))
    sigma_tilde = half * half + exact_sigma * rc(k)
    eq = NuEquation(tau, exact_sigma, sigma_tilde, CLASSIC)
    if backend == FLOAT:
        eq = eq.to_float()
    branches = enumerate_branches(eq)
    assert [b.sign for b in branches] == [0]
    assert abs(complex(branches[0].g.coeff(0)) - float(k)) <= 1e-12
    assert branches[0].g.degree == 0
    if backend == EXACT:
        assert branches[0].g.coeffs == (rc(k),)


def test_double_discriminant_root_at_an_inexact_float_root():
    # sigma = -3/2 (z + 1)(z + 3) and B vanishes at z = -1. Poly.roots
    # misses -1 by rounding, which would leave sqrt(B) there about 1e-8
    # instead of 0 and split the planted k = -7/3 into two g about 1e-7
    # apart; the exact root -1 gives B exactly 0 and 2 exact branches
    eq = _classic([0, 1], [F(-9, 2), -6, F(-3, 2)],
                  [F(31, 2), 18, F(7, 2)], EXACT)
    assert _disc_has_double_root(eq)
    branches = enumerate_branches(eq)
    assert len(branches) == 2
    assert all(b.backend == EXACT and b.g.coeffs == (rc(F(-7, 3)),)
               for b in branches)
