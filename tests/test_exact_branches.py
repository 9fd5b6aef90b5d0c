"""Exact branches of exact extended-mode equations.

enumerate_branches finds branches in floats; for an exact equation each
float branch's pi is rationalized and certified by branch_from_pi. These
tests hold that to a copy of the exactification it replaced, which
rationalized g on a longer denominator ladder and took the radicand's
square root again, on a seeded grid of equations with a planted branch.
A second seeded grid of family equations with degenerate exponents runs
through the CLI: each class branch must come out once, exact and
labelled.
"""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

from heunforge.che import CHE_CLASSES, CheParams, che_to_nu
from heunforge.cli import main

from heunforge.engine import (
    EXTENDED,
    NuEquation,
    PiBranch,
    _dedupe,
    _is_negligible,
    _sigma_points,
    _sqrt_mod_sigma_candidates,
    enumerate_branches,
    radicand,
    reduce_branch,
)
from heunforge.heun import HEUN_CLASSES, HeunParams, heun_to_nu
from heunforge.poly import Poly, format_poly
from heunforge.scalars import EXACT, RationalComplex


def _poly(coeffs):
    return Poly([RationalComplex(F(c)) for c in coeffs], EXACT)


# -- the g-ladder exactification enumerate_branches used to run ------------------


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


def _try_branches(eq, g, scale, s_hint=None):
    """Branches for a candidate g, or [] when the radicand is not a
    perfect square; s_hint is a square root the caller already has."""
    d = radicand(eq, g)
    half = eq.half_gap()
    if _is_negligible(d, scale, 1e-9):
        return [PiBranch(g, Poly.zero(eq.backend), half, 0)]
    if d.degree % 2 != 0:
        return []
    s = None
    if s_hint is not None and _is_negligible(
        d - s_hint * s_hint, max(scale, d.max_abs()), 1e-8
    ):
        s = s_hint
    if s is None:
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


def _same_pi(cand, b):
    if cand.backend == EXACT:
        gap = (cand.pi.to_float() - b.pi).max_abs()
        if gap <= 1e-6 * max(1.0, b.pi.max_abs()):
            return True
    return cand.sign == 0 and b.sign == 0


def _reference_branches(eq):
    """The branches of an exact equation as the g-ladder path gave them:
    the float enumeration, then for each float branch the first exact g
    on the ladder whose radicand's square root gives a pi within 1e-6 of
    the float pi."""
    half = eq.half_gap().to_float()
    scale = max(1.0, (half * half - eq.sigma_tilde.to_float()).max_abs())
    eq_f = eq.to_float()
    branches = []
    for g, s, _ in _sqrt_mod_sigma_candidates(eq):
        branches.extend(_try_branches(eq_f, g, scale, s_hint=s))
    out = []
    for b in _dedupe(_validated(eq_f, branches)):
        gs = product(_rationalizations(complex(b.g.coeff(0))),
                     _rationalizations(complex(b.g.coeff(1))))
        exact = (c for g in gs for c in _try_branches(eq, Poly(g, EXACT), scale)
                 if _same_pi(c, b))
        out.append(next(exact, b))
    return out


# -- the seeded grid ---------------------------------------------------------------


def _frac(rng):
    return F(rng.randint(-24, 24), rng.randint(1, 12))


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _is_rational_square(value):
    if value < 0:
        return False
    num, den = value.numerator, value.denominator
    return round(num ** 0.5) ** 2 == num and round(den ** 0.5) ** 2 == den


def _sigma(shape, rng):
    lead = _frac(rng) or F(1)
    if shape == "irreducible":  # a quadratic with no rational root, times z - d
        while True:
            b, c = _frac(rng), _frac(rng)
            if not _is_rational_square(b * b - 4 * c):
                break
        cubic = _times([c, b, 1], [-_frac(rng), 1])
    elif shape == "cubic":
        cubic = [_frac(rng), _frac(rng), _frac(rng), 1]
    elif shape == "double":  # (z - r)^2 (z - d)
        r = _frac(rng)
        d = r + (_frac(rng) or F(1))
        cubic = _times(_times([-r, 1], [-r, 1]), [-d, 1])
    else:  # three distinct rational roots
        roots = set()
        while len(roots) < 3:
            roots.add(_frac(rng))
        cubic = [F(1)]
        for r in sorted(roots):
            cubic = _times(cubic, [-r, 1])
    return [lead * c for c in cubic]


SHAPES = ("irreducible", "cubic", "double", "rational")


def _grid(count, seed):
    """count exact extended equations (tau~, sigma, sigma~) with the
    planted branch pi0 and its g0: sigma~ = g0 sigma - pi0^2 -
    pi0 (tau~ - sigma')."""
    rng = random.Random(seed)
    for i in range(count):
        sigma = _sigma(SHAPES[i % len(SHAPES)], rng)
        tau = [_frac(rng) for _ in range(3)]
        pi = [_frac(rng) for _ in range(3)]
        g = [_frac(rng) for _ in range(2)]
        dsigma = [c * j for j, c in enumerate(sigma)][1:]
        gap = [t - d for t, d in zip(tau, dsigma)]
        terms = (_times(g, sigma), _times(pi, pi), _times(pi, gap))
        sigma_tilde = [a - b - c for a, b, c in zip(*terms)]
        yield NuEquation(_poly(tau), _poly(sigma), _poly(sigma_tilde),
                         EXTENDED), _poly(pi)


def test_exact_branches_match_the_g_ladder_and_add_more():
    gained = 0
    for i, (eq, pi0) in enumerate(_grid(64, seed=2015)):
        got = enumerate_branches(eq)
        want = _reference_branches(eq)
        assert len(got) == len(want), i
        for b, ref in zip(got, want):
            if ref.backend == EXACT:
                assert b.backend == EXACT, i
                assert (b.g, b.pi, b.sign) == (ref.g, ref.pi, ref.sign), i
            elif b.backend == EXACT:
                gained += 1
                reduce_branch(eq, b)
            else:
                assert (b.g, b.pi, b.sign) == (ref.g, ref.pi, ref.sign), i
        assert any(b.backend == EXACT and b.pi == pi0 for b in got), i
    assert gained > 0


def test_exact_branch_where_the_g_ladder_found_none():
    # sigma = (z - 1)^2 (z + 1/6). No rung of the g ladder fits this g0, and
    # 10**8 fits its float noise better than the true value does, so the
    # second branch pair stayed float; its pi rationalizes on the ladder.
    eq = NuEquation(
        _poly([F(-11, 10), F(-1, 2), F(20, 11)]),
        _poly([F(1, 6), F(2, 3), F(-11, 6), 1]),
        _poly([F(-1243, 720), F(-449, 495), F(143601, 48400),
               F(-57323, 14520), F(1289, 1100)]),
        EXTENDED,
    )
    branches = enumerate_branches(eq)
    assert len(branches) == 4
    assert all(b.backend == EXACT for b in branches)
    g = _poly([F(-578251181, 58104200), F(11594439, 2905210)])
    assert [b.g == g for b in branches] == [False, False, True, True]
    for b in branches:
        reduce_branch(eq, b)
        assert b.s * b.s == radicand(eq, b.g)
        assert b.pi == eq.half_gap() + b.s * RationalComplex(b.sign)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_close_roots_keep_a_planted_branch(backend):
    # sigma = (z - 3)(z - 3 - 1/50000)(z + 9/4) makes the Hermite solve
    # ill-conditioned: the planted branch's float s leaves s^2 - B a
    # remainder above 1e-10 of |B|. The candidate test (1e-7) keeps it,
    # and it passes reduce_branch; the exact run certifies it exactly.
    sigma = _times(_times([-3, 1], [F(-150001, 50000), 1]), [F(9, 4), 1])
    tau, pi, g = [0, F(-9, 2), 1], [1, 0, F(-5, 2)], [1, -6]
    dsigma = [c * j for j, c in enumerate(sigma)][1:]
    gap = [a - b for a, b in zip(tau, dsigma)]
    terms = (_times(g, sigma), _times(pi, pi), _times(pi, gap))
    eq = NuEquation(_poly(tau), _poly(sigma),
                    _poly([a - b - c for a, b, c in zip(*terms)]), EXTENDED)
    if backend == "float":
        eq = eq.to_float()
    pi0 = _poly(pi).to_float()
    found = []
    for b in enumerate_branches(eq):
        if (b.pi.to_float() - pi0).max_abs() <= 1e-6 * pi0.max_abs():
            reduce_branch(eq, b)
            found.append(b)
    assert len(found) == 1
    assert backend == "float" or found[0].pi == _poly(pi)


def test_close_roots_of_an_exact_sigma_keep_distinct_centres():
    # sigma = z (z - 1)(z - 1 - 1e-14): both float roots near 1 rationalize
    # to 1, where sigma is exactly zero. Only the first may take it, as a
    # repeated centre makes the Hermite interpolation singular.
    e = F(1, 10**14)
    sigma = _poly([0, 1 + e, -2 - e, 1])
    centres = [c for c, _ in _sigma_points(sigma, 3)]
    assert sum(c == RationalComplex(1) for c in centres) == 1
    assert sum(c == RationalComplex(0) for c in centres) == 1
    eq = NuEquation(_poly([1, F(-35, 12), F(19, 12)]), sigma,
                    _poly([0, F(-2, 5), F(-1, 15), F(4, 5), F(-1, 3)]), EXTENDED)
    enumerate_branches(eq)


# -- family equations with degenerate exponents -----------------------------------


def _degenerate_family(i, rng):
    """(family, equation, [(label, pi)] over its classes) of a family
    equation in which a nonempty subset of the exponent parameters is
    degenerate: gamma, delta or epsilon = 1 for Heun, alpha, beta or
    gamma = 0 for the confluent equation. A degenerate parameter zeroes
    its class's pi part, so the classes that differ only there share one
    pi, and B vanishes at that point of sigma (at infinity for alpha)."""
    rc = RationalComplex
    mask = rng.randrange(1, 8)
    if i % 2 == 0:
        a = _frac(rng)
        while a in (0, 1):
            a = _frac(rng)
        exps = [F(1) if mask >> k & 1 else _frac(rng) for k in range(3)]
        alpha = _frac(rng)
        beta = sum(exps) - 1 - alpha
        p = HeunParams(rc(a), rc(_frac(rng)), rc(alpha), rc(beta),
                       *(rc(e) for e in exps))
        return "heun", heun_to_nu(p), [(c.label, c.pi(p)) for c in HEUN_CLASSES]
    exps = [F(0) if mask >> k & 1 else _frac(rng) for k in range(3)]
    p = CheParams(*(rc(e) for e in exps), rc(_frac(rng)), rc(_frac(rng)))
    return "che", che_to_nu(p), [(c.label, c.pi(p)) for c in CHE_CLASSES]


# in float, B's rounding noise at a float root of sigma where B vanishes
# must read as zero, or a shared pi splits into a pair of noise branches
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_degenerate_exponents_give_one_exact_labelled_branch_per_pi(capsys, backend):
    rng = random.Random(1504)
    for i in range(40):
        family, eq, catalog = _degenerate_family(i, rng)
        argv = ["classify", "--sigma", format_poly(eq.sigma),
                "--tau", format_poly(eq.tau_tilde),
                "--sigma-tilde", format_poly(eq.sigma_tilde),
                "--backend", backend, "--format", "json"]
        assert main(argv) == 0, i
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == family, i
        # the first label of each distinct class pi, as the CLI labels
        want = {}
        for label, pi in catalog:
            want.setdefault(pi, label)
        branches = doc["branches"]
        assert sorted(b["class"] for b in branches) == sorted(want.values()), i
        for b in branches:
            assert backend == "float" or all(
                isinstance(c, dict) and set(c["re"]) == {"num", "den"}
                for c in b["pi"]["coeffs"]), i
