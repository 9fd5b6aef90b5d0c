"""Exact branches of exact extended-mode equations.

enumerate_branches runs the branch construction exactly when every
centre of sigma is exact; otherwise it finds branches in floats and
refines each float candidate by the exactness rule: Newton on
s^2 - g sigma = B, the simplest Gaussian rational near the result, kept
only if the equation then holds exactly. These tests hold that to
test-local copies of what came before it: the exactification that
rationalized g on a longer denominator ladder and took the radicand's
square root again, and the pi ladder, which rationalized each float
branch's pi on six denominators and certified it with branch_from_pi,
on roots of sigma from Poly.roots rationalized on the same ladder. Every
branch either made exact must still come out exact and equal, on a
seeded grid of equations with a planted branch.
A second seeded grid of family equations with degenerate exponents runs
through the CLI: each class branch must come out once, exact and
labelled. A third seeded grid of square-free sigma checks the roots
_sigma_points takes, and the branches they give against the Poly.roots
path they replaced. A fourth grid plants branches with denominators up
to 10**12 on sigma with irrational roots, where the pi ladder found
none. Fixed sigma with tiny, huge, far-apart or clustered irrational
roots check the accuracy of the float roots, and the refusal of two
that agree to float precision.
"""

import cmath
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from itertools import product, zip_longest
from math import comb

import numpy as np
import pytest

from heunforge import branches
from heunforge.branches import _dedupe, _exact_roots, _sigma_points, _signed
from heunforge.che import CHE_CLASSES, CheParams, che_to_nu
from heunforge.cli import main
from heunforge.engine import (
    EXTENDED,
    NoBranchError,
    NuEquation,
    PiBranch,
    branch_from_pi,
    enumerate_branches,
    radicand,
    reduce_branch,
)
from heunforge.heun import HEUN_CLASSES, HeunParams, heun_to_nu
from heunforge.poly import Poly, format_poly, parse_poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex, negligible


def _is_negligible(p, scale, tol):
    return p.negligible(tol * max(scale, 1.0))


def _poly(coeffs):
    return Poly([RationalComplex(F(c)) for c in coeffs], EXACT)


def _close(got, want, tol=1e-12):
    """Whether float Polys agree within tol of want's largest
    coefficient, pairwise: the engine's Hermite solve eliminates in
    Python and the references here call np.linalg.solve, so float
    branches agree to rounding, not bit for bit."""
    scale = max(p.max_abs() for p in want)
    return all((p - q).max_abs() <= tol * scale for p, q in zip(got, want))


def _same_branch(b, ref):
    """Exact branches are equal; float ones carry the same sign and their
    g, pi and s are _close."""
    if ref.backend == EXACT:
        return (b.g, b.pi, b.s, b.sign) == (ref.g, ref.pi, ref.s, ref.sign)
    return b.backend == FLOAT and b.sign == ref.sign and _close(
        (b.g, b.pi, b.s), (ref.g, ref.pi, ref.s))


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


def _float_local_sqrt(taylor, mult, noise):
    """Float Hensel lift of sqrt(sum taylor[k] t^k) to `mult` terms: None
    at odd vanishing order below mult, NoBranchError at any other."""
    if mult > 1:
        bound = 1e-9 * max([1.0] + [abs(c) for c in taylor])
        zero = [negligible(c, bound) for c in taylor[:mult]]
        order = zero.index(False) if False in zero else mult
        if order % 2 and order < mult:
            return None
        if order:
            raise NoBranchError("perfect-square set is not finite")
    root = [cmath.sqrt(0 if negligible(taylor[0], noise) else complex(taylor[0]))]
    for k in range(1, mult):
        acc = complex(taylor[k]) - sum(root[i] * root[k - i] for i in range(1, k))
        root.append(acc / (2 * root[0]))
    return root


# -- the pi ladder and the roots of sigma the exactness rule replaced ------------


def _pi_ladder(value):
    """Gaussian rationals near value, small denominators first: each part
    gets every distinct fraction from the ladder 1, 6, 60, 2520, 10**4,
    10**6 that lands within 1e-9, or none."""
    parts = []
    for part in (value.real, value.imag):
        exact = F(part)
        fracs = []
        for den in (1, 6, 60, 2520, 10**4, 10**6):
            cand = exact.limit_denominator(den)
            if abs(cand - part) <= 1e-9 * max(1.0, abs(part)) and cand not in fracs:
                fracs.append(cand)
            if cand == exact:
                break
        parts.append(fracs)
    return [RationalComplex(re, im) for re, im in product(*parts)]


def _pi_ladder_branch(eq, b):
    """The exact branch whose pi is the first candidate of the product of
    b.pi's coefficients' ladders that branch_from_pi certifies, signed by
    _signed; else b."""
    for coeffs in product(*(_pi_ladder(complex(c)) for c in b.pi.coeffs)):
        try:
            return _signed(branch_from_pi(eq, Poly(coeffs, EXACT)))
        except NoBranchError:
            continue
    return b


def _eigvals_sigma_points(sigma, budget):
    """_sigma_points of a square-free exact sigma as it took the roots
    before _exact_roots: Poly.roots, each root the first of its ladder
    fractions at which sigma is exactly zero and that no earlier root
    took, else the float root."""
    roots = []
    for r in sigma.roots():
        r = next((c for c in _pi_ladder(r) if not sigma(c) and c not in roots), r)
        roots.append(r)
    infinity = [(None, budget - sigma.degree)] if sigma.degree < budget else []
    return infinity + [(r, 1) for r in roots]


def _ladder_points(sigma, budget):
    """sigma's points as the pi ladder path took them: _sigma_points where
    all centres are exact, else _eigvals_sigma_points."""
    points = _sigma_points(sigma, budget)
    return points if _all_exact(points) else _eigvals_sigma_points(sigma, budget)


def _float_candidates(eq):
    """Float (g, s, collapse) with s^2 = B + g sigma as enumerate_branches
    built them before an exact equation with exact centres ran the
    construction exactly: sqrt(B) lifted in floats at each point of sigma,
    joined by a float Hermite solve and kept at the 1e-7 remainder test;
    collapse marked B + g sigma within 1e-9 of max(1, |B|)."""
    budget = 3 if eq.mode == EXTENDED else 2
    half = eq.half_gap()
    bpoly = half * half - eq.sigma_tilde
    bpoly_f = bpoly.to_float()
    scale = bpoly_f.max_abs()
    points = _ladder_points(eq.sigma, budget)
    top = 2 * budget - 2
    roots = []
    for centre, mult in points:
        noise = 0.0
        if centre is None:
            taylor = [bpoly.coeff(top - k) for k in range(top + 1)]
        else:
            exact = isinstance(centre, RationalComplex)
            local = (bpoly if exact else bpoly_f).shift(centre)
            taylor = [local.coeff(k) for k in range(top + 1)]
            if mult == 1 and not exact:
                terms = sum(abs(c) * abs(centre) ** k for k, c in enumerate(bpoly_f.coeffs))
                noise = sys.float_info.epsilon * bpoly_f.degree * terms
        roots.append(_float_local_sqrt(taylor, mult, noise))
    if None in roots:
        return
    rows = []
    for c, m in points:
        for k in range(m):
            if c is None:
                rows.append([1.0 if j == budget - 1 - k else 0.0 for j in range(budget)])
            else:
                rows.append([comb(j, k) * complex(c) ** (j - k) if j >= k else 0.0
                             for j in range(budget)])
    sig_f = eq.sigma.to_float()
    for tail in product((1, -1), repeat=len(points) - 1):
        rhs = [e * v for e, root in zip((1,) + tail, roots) for v in root]
        s = Poly([complex(v) for v in np.linalg.solve(np.array(rows), rhs)], FLOAT)
        g, rem = (s * s - bpoly_f).divrem(sig_f)
        if g.degree <= budget - 2 and _is_negligible(
                rem, max(scale, (s * s).max_abs()), 1e-7):
            yield g, s, _is_negligible(bpoly_f + g * sig_f, scale, 1e-9)


def _ladder_branches(eq):
    """The branches enumerate_branches gave an exact equation before it
    ran the construction exactly: the float candidates' branches,
    deduplicated, each then rationalized on the pi ladder."""
    half = eq.to_float().half_gap()
    branches = []
    for g, s, collapse in _float_candidates(eq):
        if collapse:
            branches.append(PiBranch(g, Poly.zero(FLOAT), half, 0))
        else:
            branches += [PiBranch(g, s, half + s, 1), PiBranch(g, s, half - s, -1)]
    return [_pi_ladder_branch(eq, b) for b in _dedupe(branches)]


def _all_exact(points):
    return all(c is None or isinstance(c, RationalComplex) for c, _ in points)


def _exact_centres(eq):
    return _all_exact(_sigma_points(eq.sigma, 3 if eq.mode == EXTENDED else 2))


def _paired(eq, got, want):
    """got and want branches in pairs: by position where sigma's centres
    are all exact, else, one to one, each want branch with the got branch
    nearest it in pi among those that collapse as it does, as the roots
    of sigma come in the descending (re, im) order of _exact_roots, not
    in Poly.roots' order."""
    assert len(got) == len(want)
    if _exact_centres(eq):
        return list(zip(got, want))
    pairs, free = [], list(got)
    for ref in want:
        b = min(free, key=lambda b: (bool(b.sign) != bool(ref.sign),
                                     (b.pi.to_float() - ref.pi.to_float()).max_abs()))
        free.remove(b)
        pairs.append((b, ref))
    return pairs


def _same_or_near(eq, b, ref):
    """_same_branch, or for float branches where sigma has an irrational
    root, g, pi and s up to its sign within 1e-10 of the largest of
    them: the reference's float centres from Poly.roots carry its
    rounding (its branches moved by 1.3e-11 at most), and their order can
    flip which sign a pi has."""
    if ref.backend == EXACT or _exact_centres(eq):
        return _same_branch(b, ref)
    return b.backend == FLOAT and any(
        _close((b.g, b.pi, e * b.s), (ref.g, ref.pi, ref.s), 1e-10) for e in (1, -1))


def _check_against_ladder(eq, got, i):
    """Every branch the float construction with the pi ladder made exact
    comes out with the same g, pi, s and sign, in the same position where
    sigma's centres are all exact; there no branch stays float (every
    equation checked here has an exact branch, so B's heads are
    Gaussian-rational squares). A float branch of the ladder that stays
    float is _same_or_near it. Returns the number of ladder float
    branches made exact."""
    exact_centres = _exact_centres(eq)
    made_exact = 0
    for b, ref in _paired(eq, got, _ladder_branches(eq)):
        if ref.backend == EXACT or b.backend == FLOAT:
            assert _same_or_near(eq, b, ref), i
            assert b.backend == EXACT or not exact_centres, i
        else:
            made_exact += 1
            assert bool(b.sign) == bool(ref.sign), i
            gap = (b.pi.to_float() - ref.pi).max_abs()
            assert gap <= 1e-9 * max(1.0, ref.pi.max_abs()), i
    return made_exact


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
    for g, s, _ in _float_candidates(eq):
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
    gained = made_exact = 0
    for i, (eq, pi0) in enumerate(_grid(64, seed=2015)):
        got = enumerate_branches(eq)
        made_exact += _check_against_ladder(eq, got, i)
        for b, ref in _paired(eq, got, _reference_branches(eq)):
            if ref.backend == EXACT:
                assert b.backend == EXACT, i
                assert (b.g, b.pi, b.sign) == (ref.g, ref.pi, ref.sign), i
            elif b.backend == EXACT:
                gained += 1
                reduce_branch(eq, b)
            else:
                assert _same_or_near(eq, b, ref), i
        assert any(b.backend == EXACT and b.pi == pi0 for b in got), i
    assert gained > 0
    assert made_exact > 0


def _four_exact_branches(eq, g):
    """eq has four branches, all exact; the second pair has this g."""
    branches = enumerate_branches(eq)
    assert len(branches) == 4
    assert all(b.backend == EXACT for b in branches)
    assert [b.g == g for b in branches] == [False, False, True, True]
    for b in branches:
        reduce_branch(eq, b)
        assert b.s * b.s == radicand(eq, b.g)
        assert b.pi == eq.half_gap() + b.s * RationalComplex(b.sign)


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
    _four_exact_branches(eq, _poly([F(-578251181, 58104200), F(11594439, 2905210)]))


def test_exact_branch_beyond_the_pi_ladder():
    # sigma = (z + 6/5)^2 (z + 1/4): the second pair's pi have denominators
    # up to 6254325, beyond the pi ladder's top rung of 10**6, so it stayed
    # float until the construction ran exactly at sigma's rational roots
    eq = NuEquation(
        _poly([F(1, 2), F(-1, 7), 1]),
        _poly([F(9, 25), F(51, 25), F(53, 20), 1]),
        _poly([F(-877, 810), F(10447, 3500), F(2716639, 693000),
               F(69973, 23100), F(601, 605)]),
        EXTENDED,
    )
    _four_exact_branches(eq, _poly([F(13707458994059, 625865299290),
                                    F(3409038449249, 312932649645)]))


def test_exact_branches_where_b_is_beyond_float_range():
    # the README equation with sigma times 10**300: B reaches 10**600, so
    # its float scale overflows, and the exact certificate, a zero test,
    # must not take it
    eq = NuEquation(
        _poly([1, F(-35, 12), F(19, 12)]),
        _poly([0, 2 * 10**300, -3 * 10**300, 10**300]),
        _poly([0, F(-2, 5), F(-1, 15), F(4, 5), F(-1, 3)]),
        EXTENDED,
    )
    branches = enumerate_branches(eq)
    assert len(branches) == 8 and all(b.backend == EXACT for b in branches)
    for b in branches:
        assert b.s * b.s == radicand(eq, b.g)


def _float_coeffs(form):
    """The complex coefficients of a float Poly's JSON {"coeffs": [...]}."""
    return [complex(c["re"], c["im"]) if isinstance(c, dict) else complex(c)
            for c in form["coeffs"]]


def test_non_square_head_keeps_the_float_branches(capsys, monkeypatch):
    # sigma = z^2 (z - 1) has exact centres, but B(0) = 2 has no
    # Gaussian-rational root, so no exact branch exists: the float
    # branches come out as the float construction made them, to rounding,
    # classify prints them, and no candidate is refined

    sigma, tau = _poly([0, 0, -1, 1]), _poly([F(1, 2), F(-1, 3), 2])
    half = (sigma.derivative() - tau) * RationalComplex(F(1, 2))
    bpoly = _poly([2, F(1, 3), F(-3, 4), F(5, 2), 3])
    eq = NuEquation(tau, sigma, half * half - bpoly, EXTENDED)
    want = _ladder_branches(eq)
    assert len(want) == 4 and all(b.backend == FLOAT for b in want)
    calls = []
    original = branches._exact_candidate
    monkeypatch.setattr(branches, "_exact_candidate",
                        lambda *args: calls.append(args) or original(*args))
    got = enumerate_branches(eq)
    assert len(got) == len(want)
    assert all(_same_branch(b, ref) for b, ref in zip(got, want))
    argv = ["classify", "--sigma", format_poly(eq.sigma),
            "--tau", format_poly(eq.tau_tilde),
            "--sigma-tilde", format_poly(eq.sigma_tilde),
            "--backend", "exact", "--format", "json"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["branches"]
    assert [(b["sign"], _float_coeffs(b["g"]), _float_coeffs(b["pi"]))
            for b in printed] == \
        [(b.sign, list(map(complex, b.g.coeffs)), list(map(complex, b.pi.coeffs)))
         for b in got]
    assert calls == []


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
    # sigma = z (z - 1)(z - 1 - 1e-14): the centres must be distinct, as a
    # repeated centre makes the Hermite interpolation singular; all three
    # are exact
    e = F(1, 10**14)
    sigma = _poly([0, 1 + e, -2 - e, 1])
    centres = [c for c, _ in _sigma_points(sigma, 3)]
    assert centres == [RationalComplex(1 + e), RationalComplex(1), RationalComplex(0)]
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
        if backend == "exact":
            _check_against_ladder(eq, enumerate_branches(eq), i)
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


# -- exact roots of a square-free sigma ---------------------------------------------


def _gaussian(rng):
    return RationalComplex(_frac(rng), _frac(rng))


def _root_sigma(kind, rng):
    """(sigma coefficients, its roots, or None when one is irrational)
    of a square-free sigma of degree 1 to 3, times a random leading
    coefficient, real or Gaussian."""
    rc = RationalComplex
    degree = rng.randint(1, 3)
    if kind == "rational":
        roots = [rc(_frac(rng)) for _ in range(degree)]
    elif kind == "gaussian":
        roots = [_gaussian(rng) for _ in range(degree)]
    elif kind == "zero":
        roots = [rc(0)] + [_gaussian(rng) for _ in range(max(degree, 2) - 1)]
    elif kind == "close":  # z(z - r)(z - r - 1e-12) or (z - s)(z - r)(z - r - 1e-12)
        r = _gaussian(rng)
        first = rc(0) if rng.random() < 0.5 else r + rc(_frac(rng) or 1)
        roots = [first, r, r + rc(F(1, 10**12))]
    else:  # an irrational root: an irreducible quadratic, maybe times z - d, or z^3 - n
        roots = None
        if rng.random() < 0.25:
            n = rng.choice([2, 3, 5, 7, F(1, 2), F(-4, 9)])
            return [rc(-n), rc(0), rc(0), rc(1)], None
        while True:
            b, c = _frac(rng), _frac(rng)
            if not _is_rational_square(b * b - 4 * c):
                break
        coeffs = [rc(c), rc(b), rc(1)]
        if degree == 3:
            coeffs = _times(coeffs, [rc(-_frac(rng)), rc(1)])
    if roots is not None:
        if len(set(roots)) < len(roots):
            return _root_sigma(kind, rng)
        coeffs = [rc(1)]
        for r in roots:
            coeffs = _times(coeffs, [-r, rc(1)])
    lead = _gaussian(rng) if rng.random() < 0.3 else rc(_frac(rng))
    return [c * (lead or rc(1)) for c in coeffs], roots


ROOT_KINDS = ("rational", "gaussian", "zero", "close", "irrational")


def _root_grid(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        coeffs, roots = _root_sigma(ROOT_KINDS[i % len(ROOT_KINDS)], rng)
        yield Poly(coeffs, EXACT), roots


def _re_im(c):
    return (c.re, c.im) if isinstance(c, RationalComplex) else (c.real, c.imag)


def test_exact_roots_of_a_square_free_sigma():
    # every root comes back, in descending (re, im) order: a Gaussian-
    # rational one exact, an irrational one as a float within 1e-12 of the
    # eigvals root (Poly.roots) it stands for
    irrational = 0
    for i, (sigma, roots) in enumerate(_root_grid(200, seed=1511)):
        got = _exact_roots(sigma)
        assert len(got) == sigma.degree, i
        assert got == sorted(got, key=_re_im, reverse=True), i
        exact = [c for c in got if isinstance(c, RationalComplex)]
        assert all(not sigma(c) for c in exact), i
        if roots is not None:
            assert sorted(got, key=_re_im) == sorted(roots, key=_re_im), i
            continue
        irrational += 1
        floats = [c for c in got if not isinstance(c, RationalComplex)]
        assert floats, i
        eig = sigma.roots()
        for c in exact:
            eig.remove(min(eig, key=lambda r: abs(r - complex(c))))
        for c in floats:
            r = min(eig, key=lambda r: abs(r - c))
            assert abs(r - c) <= 1e-12 * max(1.0, abs(r)), i
            eig.remove(r)
    assert irrational == 40


def test_exact_roots_keep_the_branch_set(monkeypatch):
    # a planted branch on each sigma of the grid, so that B's heads are
    # Gaussian-rational squares and every branch is exact. Where every
    # float root rationalized, the branches on sigma's exact roots are the
    # ones on its rationalized float roots, in some order. A close root
    # that did not rationalize is exact now, and so is every branch; the
    # float path with the pi ladder takes up to half a minute there, so it
    # is not run. With an irrational root, every branch the pi ladder made
    # exact is exact and equal, and the refinement makes more exact.
    rng = random.Random(1512)
    compared = close = made_exact = 0
    for i, (sigma, roots) in enumerate(_root_grid(100, seed=1512)):
        tau = [RationalComplex(_frac(rng)) for _ in range(3)]
        pi = [RationalComplex(_frac(rng)) for _ in range(3)]
        g = [RationalComplex(_frac(rng)) for _ in range(2)]
        zero = RationalComplex(0)
        gap = [t - d for t, d in zip_longest(tau, sigma.derivative().coeffs,
                                              fillvalue=zero)]
        terms = (_times(g, sigma.coeffs), _times(pi, pi), _times(pi, gap))
        sigma_tilde = [a - b - c for a, b, c in zip_longest(*terms, fillvalue=zero)]
        eq = NuEquation(Poly(tau, EXACT), sigma, Poly(sigma_tilde, EXACT), EXTENDED)
        got = enumerate_branches(eq)
        assert any(b.pi == Poly(pi, EXACT) for b in got), i
        if roots is not None and not _all_exact(_eigvals_sigma_points(sigma, 3)):
            assert _exact_centres(eq), i
            assert all(b.backend == EXACT for b in got), i
            close += 1
            continue
        if roots is None:
            made_exact += _check_against_ladder(eq, got, i)
            continue
        with monkeypatch.context() as patch:
            patch.setattr(branches, "_sigma_points", _eigvals_sigma_points)
            want = enumerate_branches(eq)
        assert set(got) == set(want) and len(got) == len(want), i
        compared += 1
    assert compared >= 50 and close > 0 and made_exact > 0


# -- branches on irrational roots of sigma: the exactness rule -----------------------


def _planted_eq(sigma, tau, pi, g):
    """The exact extended equation on sigma and tau~ with the planted
    branch pi and its g: sigma~ = g sigma - pi^2 - pi (tau~ - sigma')."""
    zero = F(0)
    dsigma = [c * j for j, c in enumerate(sigma)][1:]
    gap = [t - d for t, d in zip_longest(tau, dsigma, fillvalue=zero)]
    terms = (_times(g, sigma), _times(pi, pi), _times(pi, gap))
    sigma_tilde = [a - b - c for a, b, c in zip_longest(*terms, fillvalue=zero)]
    return NuEquation(_poly(tau), _poly(sigma), _poly(sigma_tilde), EXTENDED)


def _irreducible_cubic(rng):
    """A monic integer cubic with no rational root: by the rational root
    theorem, no divisor of its constant term, of either sign, is a root."""
    while True:
        c = [rng.randint(-9, 9) for _ in range(3)] + [1]
        divisors = [e * d for d in range(1, abs(c[0]) + 1) if c[0] % d == 0 for e in (1, -1)]
        if c[0] and all(c[0] + c[1] * z + c[2] * z * z + z ** 3 for z in divisors):
            return c


IRRATIONAL_SIGMAS = ([-2, 0, 0, 1], [1, -3, 0, 1], None, [-2, 0, 1], [0, -3, 0, 1])


def test_planted_branches_on_irrational_roots_come_out_exact():
    # irreducible cubics (z^3 - 2, z^3 - 3z + 1 and random ones) and sigma
    # with an irreducible quadratic factor (z^2 - 2, z (z^2 - 3)), with a
    # planted pi whose denominators reach 10**12. The pi ladder (rungs up
    # to 10**6) left the planted branch float from 1,000,003 on; the
    # exactness rule gives it exact in every equation, with the same
    # branch count and every branch the ladder made exact unchanged.
    rng = random.Random(2416)
    dens = (7, 1000003, 10**9 + 7, 10**12 + 39)
    made_exact = 0
    for i in range(40):
        sigma = IRRATIONAL_SIGMAS[i % 5] or _irreducible_cubic(rng)
        d = dens[i // 5 % 4]
        pi = [F(rng.randint(-d, d), d) for _ in range(3)]
        g = [F(rng.randint(-50, 50), 7), F(rng.randint(-50, 50), 11)]
        tau = [F(rng.randint(-9, 9), 4) for _ in range(3)]
        eq = _planted_eq([F(c) for c in sigma], tau, pi, g)
        got = enumerate_branches(eq)
        assert not _exact_centres(eq), i
        assert any(b.backend == EXACT and b.pi == _poly(pi) for b in got), i
        made_exact += _check_against_ladder(eq, got, i)
        for b in got:
            if b.backend == EXACT:
                assert b.s * b.s == radicand(eq, b.g), i
    assert made_exact >= 30


def test_a_cluster_of_three_close_roots_is_exact_and_fast():
    # sigma = (z - 1)(z - 1 - 1e-12)(z - 1 - 2e-12): Aberth's step, from
    # the Newton polygon's circle, reaches an exact root of the cluster,
    # which is divided out exactly, so all three centres are exact and
    # so is every branch. The pi ladder found no root there and took 29 s
    # for 6 float branches.
    e = F(1, 10**12)
    sigma = _times(_times([-1, 1], [-1 - e, 1]), [-1 - 2 * e, 1])
    pi = [F(1, 3), F(-2, 5), F(1, 7)]
    eq = _planted_eq(sigma, [1, F(-35, 12), F(19, 12)], pi, [F(1, 2), F(-1, 3)])
    start = time.perf_counter()
    centres = [c for c, _ in _sigma_points(eq.sigma, 3)]
    branches = enumerate_branches(eq)
    assert time.perf_counter() - start < 1.0
    assert centres == [RationalComplex(1 + 2 * e), RationalComplex(1 + e), RationalComplex(1)]
    assert any(b.backend == EXACT and b.pi == _poly(pi) for b in branches)
    assert branches and all(b.backend == EXACT for b in branches)


def test_three_close_gaussian_rational_roots_come_out_exact():
    # clusters of three Gaussian-rational roots, on a line or a right
    # triangle, with gaps from 1e-3 down to 1e-15: Newton may wander inside
    # a cluster before it converges, and every root must come out exact
    rng = random.Random(2417)
    for i in range(60):
        gap = RationalComplex(F(1, 10 ** rng.randint(3, 15)))
        r = _gaussian(rng)
        third = r + (gap + gap if i % 2 else gap * RationalComplex(0, 1))
        roots = [r, r + gap, third]
        coeffs = [RationalComplex(1)]
        for c in roots:
            coeffs = _times(coeffs, [-c, RationalComplex(1)])
        lead = RationalComplex(_frac(rng) or 1)
        got = _exact_roots(Poly([c * lead for c in coeffs], EXACT))
        assert sorted(got, key=_re_im) == sorted(roots, key=_re_im), i


def _newton_gap(sigma, r):
    """|sigma(r) / sigma'(r)| / |r| at a float root r, exactly: the
    relative distance to the root that Newton sees from r."""
    x = RationalComplex(F(r.real), F(r.imag))
    return abs(complex(sigma(x) / sigma.derivative()(x))) / abs(r)


SCALE_CASES = [
    "z^2 - 2e-40", "z^2 - 2e-34", "z^3 - 2e-150", "z^3 + 1e160",
    "z^3 + 1e20*z^2 + 1", "z^3 + 1e110*z^2 + 1", "-1 + 2e-30 + 3*z - 3*z^2 + z^3",
    "(1+2i)*z^3 - 3i*z + 7/3"]


@pytest.mark.parametrize("text", SCALE_CASES)
def test_irrational_roots_keep_float_accuracy_at_every_scale(text):
    # Aberth's step refines all roots together from the Newton polygon's
    # circles, each iterate on a grid relative to its own size below 1:
    # each float root lies within a few units in the last place of a root
    # of sigma, however small or large, spread apart or clustered the
    # roots are
    sigma = parse_poly(text, EXACT)
    roots = _exact_roots(sigma)
    assert len(roots) == sigma.degree
    assert len(set(map(complex, roots))) == len(roots)
    for r in roots:
        assert isinstance(r, complex) and _newton_gap(sigma, r) <= 1e-15, r


def test_float_roots_are_certified_to_half_an_ulp():
    # at every float root r, the exact Newton correction delta =
    # sigma(r)/sigma'(r) is at most 2^-53 |r|, so r is the root rounded,
    # and the Newton disks of radius deg |delta| about the roots, each of
    # which holds a root of sigma, are pairwise disjoint: the roots are
    # distinct and complete. sqrt(2) comes out as math.sqrt(2)
    sigmas = [sigma for sigma, roots in _root_grid(200, seed=1511) if roots is None]
    sigmas += [parse_poly(text, EXACT) for text in SCALE_CASES]
    floats = 0
    for sigma in sigmas:
        slope, disks = sigma.derivative(), []
        for r in _exact_roots(sigma):
            if isinstance(r, RationalComplex):
                disks.append((complex(r), 0.0))
                continue
            x = RationalComplex(F(r.real), F(r.imag))
            delta = sigma(x) / slope(x)
            assert (delta.re ** 2 + delta.im ** 2) * 2 ** 106 <= x.re ** 2 + x.im ** 2, (sigma, r)
            disks.append((r, sigma.degree * abs(delta)))
            floats += 1
        for i, (a, ra) in enumerate(disks):
            assert all(abs(a - b) > ra + rb for b, rb in disks[i + 1:]), sigma
    assert floats >= 100
    root2 = math.sqrt(2)
    assert _exact_roots(parse_poly("z^3 - 2*z", EXACT)) == [root2, RationalComplex(0), -root2]


def test_a_cluster_with_irrational_roots_keeps_three_centres():
    # (z - 1)^3 + 1e-30 = 0 at z = 1 - 1e-10 w, w^3 = 1: the real root is
    # exact, the other two float and apart. The parent's centres came from
    # eigvals, and the float cubic is (z - 1)^3, which has one root thrice.
    sigma = parse_poly("-1 + 1e-30 + 3*z - 3*z^2 + z^3", EXACT)
    roots = _exact_roots(sigma)
    assert roots[2] == RationalComplex(1 - F(1, 10**10))
    for r, w in zip(roots, (cmath.exp(-2j * cmath.pi / 3), cmath.exp(2j * cmath.pi / 3))):
        assert abs(r - (1 - 1e-10 * w)) <= 1e-15
    points = _sigma_points(sigma, 3)
    assert len({complex(c) for c, _ in points}) == 3


def test_float_roots_that_agree_are_refused(capsys):
    # (z - 1)^2 = 2e-60 has the roots 1 +- 1.4e-30, which agree as floats:
    # one centre twice would repeat a Hermite row, so classify refuses it
    sigma = parse_poly("z^2 - 2*z + 1 - 2e-60", EXACT)
    with pytest.raises(ValueError, match="agree to float precision"):
        _exact_roots(sigma)
    argv = ["classify", "--sigma", "z^2 - 2*z + 1 - 2e-60", "--tau", "1 + z",
            "--sigma-tilde", "1 + z^2", "--backend", "exact"]
    assert main(argv) == 2
    assert "agree to float precision" in capsys.readouterr().err


def test_cardano_beyond_float_range_of_its_coefficients(capsys):
    # sigma = z^3 + 1e160: the square of its constant term, 1e320, is
    # beyond float range, though the roots, 2.2e53 in modulus, are floats;
    # the root kernel evaluates sigma exactly and keeps them
    argv = ["classify", "--sigma", "z^3 + 1e160", "--tau", "1 + z",
            "--sigma-tilde", "1 + z^2", "--backend", "exact"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("8 branches")


@pytest.mark.parametrize("sigma, code, err", [
    ("z^3 - 1e-300", 2, "error: polynomial coefficient overflows the float range\n"),
    ("z^3 + (1e-200)*z^2 + 1e-300*z + 1e-308", 2,
     "error: polynomial coefficient overflows the float range\n"),
    ("1e300*z^3 - 1", 2, "error: exact value overflows the float range\n"),
    ("z^3 + 1e300*z + 1", 2, "error: exact value overflows the float range\n"),
    ("z^3 - 1e308", 2, "error: noise bound at a root of sigma overflows the float range\n"),
    ("z^2 - 1e300", 0, "")])
def test_sigma_at_the_ends_of_float_range_keeps_its_exit(capsys, sigma, code, err):
    # roots or values of B beyond float range at either end give the error
    # of the step they first reach, and z^2 - 1e300 its branches
    argv = ["classify", "--sigma", sigma, "--tau", "1 + z", "--sigma-tilde", "1 + z^2",
            "--backend", "exact"]
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert got == err
    assert out.startswith("4 branches") if code == 0 else out == ""


def test_singular_jacobian_ends_the_refinement(capsys, monkeypatch):
    # sigma = z^2 - 2 in extended mode: a candidate whose s has a zero top
    # coefficient makes the Jacobian of s^2 - g sigma = B singular, and a
    # Newton step there took all GRID_BITS steps; it now stops at once,
    # and the branches are the ones printed before
    steps = []
    real = branches._refine

    def counted(values, step):
        count = [0]

        def counting(x):
            count[0] += 1
            return step(x)

        try:
            return real(values, counting)
        finally:
            steps.append(count[0])

    monkeypatch.setattr(branches, "_refine", counted)
    argv = ["classify", "--sigma", "z^2 - 2", "--tau", "2 + 5/4*z + 2*z^2",
            "--sigma-tilde", "-10/7 - 6/11*z + 19/7*z^2 - 21/44*z^3 + z^4",
            "--backend", "exact"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert steps and max(steps) <= 6
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "64a7ad4c701886e73a251a281203cd03b55e5542474a34f64c9cfeb20ba0f79c"


def _counted_refinements(monkeypatch):
    """The step count of each branches._refine call from now on, appended
    as each call ends."""
    steps, real = [], branches._refine

    def counted(values, step):
        count = [0]

        def counting(x):
            count[0] += 1
            return step(x)

        try:
            return real(values, counting)
        finally:
            steps.append(count[0])

    monkeypatch.setattr(branches, "_refine", counted)
    return steps


def test_candidate_entry_at_float_noise_shares_the_grid(capsys, monkeypatch):
    # one float candidate of this equation has g1 = 5.1e-17i, float noise
    # of a zero coefficient: on a grid of its own, 2^-128 of its start, its
    # step stayed above one unit for all GRID_BITS steps. The entries of a
    # float candidate share the grid of the largest, so every refinement
    # ends within a few steps, with the branches printed before
    steps = _counted_refinements(monkeypatch)
    argv = ["classify", "--sigma", "119/6 + 323/27*z + 17/3*z^2",
            "--tau", "-1/5 + 15/2*z - 13/10*z^2",
            "--sigma-tilde", "-21776/135 - 14467/2970*z + 695713/49005*z^2 + 6077/495*z^3",
            "--backend", "exact"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(steps) == 5 and max(steps) <= 8
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "74a567adab9effa0cce913ec4ed5def4f48728cd7dbbd07e8bd708a9c1a94671"


def test_aberth_keeps_a_grid_per_root(monkeypatch):
    # Aberth's starts are exact points, so each root keeps its own grid:
    # the roots of (z - 10^-30)(z^2 - 2) come out to 2^-128 of their size
    seen = []
    real = branches._refine

    def spy(values, step):
        out = real(values, step)
        seen.append(out)
        return out

    monkeypatch.setattr(branches, "_refine", spy)
    tiny = RationalComplex(F(1, 10**30) + F(1, 10**45))
    poly = Poly([-tiny, 1], EXACT) * Poly([-2, 0, 1], EXACT)
    roots = branches._exact_roots(poly)
    assert len(seen) == 1 and len(roots) == 3
    small = min(seen[0], key=abs)
    assert abs(complex(small) - complex(tiny)) <= 2.0 ** -120 * abs(complex(tiny))
