"""Branch enumeration: square roots of B modulo sigma at the mode's budget.

engine.enumerate_branches, the one caller, imports this module on its
first call, so a launch that only solves never loads it. With budget d,
the bound on deg sigma, s has degree below d and g degree at most d - 2;
sqrt(B) is lifted at each point of sigma on the projective line and the
pieces are joined by Hermite interpolation (_sqrt_mod_sigma_candidates).

A float value of an exact equation (a root of sigma, a branch at an
irrational root) becomes exact by one rule: Newton refines it on the
exact equation it must satisfy, the simplest Gaussian rational near the
result is taken (_refine), and it stands if the equation holds exactly.
Roots of an exact sigma with no closed form are refined all together,
by Aberth's simultaneous Newton step (_aberth).
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from itertools import product
from math import comb, inf, isfinite

from .engine import (_DEGREE_BOUNDS, DEDUPE_TOL, DIVIDE_REL_TOL, GRID_BITS, ZERO_TOL,
                     NoBranchError, NuEquation, PiBranch, _nullspace, _repeated_part)
from .poly import Poly, _deflate
from .scalars import EXACT, FLOAT, RationalComplex, as_scalar, negligible, sqrt_exact


def _dedupe(branches):
    seen, out, g = [], [], None
    for b in branches:
        if b.g is not g:  # the two branches of one candidate share its g and key
            g, gf = b.g, b.g.to_float()
            key = (complex(gf.coeff(1)), complex(gf.coeff(0)))
            norm = max(1.0, abs(key[0]), abs(key[1]))
        if not any(k[2] == b.sign and abs(k[0] - key[0]) <= DEDUPE_TOL * norm
                   and abs(k[1] - key[1]) <= DEDUPE_TOL * norm for k in seen):
            seen.append(key + (b.sign,))
            out.append(b)
    return out


def _signed(b: PiBranch) -> PiBranch:
    """An exact branch with its s leading with the principal square root
    of its square (real part positive, or zero and imaginary part
    positive): b itself, or b with s and sign negated, the same pi. A
    collapse (sign 0) or a float branch as it is."""
    if b.backend != EXACT or not b.sign:
        return b
    re, im, _ = b.s.leading()._abd
    if re > 0 or re == 0 and im > 0:
        return b
    return PiBranch(b.g, -b.s, b.pi, -b.sign)


def _refine(values, step):
    """Newton x -> x - step(x) from `values` (floats or Gaussian
    rationals), each float step rounded to its value's grid, until every
    step is at most one grid unit, for GRID_BITS steps, or until a step
    is not a finite float: the Gaussian dyadics it reaches, within a few
    grid units of a solution where it converges. A value that starts at
    size 2^e has the grid 2^-GRID_BITS min(1, 2^e), fixed: a small root
    keeps as many bits as a large one, and a value driven to 0 stops at
    the noise the other values' grids leave in its step. Float starts,
    entries of one float solve, share the grid of the largest."""
    x = [v if isinstance(v, RationalComplex)
         else RationalComplex(Fraction(v.real), Fraction(v.imag)) for v in values]
    sizes = [max(a.bit_length(), b.bit_length()) - d.bit_length()
             for a, b, d in (v._abd for v in x)]
    shared = not isinstance(values[0], RationalComplex)
    units = [1 << (GRID_BITS - min(0, max(sizes) if shared else e)) for e in sizes]
    for _ in range(GRID_BITS):
        try:
            d = [RationalComplex(round(Fraction(v.real) * one), round(Fraction(v.imag) * one))
                 for v, one in zip(step(x), units)]
        except (OverflowError, ZeroDivisionError, ValueError):  # beyond float range, 1/0, NaN
            break
        x = [a - v / one for a, v, one in zip(x, d, units)]
        if max(max(abs(v.re), abs(v.im)) for v in d) <= 1:
            break
    return x


def _simplest(x: RationalComplex) -> RationalComplex:
    """The Gaussian rational closest to x with denominators at most
    2^(GRID_BITS/2 - 8): two such lie 2^(16 - GRID_BITS) apart or more,
    so a value within a few grid units of one gives that one."""
    bound = 1 << (GRID_BITS // 2 - 8)
    return RationalComplex(x.re.limit_denominator(bound), x.im.limit_denominator(bound))


def _exact_candidate(bpoly: Poly, sigma: Poly, candidate, budget: int):
    """The exact candidate (g, s, collapse) near a float one of an exact
    equation, else the float one. _refine takes s and g on s^2 - g sigma
    = B, a square system in their coefficients, with the exact residual
    and the float candidate's Jacobian 2 s ds - sigma dg (singular at a
    collapse, which keeps s = 0). A singular Jacobian, whose kernel is not
    the residual column's alone, gives no step and ends the refinement.
    The candidate is exact if sigma then divides s^2 - B exactly, with a
    quotient g of degree <= budget - 2."""
    g, s, collapse = candidate
    exact_s = Poly.zero(EXACT)
    if not collapse:
        jac = [[2 * s.coeff(i - j) for j in range(budget)]
               + [-complex(sigma.coeff(i - j)) for j in range(budget - 1)]
               for i in range(2 * budget - 1)]

        def step(x):
            sx, gx = Poly(x[:budget], EXACT), Poly(x[budget:], EXACT)
            res = sx * sx - gx * sigma - bpoly
            aug = [row + [-complex(res.coeff(i))] for i, row in enumerate(jac)]
            kernel = _nullspace(aug, FLOAT)
            if len(kernel) != 1 or kernel[0][-1] != 1:
                raise ValueError("singular Jacobian")
            return kernel[0][:-1]

        start = [s.coeff(j) for j in range(budget)] + [g.coeff(j) for j in range(budget - 1)]
        exact_s = Poly([_simplest(v) for v in _refine(start, step)[:budget]], EXACT)
    g, rem = (exact_s * exact_s - bpoly).divrem(sigma)
    if rem.is_zero and g.degree <= budget - 2:
        return g, exact_s, exact_s.is_zero
    return candidate


def _starts(poly: Poly):
    """Aberth's starting points for the roots of an exact poly with a
    nonzero constant term, from its Newton polygon (Bini, Numer.
    Algorithms 13, 1996): each edge (k, j) of the upper convex hull of
    the points (k, log2 |c_k|) puts j - k points on the circle of radius
    2^r, r its slope rounded, at angles 2 pi (i/(j - k) + k/deg) + 0.7.
    log2 |c_k| is read off the bit lengths of c_k's ints."""
    size = {k: max(a.bit_length(), b.bit_length()) - d.bit_length()
            for k, (a, b, d) in enumerate(c._abd for c in poly.coeffs) if a or b}
    starts, k = [], 0
    while k < poly.degree:
        # the hull's next vertex: the steepest rise from k, the farthest on a tie
        j = max((j for j in size if j > k), key=lambda j: ((size[j] - size[k]) / (j - k), j))
        radius = Fraction(2) ** round((size[k] - size[j]) / (j - k))
        for i in range(j - k):
            w = cmath.exp(1j * (2 * cmath.pi * (i / (j - k) + k / poly.degree) + 0.7))
            starts.append(RationalComplex(Fraction(w.real), Fraction(w.imag)) * radius)
        k = j
    return starts


def _aberth(poly: Poly):
    """The roots of an exact square-free poly, refined together by
    Aberth's step N / (1 - N sum_j 1/(x - x_j)), N = poly/poly' taken
    exactly (Aberth, Math. Comp. 27, 1973), from _starts: the Gaussian
    dyadics _refine reaches. The differences x - x_j are exact before
    they become floats; where poly' vanishes the step is its limit."""
    slope = poly.derivative()

    def step(x):
        out = []
        for k, v in enumerate(x):
            repel = sum(1 / complex(v - w) for w in x[:k] + x[k + 1:])
            d = slope(v)
            n = complex(poly(v) / d) if d else None
            out.append(-1 / repel if n is None else n / (1 - n * repel))
        return out

    return _refine(_starts(poly), step)


def _exact_roots(sigma: Poly):
    """All roots of an exact square-free sigma of degree at most 3, in
    descending order of (re, im): exact where Gaussian rational, else
    floats. z^m gives m zero roots. A linear rest, and a quadratic one
    whose discriminant has a sqrt_exact root, give theirs in closed form.
    Any other rest is refined by _aberth: the first iterate whose
    _simplest is a root gives that root, which is divided out exactly,
    and the quotient starts over; with none, each root is its iterate as
    a float. Roots within four units in the last place of each other,
    not all exact, raise ValueError: as floats they would give sigma one
    centre twice."""
    zeros = next(k for k, c in enumerate(sigma.coeffs) if c)
    roots = [RationalComplex(0)] * zeros
    rest = Poly(sigma.coeffs[zeros:], EXACT)
    c0, c1, c2 = rest.coeff(0), rest.coeff(1), rest.coeff(2)
    disc = sqrt_exact(c1 * c1 - 4 * c0 * c2) if rest.degree == 2 else None
    if rest.degree == 1:
        roots.append(-c0 / c1)
    elif disc is not None:
        roots += [(-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)]
    elif rest.degree:
        near = _aberth(rest)
        root = next((c for c in map(_simplest, near) if not rest(c)), None)
        roots += [complex(x) for x in near] if root is None else [
            root, *_exact_roots(rest.divrem(Poly([-root, 1], EXACT))[0])]
    values = [complex(c) for c in roots]
    if not all(isinstance(c, RationalComplex) for c in roots) and any(
            abs(a - b) <= 4 * sys.float_info.epsilon * max(abs(a), abs(b))
            for i, a in enumerate(values) for b in values[i + 1:]):
        raise ValueError("sigma has distinct roots that agree to float precision")
    return sorted(roots, reverse=True, key=lambda c: (c.re, c.im) if isinstance(
        c, RationalComplex) else (c.real, c.imag))


def _sigma_points(sigma: Poly, budget: int):
    """Roots of sigma as (centre, multiplicity) over the projective line,
    so the multiplicities add up to the degree budget (3 in extended
    mode, 2 in classic) and at most one exceeds 1. When deg sigma is
    below the budget the point at infinity (centre None) comes first.

    A repeated root is read off gcd(sigma, sigma'), so its centre is
    exact when sigma is. The other roots come from _exact_roots for an
    exact sigma (closed forms or _aberth), from Poly.roots for a float one."""
    points = [(None, budget - sigma.degree)] if sigma.degree < budget else []
    if sigma.degree < 1:
        return points
    common = _repeated_part(sigma)
    k = common.degree
    if k == 0:
        roots = _exact_roots(sigma) if sigma.backend == EXACT else sigma.roots()
        return points + [(r, 1) for r in roots]
    # common is c' (z - c)^k: its next-to-top coefficient over its top is -k c
    centre = -common.coeff(k - 1) / (common.leading() * k)
    points.append((centre, k + 1))
    rest, _ = sigma.divrem(common.monic() * Poly([-centre, 1], sigma.backend))
    if rest.degree == 1:
        points.append((-rest.coeff(0) / rest.coeff(1), 1))
    return points


def _local_sqrt(taylor, mult, noise, backend, at_infinity):
    """First `mult` Taylor coefficients of a square root of the series
    sum taylor[k] t^k, by Hensel lifting in `backend`; None when none
    exists there. An exact head root is sqrt_exact's, None when taylor[0]
    has no Gaussian-rational root; a float taylor[0] within `noise`, its
    rounding error, counts as zero.

    At a repeated point (a repeated root of sigma, or infinity when deg
    sigma is at least 2 below the budget) a series that vanishes to odd
    order below `mult` has no square root; one vanishing to any other
    positive order leaves s underdetermined, a continuum, and raises
    NoBranchError naming the point, infinity when `at_infinity`."""
    if mult > 1:
        order = next((k for k, c in enumerate(taylor[:mult])
                      if not negligible(c, ZERO_TOL, *taylor)), mult)
        if order % 2 and order < mult:
            return None
        if order:
            point = ("infinity (deg sigma below the mode's degree budget)"
                     if at_infinity else "a repeated root of sigma")
            raise NoBranchError(
                "perfect-square set is not finite (the radicand vanishes at %s)" % point)
    if backend == EXACT:
        root = [sqrt_exact(taylor[0])]
        if root[0] is None:
            return None
    else:
        root = [cmath.sqrt(0 if negligible(taylor[0], noise) else complex(taylor[0]))]
    for k in range(1, mult):
        acc = as_scalar(taylor[k], backend) - sum(root[i] * root[k - i] for i in range(1, k))
        root.append(acc / (2 * root[0]))
    return root


def _hermite_row(centre, k, budget, backend):
    """Coefficients mapping s = s0 + s1 z + ... + s_{budget-1} z^(budget-1)
    to its k-th Taylor coefficient at centre (of w^(budget-1) s(1/w) at
    w = 0 for infinity), as `backend` scalars."""
    one, zero = as_scalar(1, backend), as_scalar(0, backend)
    if centre is None:
        return [one if j == budget - 1 - k else zero for j in range(budget)]
    c, power, row = as_scalar(centre, backend), one, [zero] * k
    for j in range(k, budget):
        row.append(comb(j, k) * power)
        power = power * c
    return row


def _taylor(poly: Poly, centre, top, mult):
    """Taylor coefficients 0..top of poly at centre (of w^top poly(1/w)
    at w = 0 for infinity, centre None); at a simple centre (mult 1),
    where _local_sqrt reads only B(c), just that value."""
    if centre is None:
        return [poly.coeff(top - k) for k in range(top + 1)]
    if mult == 1:
        return [_deflate(poly.coeffs, as_scalar(centre, poly.backend), poly.backend)[1]]
    local = poly.shift(centre)
    return [local.coeff(k) for k in range(top + 1)]


def _sqrt_mod_sigma_candidates(eq: NuEquation, points, half: Poly):
    """(g, s, collapse) with s^2 = B + g sigma, where
    B = half^2 - sigma~, half = (sigma' - tau~)/2 (eq.half_gap(), which
    the caller builds once) and `points` are sigma's (_sigma_points).

    With the mode's degree budget (the bound on deg sigma), such an s
    (deg s < budget) solves s^2 = B mod sigma with
    deg(s^2 - B) <= deg sigma + budget - 2. On the projective line both
    are local conditions: at each point of sigma, infinity included, s
    matches a square root of B to the point's multiplicity. So sqrt(B) is
    lifted at each point and the pieces are joined by one Hermite
    interpolation per sign pattern; the first sign is fixed, as -s gives
    the same g. When sigma divides B, sqrt(B) is 0 at every simple root,
    so the interpolation gives s = 0 and the g of the zero radicand.

    For pi = (sigma' - tau~)/2 +- s, pi^2 + pi (tau~ - sigma') + sigma~
    is (pi - (sigma' - tau~)/2)^2 - B = s^2 - B, and sigma_bar adds only
    pi' sigma to it. So the remainder of s^2 - B modulo sigma is
    sigma_bar's: the one certificate of a candidate's branches.

    An exact equation whose centres are all exact gets exact candidates:
    the lift and the Hermite solve run in RationalComplex, the remainder
    must be zero, so B + g sigma = s^2 and collapse marks s = 0. If a head
    of B has no Gaussian-rational root, no exact branch exists (s(c)^2 =
    B(c) at each centre c) and the construction runs in floats. There the
    remainder must be within 1e-7 of max(1, |B|, |s^2|), looser than
    reduce_branch's DIVIDE_REL_TOL because close roots of sigma make the
    Hermite solve ill-conditioned, and collapse marks B + g sigma within
    DIVIDE_REL_TOL of max(1, |B|), as reduce_branch tests the collapse
    branch at that tolerance. Both backends solve by one elimination,
    _nullspace, and test through Poly.negligible, whose exact test is a
    zero test; neither loads numpy. At an inexact centre of an exact
    sigma, a float candidate is made exact where it can be (_exact_candidate)."""
    budget = _DEGREE_BOUNDS[eq.mode][1]
    bpoly = half * half - eq.sigma_tilde
    sigma = eq.sigma
    top = 2 * budget - 2
    exact = [c is None or isinstance(c, RationalComplex) for c, _ in points]
    backend = EXACT if eq.backend == EXACT and all(exact) else FLOAT
    refine = eq.backend == EXACT and not all(exact)
    size = bpoly  # scales the float tests below; an exact test reads no ref
    if backend == EXACT:
        roots = [_local_sqrt(_taylor(bpoly, c, top, m), m, 0.0, EXACT, c is None)
                 for c, m in points]
        if None in roots:
            backend = FLOAT
    if backend == FLOAT:
        bpoly_f, sigma = bpoly.to_float(), sigma.to_float()
        roots = []
        for (centre, mult), at_exact in zip(points, exact):
            noise = 0.0
            if mult == 1 and not at_exact:
                # B(centre) within the shift's rounding bound gamma_2d |B|(|centre|),
                # d = deg B (Higham, Accuracy and Stability, eq. 5.3), is zero;
                # a bound beyond float range, raised or summed to inf, is no bound
                try:
                    terms = sum(abs(c) * abs(centre) ** k for k, c in enumerate(bpoly_f.coeffs))
                except OverflowError:
                    terms = inf
                if not isfinite(terms):
                    raise OverflowError("noise bound at a root of sigma overflows the float range")
                noise = sys.float_info.epsilon * bpoly_f.degree * terms
            taylor = _taylor(bpoly if at_exact else bpoly_f, centre, top, mult)
            roots.append(_local_sqrt(taylor, mult, noise, FLOAT, centre is None))
        if None in roots:
            return
        bpoly, exact_b, size = bpoly_f, bpoly, bpoly_f.max_abs()  # read once
    rows = [_hermite_row(c, k, budget, backend) for c, m in points for k in range(m)]
    rhs = [[e * v for e, root in zip((1,) + tail, roots) for v in root]
           for tail in product((1, -1), repeat=len(points) - 1)]
    # one elimination of [M | -rhs_1 | -rhs_2 ...]: the kernel vector of
    # the free column of rhs_t starts with the solution for rhs_t
    aug = [row + [-r[i] for r in rhs] for i, row in enumerate(rows)]
    for vec in _nullspace(aug, backend):
        s = Poly(vec[:budget], backend)
        sq = s * s
        g, rem = (sq - bpoly).divrem(sigma)
        if g.degree <= budget - 2 and rem.negligible(1e-7, size, sq):
            candidate = g, s, s.is_zero if backend == EXACT else (
                bpoly + g * sigma).negligible(DIVIDE_REL_TOL, size)
            yield _exact_candidate(exact_b, eq.sigma, candidate, budget) if refine else candidate
