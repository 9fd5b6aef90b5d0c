"""Reduction engine for equations of hypergeometric type.

An input equation psi'' + (tau~/sigma) psi' + (sigma~/sigma^2) psi = 0 is
reduced by the substitution psi = phi(z) y(z), phi'/phi = pi/sigma, where
pi = (sigma' - tau~)/2 +- sqrt(((sigma' - tau~)/2)^2 - sigma~ + g sigma)

and the polynomial g (a constant k in classic mode, affine in extended
mode) is chosen so the radicand is a perfect square. Each admissible g
yields up to two branches; reduction gives sigma y'' + tau y' + h y = 0
with h = sigma_bar / sigma = g + pi'. Degree bounds:

    classic   deg tau~ <= 1, deg sigma <= 2, deg sigma~ <= 2, g scalar
    extended  deg tau~ <= 2, deg sigma <= 3, deg sigma~ <= 4, g affine

The two modes are one algebraic problem at two degree budgets, the bound
on deg sigma: with budget d, s has degree below d and g degree at most
d - 2. Branch enumeration runs one construction, square roots of B
modulo sigma, at the mode's budget.

A float value of an exact equation (a root of sigma, a branch at an
irrational root) becomes exact by one rule: Newton refines it on the
exact equation it must satisfy, the simplest Gaussian rational near the
result is taken (_refine), and it stands if the equation holds exactly.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import comb, inf, isfinite

from .oracle import OdeForm, ResidualContour, coefficient_map
from .poly import Poly
from .scalars import EXACT, FLOAT, RationalComplex, as_scalar, negligible, sqrt_exact

CLASSIC = "classic"
EXTENDED = "extended"

DEDUPE_TOL = 1e-8
DIVIDE_REL_TOL = 1e-10
# float remainders and Taylor coefficients below this (relative) count
# as zero when reading sigma's root multiplicities and B's vanishing order
ZERO_TOL = 1e-9
# the exactness rule's Newton iterates are Gaussian dyadics (a + b i)/2^GRID_BITS
GRID_BITS = 128

_DEGREE_BOUNDS = {CLASSIC: (1, 2, 2), EXTENDED: (2, 3, 4)}


class NoBranchError(ValueError):
    """No admissible branch (or accessory value) exists for the input."""


@dataclass(frozen=True)
class NuEquation:
    """Equation psi'' + (tau~/sigma) psi' + (sigma~/sigma^2) psi = 0."""

    tau_tilde: Poly
    sigma: Poly
    sigma_tilde: Poly
    mode: str = EXTENDED

    def __post_init__(self):
        if self.mode not in _DEGREE_BOUNDS:
            raise ValueError("mode must be %r or %r" % (CLASSIC, EXTENDED))
        if not (
            self.tau_tilde.backend == self.sigma.backend == self.sigma_tilde.backend
        ):
            raise ValueError("equation polynomials must share one backend")
        if self.sigma.is_zero:
            raise ValueError("sigma must be nonzero")
        b1, b2, b3 = _DEGREE_BOUNDS[self.mode]
        if self.tau_tilde.degree > b1 or self.sigma.degree > b2 or self.sigma_tilde.degree > b3:
            raise ValueError(
                "degree bounds for %s mode are (%d, %d, %d); got (%d, %d, %d)"
                % (self.mode, b1, b2, b3, self.tau_tilde.degree,
                   self.sigma.degree, self.sigma_tilde.degree))

    @property
    def backend(self):
        return self.sigma.backend

    def to_float(self) -> "NuEquation":
        return NuEquation(
            self.tau_tilde.to_float(),
            self.sigma.to_float(),
            self.sigma_tilde.to_float(),
            self.mode,
        )

    def half_gap(self) -> Poly:
        """(sigma' - tau~)/2, the fixed part of every pi branch."""
        diff = self.sigma.derivative() - self.tau_tilde
        half = as_scalar(Fraction(1, 2), self.backend)
        return diff * half

    def psi_ode(self) -> OdeForm:
        """The equation as polynomial ODE: sigma^2 psi'' + sigma tau~ psi'
        + sigma~ psi = 0."""
        return OdeForm(
            self.sigma * self.sigma, self.sigma * self.tau_tilde, self.sigma_tilde
        )


def radicand(eq: NuEquation, g: Poly) -> Poly:
    """((sigma' - tau~)/2)^2 - sigma~ + g sigma for a candidate g."""
    half = eq.half_gap()
    return half * half - eq.sigma_tilde + g * eq.sigma


@dataclass(frozen=True)
class PiBranch:
    """One admissible branch: pi = (sigma' - tau~)/2 + sign * s with
    radicand(g) = s^2. sign 0 marks the degenerate collapse (radicand
    identically zero). branch_from_pi gives a prescribed pi sign +1, or
    0 when it collapses."""

    g: Poly
    s: Poly
    pi: Poly
    sign: int

    @property
    def backend(self):
        return self.pi.backend

    def reduced(self, eq: NuEquation) -> "ReducedForm":
        """reduce_branch's form with no division: sigma_bar = s^2 - B +
        pi' sigma = (g + pi') sigma, so tau = tau~ + 2 pi and h = g + pi',
        in the degree bound as deg g <= budget - 2 and deg pi < budget."""
        tau_tilde = _on_branch(eq, self).tau_tilde
        return ReducedForm(tau_tilde + self.pi + self.pi, self.g + self.pi.derivative())


@dataclass(frozen=True)
class ReducedForm:
    """Coefficients of the reduced equation sigma y'' + tau y' + h y = 0.
    In classic mode h is the constant eigenvalue term."""

    tau: Poly
    h: Poly

    def ode(self, eq: NuEquation) -> OdeForm:
        return OdeForm(eq.sigma, self.tau, self.h)


@dataclass(frozen=True)
class QuantizationRelation:
    """Degree-n termination constraints read off h = h_n.

    Extended mode: slope_residual is the z-coefficient mismatch
    h[1] + n tau[2] + n(n-1) sigma[3] (zero exactly when a degree-n
    polynomial solution is possible) and constant_offset is the implied
    integration constant C_n. Classic mode: lambda_n is the eigenvalue
    -n tau' - n(n-1)/2 sigma'' and slope_residual is h - lambda_n.
    """

    n: int
    mode: str
    slope_residual: object
    constant_offset: object = None
    lambda_n: object = None


@dataclass(frozen=True)
class PhiFactor:
    """Prefactor phi = exp(exp_part) * prod (z - root)^exponent with
    phi'/phi = pi/sigma."""

    exp_part: Poly
    powers: tuple


@dataclass(frozen=True)
class Eigenstate:
    """A degree-n polynomial solution with its prefactor and checks."""

    n: int
    accessory: object
    quantization: QuantizationRelation
    phi: PhiFactor
    poly: Poly
    residual: float = None


# -- branch enumeration -------------------------------------------------------


def _is_negligible(p: Poly, scale: float, tol: float) -> bool:
    return p.negligible(tol * max(scale, 1.0))


def _dedupe(branches):
    seen, out = [], []
    for b in branches:
        gf = b.g.to_float()
        key = (complex(gf.coeff(1)), complex(gf.coeff(0)), b.sign)
        norm = max(1.0, abs(key[0]), abs(key[1]))
        if not any(k[2] == key[2] and abs(k[0] - key[0]) <= DEDUPE_TOL * norm
                   and abs(k[1] - key[1]) <= DEDUPE_TOL * norm for k in seen):
            seen.append(key)
            out.append(b)
    return out


def _signed(b: PiBranch) -> PiBranch:
    """An exact branch with its s leading with the principal square root
    of its square (real part positive, or zero and imaginary part
    positive): b itself, or b with s and sign negated, the same pi. A
    collapse (sign 0) or a float branch as it is."""
    if b.backend != EXACT or not b.sign:
        return b
    lead = b.s.leading()
    if lead.re > 0 or lead.re == 0 and lead.im > 0:
        return b
    return replace(b, s=-b.s, sign=-b.sign)


def _refine(values, step):
    """Newton x -> x - step(x) from `values` (floats or Gaussian
    rationals), each float step rounded to the grid, until a step is at
    most one grid unit, for GRID_BITS steps, or until a step is not a
    finite float: the Gaussian dyadics it reaches, within a few grid
    units of a solution where it converges."""
    one = 1 << GRID_BITS
    x = [v if isinstance(v, RationalComplex) else RationalComplex(v.real, v.imag)
         for v in values]
    for _ in range(GRID_BITS):
        try:
            d = [RationalComplex(round(Fraction(v.real) * one), round(Fraction(v.imag) * one))
                 for v in step(x)]
        except (OverflowError, ValueError):  # a step beyond float range, or NaN
            break
        x = [a - v / one for a, v in zip(x, d)]
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
    collapse, which keeps s = 0). The candidate is exact if sigma then
    divides s^2 - B exactly, with a quotient g of degree <= budget - 2."""
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
            return _nullspace(aug, FLOAT)[-1][:-1]

        start = [s.coeff(j) for j in range(budget)] + [g.coeff(j) for j in range(budget - 1)]
        exact_s = Poly([_simplest(v) for v in _refine(start, step)[:budget]], EXACT)
    g, rem = (exact_s * exact_s - bpoly).divrem(sigma)
    if rem.is_zero and g.degree <= budget - 2:
        return g, exact_s, exact_s.is_zero
    return candidate


def _scaled(poly: Poly):
    """(t, coefficients of poly(t w) / (lead t^d)), d = deg poly, with t a
    power of 2 at poly's root bound: each part of a coefficient is below 2
    and the roots in w are at most 4 in modulus, one near that bound."""
    d, lead = poly.degree, poly.leading()
    ratios = [c / lead for c in poly.coeffs]
    t = Fraction(2) ** max(((max(p.numerator.bit_length() - p.denominator.bit_length()
                                 for p in (r.re, r.im) if p) + k - 1) // k
                            for k, r in zip(range(d, 0, -1), ratios) if r), default=0)
    return t, [r / t ** (d - i) for i, r in enumerate(ratios)]


def _cubic_estimates(cubic: Poly):
    """Gaussian-rational estimates of the roots of an exact cubic, largest
    modulus first: Cardano's formula in floats on its depressed form,
    shifted and scaled exactly (_scaled), so that it cannot overflow and
    the roots of a cluster come out apart."""
    shift = -cubic.coeff(2) / (3 * cubic.leading())
    t, (q, p, _, _) = _scaled(cubic.shift(shift))
    p, q = complex(p), complex(q)
    disc = cmath.sqrt(q * q / 4 + p ** 3 / 27)
    # the larger of -q/2 +- disc, so that the sum does not cancel
    u3 = max(-q / 2 + disc, -q / 2 - disc, key=abs)
    us = [u3 ** (1 / 3) * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    ws = [u - p / (3 * u) for u in us] if u3 else [0j] * 3  # else p = q = 0
    return sorted((shift + t * RationalComplex(w.real, w.imag) for w in ws),
                  key=abs, reverse=True)


def _float_roots(quadratic: Poly):
    """The roots of an exact quadratic as floats: on its scaled form w^2 +
    b w + c (_scaled), q = -(b + sqrt(b^2 - 4c))/2 with the sign that does
    not cancel, and the roots t q and t c/q, each rounded once."""
    t, (c, b, _) = _scaled(quadratic)
    disc, b = cmath.sqrt(complex(b * b - 4 * c)), complex(b)
    q = -(b + disc if (b.conjugate() * disc).real >= 0 else b - disc) / 2
    q = RationalComplex(q.real, q.imag)
    return [complex(t * q), complex(t * c / q)]


def _exact_roots(sigma: Poly):
    """All roots of an exact square-free sigma of degree at most 3, in
    descending order of (re, im): exact where Gaussian rational, else
    floats. z^m gives m zero roots. Newton on the cubic rest (_refine)
    from Cardano's estimates, sigma' at each step, gives a root whose
    _simplest is one to divide out, or else the refined root of largest
    modulus to divide out. An exact quadratic rest has exact roots where
    sqrt_exact of its discriminant has one, else float ones
    (_float_roots). Roots within four units in the last place of each
    other, not all exact, raise ValueError: as floats they would give
    sigma one centre twice."""
    coeffs = list(sigma.coeffs)
    roots = []
    while not coeffs[0]:
        roots.append(RationalComplex(0))
        coeffs.pop(0)
    rest, exact = Poly(coeffs, EXACT), True
    if rest.degree == 3:
        drest = rest.derivative()

        def step(x):  # Newton's exact step rest/rest', rounded
            slope = drest(x[0])
            return [complex(rest(x[0]) / slope) if slope else 0j]

        near = [_refine([z], step)[0] for z in _cubic_estimates(rest)]
        root = next((c for c in map(_simplest, near) if not rest(c)), None)
        exact, r = root is not None, near[0] if root is None else root
        # rest = (z - r)(c3 z^2 + b1 z + b0), solved from the c0 end: the
        # exact quotient for an exact root, and for the largest refined
        # root one whose roots stay accurate however far apart they lie
        c0, c1, _, c3 = rest.coeffs
        roots.append(r if exact else complex(r))
        rest = Poly([-c0 / r, (-c0 / r - c1) / r, c3], EXACT)
    if rest.degree == 2:
        c0, c1, c2 = rest.coeffs
        disc = sqrt_exact(c1 * c1 - 4 * c0 * c2) if exact else None
        roots += _float_roots(rest) if disc is None else [
            (-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)]
    elif rest.degree == 1:
        roots.append(-rest.coeff(0) / rest.coeff(1))
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
    exact sigma and from Poly.roots for a float one."""
    points = [(None, budget - sigma.degree)] if sigma.degree < budget else []
    if sigma.degree < 1:
        return points
    # Euclid; a float remainder below ZERO_TOL of its divisor is zero
    common, rem = sigma, sigma.derivative()
    while not rem.is_zero:
        common, rem = rem, common.divrem(rem)[1]
        if _is_negligible(rem, common.max_abs(), ZERO_TOL):
            rem = Poly.zero(rem.backend)
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


def _local_sqrt(taylor, mult, noise, backend):
    """First `mult` Taylor coefficients of a square root of the series
    sum taylor[k] t^k, by Hensel lifting in `backend`; None when none
    exists there. An exact head root is sqrt_exact's, None when taylor[0]
    has no Gaussian-rational root; a float taylor[0] within `noise`, its
    rounding error, counts as zero.

    At a repeated point a series that vanishes to odd order below `mult`
    has no square root; one vanishing to any other positive order
    leaves s underdetermined, a continuum, and raises NoBranchError."""
    if mult > 1:
        bound = ZERO_TOL * max([1.0] + [abs(c) for c in taylor])
        zero = [negligible(c, bound) for c in taylor[:mult]]
        order = zero.index(False) if False in zero else mult
        if order % 2 and order < mult:
            return None
        if order:
            raise NoBranchError(
                "perfect-square set is not finite (the radicand vanishes "
                "at a repeated root of sigma)"
            )
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


def _taylor(poly: Poly, centre, top):
    """Taylor coefficients 0..top of poly at centre (of w^top poly(1/w)
    at w = 0 for infinity, centre None)."""
    if centre is None:
        return [poly.coeff(top - k) for k in range(top + 1)]
    local = poly.shift(centre)
    return [local.coeff(k) for k in range(top + 1)]


def _sqrt_mod_sigma_candidates(eq: NuEquation, points):
    """(g, s, collapse) with s^2 = B + g sigma, where
    B = ((sigma' - tau~)/2)^2 - sigma~ and `points` are sigma's
    (_sigma_points).

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
    must be zero, and collapse marks B + g sigma = 0. If a head of B has
    no Gaussian-rational root, no exact branch exists (s(c)^2 = B(c) at
    each centre c) and the construction runs in floats. There the
    remainder must be within 1e-7 of max(1, |B|, |s^2|), looser than
    reduce_branch's DIVIDE_REL_TOL because close roots of sigma make the
    Hermite solve ill-conditioned, and collapse marks B + g sigma within
    DIVIDE_REL_TOL of max(1, |B|), as reduce_branch tests the collapse
    branch at that tolerance. Both backends solve by one elimination,
    _nullspace, and test through _is_negligible, whose exact test is a
    zero test; neither loads numpy. At an inexact centre of an exact
    sigma, a float candidate is made exact where it can be (_exact_candidate)."""
    budget = _DEGREE_BOUNDS[eq.mode][1]
    half = eq.half_gap()
    bpoly = half * half - eq.sigma_tilde
    sigma = eq.sigma
    top = 2 * budget - 2
    exact = [c is None or isinstance(c, RationalComplex) for c, _ in points]
    backend = EXACT if eq.backend == EXACT and all(exact) else FLOAT
    refine = eq.backend == EXACT and not all(exact)
    if backend == EXACT:
        roots = [_local_sqrt(_taylor(bpoly, c, top), m, 0.0, EXACT) for c, m in points]
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
            taylor = _taylor(bpoly if at_exact else bpoly_f, centre, top)
            roots.append(_local_sqrt(taylor, mult, noise, FLOAT))
        if None in roots:
            return
        bpoly, exact_b = bpoly_f, bpoly
    rows = [_hermite_row(c, k, budget, backend) for c, m in points for k in range(m)]
    rhs = [[e * v for e, root in zip((1,) + tail, roots) for v in root]
           for tail in product((1, -1), repeat=len(points) - 1)]
    # one elimination of [M | -rhs_1 | -rhs_2 ...]: the kernel vector of
    # the free column of rhs_t starts with the solution for rhs_t
    aug = [row + [-r[i] for r in rhs] for i, row in enumerate(rows)]
    # an exact test is a zero test: the scales, which can overflow
    # float range on exact values, serve floats only
    scale = bpoly.max_abs() if backend == FLOAT else 0.0
    for vec in _nullspace(aug, backend):
        s = Poly(vec[:budget], backend)
        sq = s * s
        g, rem = (sq - bpoly).divrem(sigma)
        if g.degree <= budget - 2 and _is_negligible(
                rem, max(scale, sq.max_abs()) if backend == FLOAT else 0.0, 1e-7):
            candidate = g, s, _is_negligible(bpoly + g * sigma, scale, DIVIDE_REL_TOL)
            yield _exact_candidate(exact_b, eq.sigma, candidate, budget) if refine else candidate


def enumerate_branches(eq: NuEquation):
    """All admissible (g, pi) branches of the equation.

    Each candidate (g, s) of _sqrt_mod_sigma_candidates, made and
    certified at sigma's points (_sigma_points), gives the branches
    pi = (sigma' - tau~)/2 +- s, or one collapse branch, sign 0, when its
    radicand vanishes; a repeated root where B vanishes gives none or
    raises NoBranchError (a continuum of branches). Branches are
    deduplicated at 1e-8 and exact ones signed by _signed, and
    PiBranch.reduced gives a branch's reduced form with no second
    division. An exact equation gets an exact branch wherever one exists.
    """
    points = _sigma_points(eq.sigma, _DEGREE_BOUNDS[eq.mode][1])
    branches, halves = [], {}
    for g, s, collapse in _sqrt_mod_sigma_candidates(eq, points):
        if g.backend not in halves:
            halves[g.backend] = (eq if g.backend == eq.backend else eq.to_float()).half_gap()
        half = halves[g.backend]
        if collapse:
            branches.append(PiBranch(g, Poly.zero(g.backend), half, 0))
        else:
            branches += [PiBranch(g, s, half + s, 1), PiBranch(g, s, half - s, -1)]
    return [_signed(b) for b in _dedupe(branches)]


def _vanishes(p: Poly) -> bool:
    return _is_negligible(p, p.max_abs(), 1e-14)


def branch_from_pi(eq: NuEquation, pi: Poly) -> PiBranch:
    """Branch with a prescribed pi (used when the class catalog already
    names it). g is recovered from the defining identity
    pi^2 + pi (tau~ - sigma') + sigma~ = g sigma, which sigma must divide
    with g in the mode's degree bound. The branch gets sign +1 and
    s = pi - (sigma' - tau~)/2, or sign 0, the collapse, when s and the
    radicand both vanish."""
    if pi.backend != eq.backend:
        raise ValueError("pi backend differs from equation backend")
    if pi.degree > 2:
        raise ValueError("pi must have degree <= 2")
    num = pi * pi + pi * (eq.tau_tilde - eq.sigma.derivative()) + eq.sigma_tilde
    g, rem = num.divrem(eq.sigma)
    if not _is_negligible(rem, num.max_abs(), DIVIDE_REL_TOL):
        raise NoBranchError("prescribed pi does not divide: not a branch")
    if g.degree > (1 if eq.mode == EXTENDED else 0):
        raise NoBranchError("recovered g exceeds the mode's degree bound")
    half = eq.half_gap()
    s = pi - half
    if _vanishes(s) and _vanishes(radicand(eq, g)):
        return PiBranch(g, Poly.zero(eq.backend), half, 0)
    return PiBranch(g, s, pi, 1)


# -- reduction, quantization, prefactor --------------------------------------


def _sigma_bar_terms(eq: NuEquation, pi: Poly):
    """pi^2, pi (tau~ - sigma') and pi' sigma: the terms reduce_branch
    adds to sigma~, in its order. None of them involves sigma~."""
    return (
        pi * pi,
        pi * (eq.tau_tilde - eq.sigma.derivative()),
        pi.derivative() * eq.sigma,
    )


def _reduce(eq: NuEquation, sigma_tilde: Poly, pi: Poly, terms) -> ReducedForm:
    """reduce_branch with this sigma~ in place of eq's."""
    pi_sq, pi_gap, dpi_sigma = terms
    sigma_bar = sigma_tilde + pi_sq + pi_gap + dpi_sigma
    h, rem = sigma_bar.divrem(eq.sigma)
    if not _is_negligible(rem, max(sigma_bar.max_abs(), 1.0), DIVIDE_REL_TOL):
        raise NoBranchError(
            "sigma_bar is not divisible by sigma: inadmissible branch"
        )
    tau = eq.tau_tilde + pi + pi
    max_h = 1 if eq.mode == EXTENDED else 0
    if h.degree > max_h:
        raise NoBranchError("reduced h exceeds the mode's degree bound")
    return ReducedForm(tau, h)


def _on_branch(eq: NuEquation, b: PiBranch) -> NuEquation:
    """The equation in the branch's backend: a float branch of an exact
    equation runs on the equation's float copy."""
    return eq if eq.backend == b.backend else eq.to_float()


def reduce_branch(eq: NuEquation, b: PiBranch) -> ReducedForm:
    """tau = tau~ + 2 pi and h = sigma_bar / sigma, where
    sigma_bar = sigma~ + pi^2 + pi (tau~ - sigma') + pi' sigma.
    A nonzero division remainder marks an inadmissible branch.

    Only the solve path divides; classify takes the form from the branch
    (PiBranch.reduced). In floats, h = g + pi' would move the last bits of
    eigenstates whose residuals sit at the 1e-8 gate."""
    eq = _on_branch(eq, b)
    return _reduce(eq, eq.sigma_tilde, b.pi, _sigma_bar_terms(eq, b.pi))


def quantization(eq: NuEquation, b: PiBranch, n: int) -> QuantizationRelation:
    """Degree-n termination constraints for the reduced equation.

    Extended mode matches h against
    h_n = -(n/2) tau' - (n(n-1)/6) sigma'' + C_n, whose z-slope is
    -n tau[2] - n(n-1) sigma[3]; the constant equation only fixes C_n
    (reported as constant_offset, with the sigma'' term dropped when
    deg sigma <= 2). Classic mode reports lambda_n = -n tau' -
    (n(n-1)/2) sigma'' and the residual h - lambda_n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    eq = _on_branch(eq, b)
    return _quantize(eq.sigma, eq.mode, reduce_branch(eq, b), n)


def _quantize(sigma: Poly, mode, rf: ReducedForm, n: int) -> QuantizationRelation:
    backend = rf.h.backend
    if mode == CLASSIC:
        lam_n = (
            -n * rf.tau.coeff(1)
            - as_scalar(n * (n - 1), backend) * sigma.coeff(2)
        )
        resid = rf.h.coeff(0) - lam_n
        return QuantizationRelation(
            n, CLASSIC, slope_residual=resid, lambda_n=lam_n
        )
    slope = (
        rf.h.coeff(1)
        + as_scalar(n, backend) * rf.tau.coeff(2)
        + as_scalar(n * (n - 1), backend) * sigma.coeff(3)
    )
    c_n = rf.h.coeff(0) + as_scalar(Fraction(n, 2), backend) * rf.tau.coeff(1)
    if sigma.degree == 3:
        c_n = c_n + as_scalar(Fraction(n * (n - 1), 3), backend) * sigma.coeff(2)
    return QuantizationRelation(
        n, EXTENDED, slope_residual=slope, constant_offset=c_n
    )


def phi_factor(eq: NuEquation, b: PiBranch) -> PhiFactor:
    """Prefactor phi with phi'/phi = pi/sigma, as exp of a polynomial
    times powers of (z - root) over the simple roots of sigma."""
    return _prefactor(_on_branch(eq, b).sigma, b.pi)


def _prefactor(sigma: Poly, pi: Poly) -> PhiFactor:
    quot, _ = pi.divrem(sigma)
    exp_part = Poly(
        [0] + [c / (k + 1) for k, c in enumerate(quot.coeffs)], quot.backend)
    roots = sigma.to_float().roots()
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1 :]:
            if abs(r1 - r2) < 1e-8 * max(1.0, abs(r1), abs(r2)):
                raise ValueError(
                    "sigma has a repeated root; prefactor shape out of scope"
                )
    sig_der = sigma.to_float().derivative()
    pi_f = pi.to_float()
    powers = tuple(
        (r, pi_f(r) / sig_der(r)) for r in roots
    )
    return PhiFactor(exp_part, powers)


# -- polynomial solutions -----------------------------------------------------


def _nullspace(rows, backend):
    """Kernel basis of a small matrix (list of rows of `backend` scalars)
    by Gauss-Jordan elimination. An exact pivot is the first nonzero entry
    of its column, a float pivot the one of largest modulus."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if backend == EXACT:
            pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        else:
            pivot = max(range(r, nrows), key=lambda i: abs(mat[i][c]))
            pivot = pivot if mat[pivot][c] else None
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = as_scalar(1, backend) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * bv for a, bv in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [as_scalar(0, backend)] * ncols
        vec[fc] = as_scalar(1, backend)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


def polynomial_solution(eq: NuEquation, b: PiBranch, n: int) -> Poly:
    """Degree-n polynomial solution of sigma y'' + tau y' + h y = 0.

    Assembles the (n+2) x (n+1) coefficient map and extracts its null
    space, which must be one-dimensional with a nonzero top coefficient;
    the monic representative is returned.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    eq = _on_branch(eq, b)
    rf = reduce_branch(eq, b)
    return _null_polynomial(_fixed_map(eq.sigma, rf.tau, n), rf, n)


def _fixed_map(sigma: Poly, tau: Poly, n: int):
    """The coefficient map of sigma y'' + tau y' on degree <= n: the part
    that does not move with the accessory value."""
    return coefficient_map(OdeForm(sigma, tau, Poly.zero(tau.backend)), n)


def _null_polynomial(fixed, rf: ReducedForm, n: int) -> Poly:
    """Monic degree-n null vector of the coefficient map of the reduced
    equation rf, built from `fixed`, its map with h = 0."""
    from .floatkernel import null_vector, with_h

    mat = with_h(fixed, rf.h)
    if rf.h.backend == EXACT:
        kernel = _nullspace(mat, EXACT)
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
        lead = vec[n]
        return Poly([v / lead for v in vec], EXACT)
    svals, vec = null_vector(mat, n)
    # for n = 0 the map is the column h alone, whose one singular value
    # cannot be judged against itself: judge it against the column
    # tau + h z that a degree-1 map would add
    scale = svals[0] if n else max(1.0, rf.tau.max_abs())
    if scale == 0.0:
        raise NoBranchError("coefficient map vanishes; parameters degenerate")
    small = [s for s in svals if s <= 1e-7 * scale]
    if len(small) != 1:
        raise NoBranchError(
            "null space dimension is %d, not 1 (wrong accessory value or "
            "degenerate parameters)" % len(small)
        )
    if vec is None:
        raise NoBranchError(
            "polynomial solution has degree below %d (wrong accessory value)" % n
        )
    # the monomial coefficients of a true eigenpolynomial can span many
    # orders of magnitude, so only a top coefficient that the monic
    # Poly trims away marks a lower degree
    poly = Poly(vec, FLOAT)
    if poly.degree != n:
        raise NoBranchError(
            "polynomial solution has degree below %d (its top coefficient "
            "is below TRIM_REL of its largest)" % n
        )
    return poly


def eigenstates(eq: NuEquation, pi: Poly, n: int, shifts, samples: int = 50):
    """Degree-n eigenstates on the branch with this pi, one for each
    (accessory, sigma~) pair in `shifts`, on the sigma and tau~ of eq.

    The accessory parameter enters only sigma~, as -accessory * sigma,
    so it moves h and nothing else of the branch. So branch_from_pi(eq,
    pi), the terms pi adds to sigma~, the coefficient map of
    sigma y'' + tau y' (h = 0, tau = tau~ + 2 pi), the prefactor and the
    residual contour (`samples` points) are built once. Each state then
    reduces its own sigma~ to h as reduce_branch does, quantizes and
    solves the map with its h for the polynomial, in that order. After
    the last state, one array pass over the stacked polynomials and
    sigma~ gives all residuals (ResidualContour.residuals).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    # a collapsed branch replaces pi by (sigma' - tau~)/2
    pi = branch_from_pi(eq, pi).pi
    terms = _sigma_bar_terms(eq, pi)
    fixed = _fixed_map(eq.sigma, eq.tau_tilde + pi + pi, n)
    phi = _prefactor(eq.sigma, pi)
    psi = eq.psi_ode()
    contour = ResidualContour(psi.p2, psi.p1, phi, samples)
    solved, polys, p0s = [], [], []
    for accessory, sigma_tilde in shifts:
        rf = _reduce(eq, sigma_tilde, pi, terms)
        solved.append((accessory, _quantize(eq.sigma, eq.mode, rf, n)))
        polys.append(_null_polynomial(fixed, rf, n))
        p0s.append(sigma_tilde)
    residuals = contour.residuals(polys, p0s)
    return [Eigenstate(n=n, accessory=accessory, quantization=qr, phi=phi,
                       poly=poly, residual=r)
            for (accessory, qr), poly, r in zip(solved, polys, residuals)]
