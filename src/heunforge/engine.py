"""Reduction engine for equations of hypergeometric type.

An input equation psi'' + (tau~/sigma) psi' + (sigma~/sigma^2) psi = 0 is
reduced by the substitution psi = phi(z) y(z), phi'/phi = pi/sigma, where
pi = (sigma' - tau~)/2 +- sqrt(((sigma' - tau~)/2)^2 - sigma~ + g sigma)

and the polynomial g (a constant k in classic mode, affine in extended
mode) is chosen so the radicand is a perfect square. Each admissible g
yields up to two branches; reduction gives sigma y'' + tau y' + h y = 0
with h = sigma_bar / sigma dividing exactly. Degree bounds:

    classic   deg tau~ <= 1, deg sigma <= 2, deg sigma~ <= 2, g scalar
    extended  deg tau~ <= 2, deg sigma <= 3, deg sigma~ <= 4, g affine

The two modes are one algebraic problem at two degree budgets, the bound
on deg sigma: with budget d, s has degree below d and g degree at most
d - 2. Branch enumeration runs one construction, square roots of B
modulo sigma, at the mode's budget.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from .oracle import OdeForm, ResidualContour, coefficient_map
from .poly import TRIM_REL, Poly
from .scalars import EXACT, FLOAT, RationalComplex, as_scalar, negligible, sqrt_exact

CLASSIC = "classic"
EXTENDED = "extended"

DEDUPE_TOL = 1e-8
DIVIDE_REL_TOL = 1e-10
# float remainders and Taylor coefficients below this (relative) count
# as zero when reading sigma's root multiplicities and B's vanishing order
ZERO_TOL = 1e-9

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
                % (
                    self.mode,
                    b1,
                    b2,
                    b3,
                    self.tau_tilde.degree,
                    self.sigma.degree,
                    self.sigma_tilde.degree,
                )
            )

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


def _validated(eq: NuEquation, branches):
    """Keep branches whose sigma_bar divides by sigma (drops candidates
    that float error pushed off the branch set)."""
    good = []
    for b in branches:
        try:
            reduce_branch(eq, b)
        except ValueError:
            continue
        good.append(b)
    return good


def _dedupe(branches):
    seen = []
    out = []
    for b in branches:
        gf = b.g.to_float()
        key = (complex(gf.coeff(1)), complex(gf.coeff(0)), b.sign)
        norm = max(1.0, abs(key[0]), abs(key[1]))
        dup = False
        for k in seen:
            if (
                k[2] == key[2]
                and abs(k[0] - key[0]) <= DEDUPE_TOL * norm
                and abs(k[1] - key[1]) <= DEDUPE_TOL * norm
            ):
                dup = True
                break
        if not dup:
            seen.append(key)
            out.append(b)
    return out


def _rationalizations(value: complex):
    """Gaussian rationals near value, small denominators first so that
    float noise does not shadow an exact value like 5/7.

    Each part gets every distinct fraction from the denominator ladder
    that lands within 1e-9 (a small denominator can land within it of a
    value it does not equal). A part that no rung fits gets none. A
    larger rung would add fractions for irrational values too, and each
    costs an exact check that fails."""
    parts = []
    for part in (value.real, value.imag):
        exact = Fraction(part)
        fracs = []
        for den in (1, 6, 60, 2520, 10**4, 10**6):
            cand = exact.limit_denominator(den)
            if abs(cand - part) <= 1e-9 * max(1.0, abs(part)) and cand not in fracs:
                fracs.append(cand)
            if cand == exact:  # every larger rung gives it again
                break
        parts.append(fracs)
    return [RationalComplex(re, im) for re, im in product(*parts)]


def _exact_branch(eq: NuEquation, b: PiBranch) -> PiBranch:
    """The exact branch of an exact equation whose pi rationalizes the
    float branch b's pi, or b itself when none does: the first candidate
    pi, in ladder order, that branch_from_pi certifies. Its sign is +1
    when s = pi - (sigma' - tau~)/2 leads with the principal square root
    of its square, else -1 with s negated; a collapse keeps sign 0."""
    for coeffs in product(*(_rationalizations(complex(c)) for c in b.pi.coeffs)):
        try:
            cand = branch_from_pi(eq, Poly(coeffs, EXACT))
        except NoBranchError:
            continue
        if cand.sign:
            lead = cand.s.leading()
            if sqrt_exact(lead * lead) != lead:
                cand = replace(cand, s=-cand.s, sign=-1)
        return cand
    return b


def _sigma_points(sigma: Poly, budget: int):
    """Roots of sigma as (centre, multiplicity) over the projective line,
    so the multiplicities add up to the degree budget (3 in extended
    mode, 2 in classic) and at most one exceeds 1. When deg sigma is
    below the budget the point at infinity (centre None) comes first.

    A repeated root is read off gcd(sigma, sigma'), so its centre is
    exact when sigma is; a square-free sigma's roots come from
    Poly.roots, and for an exact sigma each becomes the first of its
    rationalizations at which sigma is exactly zero and that no earlier
    root took, if one is (two close roots can share a candidate)."""
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
        roots = []
        for r in sigma.roots():
            if sigma.backend == EXACT:
                r = next((c for c in _rationalizations(r)
                          if not sigma(c) and c not in roots), r)
            roots.append(r)
        return points + [(r, 1) for r in roots]
    # common is c' (z - c)^k: its next-to-top coefficient over its top is -k c
    centre = -common.coeff(k - 1) / (common.leading() * k)
    points.append((centre, k + 1))
    rest, _ = sigma.divrem(common.monic() * Poly([-centre, 1], sigma.backend))
    if rest.degree == 1:
        points.append((-rest.coeff(0) / rest.coeff(1), 1))
    return points


def _local_sqrt(taylor, mult, noise):
    """First `mult` Taylor coefficients of a square root of the series
    sum taylor[k] t^k, by Hensel lifting; None when none exists. A
    taylor[0] within `noise`, its rounding error, counts as zero.

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
    root = [cmath.sqrt(0 if negligible(taylor[0], noise) else complex(taylor[0]))]
    for k in range(1, mult):
        acc = complex(taylor[k]) - sum(root[i] * root[k - i] for i in range(1, k))
        root.append(acc / (2 * root[0]))
    return root


def _hermite_row(centre, k, budget):
    """Coefficients mapping s = s0 + s1 z + ... + s_{budget-1} z^(budget-1)
    to its k-th Taylor coefficient at centre (of w^(budget-1) s(1/w) at
    w = 0 for infinity)."""
    if centre is None:
        return [1.0 if j == budget - 1 - k else 0.0 for j in range(budget)]
    c = complex(centre)
    return [comb(j, k) * c ** (j - k) if j >= k else 0.0 for j in range(budget)]


def _sqrt_mod_sigma_candidates(eq: NuEquation, scale):
    """(g, s) pairs with s^2 = B + g sigma, B = ((sigma' - tau~)/2)^2 - sigma~.

    With the mode's degree budget (the bound on deg sigma), such an s
    (deg s < budget) solves s^2 = B mod sigma with
    deg(s^2 - B) <= deg sigma + budget - 2. On the projective line both
    are local conditions: at each point of sigma, infinity included, s
    matches a square root of B to the point's multiplicity. So sqrt(B) is
    lifted at each point and the pieces are joined by one Hermite
    interpolation per sign pattern; the first sign is fixed, as -s gives
    the same g. When sigma divides B, sqrt(B) is 0 at every simple root,
    so the interpolation gives s = 0 and the g of the zero radicand."""
    budget = _DEGREE_BOUNDS[eq.mode][1]
    half = eq.half_gap()
    bpoly = half * half - eq.sigma_tilde
    bpoly_f = bpoly.to_float()
    points = _sigma_points(eq.sigma, budget)
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
                # B(centre) within the shift's rounding bound gamma_2d |B|(|centre|),
                # d = deg B (Higham, Accuracy and Stability, eq. 5.3), is zero
                terms = sum(abs(c) * abs(centre) ** k for k, c in enumerate(bpoly_f.coeffs))
                noise = sys.float_info.epsilon * bpoly_f.degree * terms
        roots.append(_local_sqrt(taylor, mult, noise))
    if None in roots:
        return []
    mat = np.array([_hermite_row(c, k, budget) for c, m in points for k in range(m)])
    sig_f = eq.sigma.to_float()
    out = []
    for tail in product((1, -1), repeat=len(points) - 1):
        rhs = [e * v for e, root in zip((1,) + tail, roots) for v in root]
        s = Poly([complex(v) for v in np.linalg.solve(mat, rhs)], FLOAT)
        g, rem = (s * s - bpoly_f).divrem(sig_f)
        if g.degree <= budget - 2 and rem.max_abs() <= 1e-7 * max(
                scale, 1.0, (s * s).max_abs()):
            out.append((g, s))
    return out


def enumerate_branches(eq: NuEquation):
    """All admissible (g, pi) branches of the equation.

    Both modes solve one problem at the mode's degree budget, the bound
    on deg sigma (3 extended, 2 classic): every branch square root s
    solves s^2 = B mod sigma with B = ((sigma' - tau~)/2)^2 - sigma~,
    deg s below the budget and g = (s^2 - B)/sigma of degree at most
    budget - 2. The candidates are built by Hensel lifting sqrt(B) at
    each root of sigma (and at infinity when deg sigma is below the
    budget) and joining the pieces by Hermite interpolation; this also
    finds the g that makes the radicand vanish identically. A repeated
    root where B vanishes gives no branch (odd vanishing order below the
    multiplicity) or raises NoBranchError (a continuum of branches).
    Each candidate (g, s) gives the branches pi = (sigma' - tau~)/2 +- s,
    or the one collapse branch with sign 0 when its radicand vanishes.
    Results are validated by division of sigma_bar and deduplicated at
    1e-8. An exact equation gets an exact branch wherever a float
    branch's pi rationalizes to one that branch_from_pi certifies.
    """
    gap = eq.half_gap().to_float()
    scale = max(1.0, (gap * gap - eq.sigma_tilde.to_float()).max_abs())
    eq_f = eq.to_float()
    half = eq_f.half_gap()
    branches = []
    for g, s in _sqrt_mod_sigma_candidates(eq, scale):
        if _is_negligible(radicand(eq_f, g), scale, 1e-9):
            branches.append(PiBranch(g, Poly.zero(FLOAT), half, 0))
            continue
        for sign, pi in ((1, half + s), (-1, half - s)):
            if pi.degree <= 2:
                branches.append(PiBranch(g, s, pi, sign))
    branches = _dedupe(_validated(eq_f, branches))
    if eq.backend == EXACT:
        branches = [_exact_branch(eq, b) for b in branches]
    return branches


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
    A nonzero division remainder marks an inadmissible branch."""
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


def _nullspace_exact(rows):
    """Kernel basis of a small exact matrix (list of RationalComplex
    rows) by Gauss-Jordan elimination."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = as_scalar(1, EXACT) / mat[r][c]
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
        vec = [as_scalar(0, EXACT)] * ncols
        vec[fc] = as_scalar(1, EXACT)
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
    fixed = _fixed_map(eq.sigma, rf.tau, n)
    return _null_polynomial(_with_h(fixed, rf.h), rf, n)


def _fixed_map(sigma: Poly, tau: Poly, n: int):
    """The coefficient map of sigma y'' + tau y' on degree <= n: the part
    that does not move with the accessory value."""
    return coefficient_map(OdeForm(sigma, tau, Poly.zero(tau.backend)), n)


def _with_h(fixed, h: Poly):
    """The coefficient map of sigma y'' + tau y' + h y from `fixed`, the
    map with h = 0: h adds h[0] on the diagonal and h[1] below it. In
    floats, a column's top entry at or below TRIM_REL of the column's
    largest counts as zero, as in the column's trimmed Poly."""
    out = fixed.copy()
    cols = np.arange(out.shape[1])
    out[cols, cols] += h.coeff(0)
    out[cols + 1, cols] += h.coeff(1)
    if out.dtype == complex:
        top = out[cols + 1, cols]
        small = np.abs(top) <= TRIM_REL * np.abs(out).max(axis=0)
        out[cols + 1, cols] = np.where(small, 0j, top)
    return out


def _null_polynomial(mat, rf: ReducedForm, n: int) -> Poly:
    """Monic degree-n null vector of the coefficient map `mat` of the
    reduced equation rf."""
    if rf.h.backend == EXACT:
        kernel = _nullspace_exact(mat)
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
    _, svals, vh = np.linalg.svd(mat)
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
    vec = np.conj(vh[-1])
    if vec[n] == 0:
        raise NoBranchError(
            "polynomial solution has degree below %d (wrong accessory value)" % n
        )
    # the monomial coefficients of a true eigenpolynomial can span many
    # orders of magnitude, so only a top coefficient that the monic
    # Poly trims away marks a lower degree
    poly = Poly([complex(v) for v in vec / vec[n]], FLOAT)
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
    states, p0s = [], []
    for accessory, sigma_tilde in shifts:
        rf = _reduce(eq, sigma_tilde, pi, terms)
        qr = _quantize(eq.sigma, eq.mode, rf, n)
        poly = _null_polynomial(_with_h(fixed, rf.h), rf, n)
        p0s.append(sigma_tilde)
        states.append(Eigenstate(
            n=n, accessory=accessory, quantization=qr, phi=phi, poly=poly))
    residuals = contour.residuals([s.poly for s in states], p0s)
    return [replace(s, residual=r) for s, r in zip(states, residuals)]
