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
on deg sigma. Branch enumeration runs one construction, square roots of
B modulo sigma, at the mode's budget. Its machinery, with the exactness
rule and the root kernel of an exact sigma, is `branches.py`, which
enumerate_branches loads on its first call: a solve takes its branch
from the class catalog (branch_from_pi) and never loads it.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction

from .oracle import (OdeFamily, OdeForm, ResidualContour, cached_by_bits, coefficient_map,
                     record)
from .poly import Poly, _sum, _trim, float_kernel
from .scalars import EXACT, _mul_add, as_scalar

CLASSIC = "classic"
EXTENDED = "extended"

DEDUPE_TOL = 1e-8
DIVIDE_REL_TOL = 1e-10
# float remainders and Taylor coefficients below this (relative) count
# as zero when reading sigma's root multiplicities and B's vanishing order
ZERO_TOL = 1e-9
# the exactness rule's Newton iterates are Gaussian dyadics on a grid of
# 2^-GRID_BITS, finer for a value that starts below 1 in size (branches._refine)
GRID_BITS = 128

_DEGREE_BOUNDS = {CLASSIC: (1, 2, 2), EXTENDED: (2, 3, 4)}


class NoBranchError(ValueError):
    """No admissible branch (or accessory value) exists for the input."""


class NuEquation(record("NuEquation", "tau_tilde sigma sigma_tilde mode")):
    """Equation psi'' + (tau~/sigma) psi' + (sigma~/sigma^2) psi = 0."""

    def __new__(cls, tau_tilde: Poly, sigma: Poly, sigma_tilde: Poly, mode: str = EXTENDED):
        if mode not in _DEGREE_BOUNDS:
            raise ValueError("mode must be %r or %r" % (CLASSIC, EXTENDED))
        if not (tau_tilde.backend == sigma.backend == sigma_tilde.backend):
            raise ValueError("equation polynomials must share one backend")
        if sigma.is_zero:
            raise ValueError("sigma must be nonzero")
        b1, b2, b3 = _DEGREE_BOUNDS[mode]
        if tau_tilde.degree > b1 or sigma.degree > b2 or sigma_tilde.degree > b3:
            raise ValueError(
                "degree bounds for %s mode are (%d, %d, %d); got (%d, %d, %d)"
                % (mode, b1, b2, b3, tau_tilde.degree, sigma.degree, sigma_tilde.degree))
        return tuple.__new__(cls, (tau_tilde, sigma, sigma_tilde, mode))

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

    @cached_property
    def _float_copy(self) -> "NuEquation":
        """to_float(), built once: every float branch of an exact equation
        runs on it (_on_branch), and so does its float half gap."""
        return self.to_float()

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


class PiBranch(record("PiBranch", "g s pi sign")):
    """One admissible branch: pi = (sigma' - tau~)/2 + sign * s with
    radicand(g) = s^2. sign 0 marks the degenerate collapse (radicand
    identically zero). branch_from_pi gives a prescribed pi sign +1, or
    0 when it collapses."""

    __slots__ = ()

    @property
    def backend(self):
        return self.pi.backend

    def reduced(self, eq: NuEquation) -> "ReducedForm":
        """reduce_branch's form with no division: sigma_bar = s^2 - B +
        pi' sigma = (g + pi') sigma, so tau = tau~ + 2 pi and h = g + pi',
        in the degree bound as deg g <= budget - 2 and deg pi < budget."""
        tau_tilde = _on_branch(eq, self).tau_tilde
        return ReducedForm(tau_tilde + self.pi + self.pi, self.g + self.pi.derivative())


class ReducedForm(record("ReducedForm", "tau h")):
    """Coefficients of the reduced equation sigma y'' + tau y' + h y = 0.
    In classic mode h is the constant eigenvalue term."""

    __slots__ = ()

    def ode(self, eq: NuEquation) -> OdeForm:
        return OdeForm(eq.sigma, self.tau, self.h)


class QuantizationRelation(record("QuantizationRelation",
                                  "n mode slope_residual constant_offset lambda_n",
                                  defaults=(None, None))):
    """Degree-n termination constraints read off h = h_n.

    Extended mode: slope_residual is the z-coefficient mismatch
    h[1] + n tau[2] + n(n-1) sigma[3] (zero exactly when a degree-n
    polynomial solution is possible) and constant_offset is the implied
    integration constant C_n. Classic mode: lambda_n is the eigenvalue
    -n tau' - n(n-1)/2 sigma'' and slope_residual is h - lambda_n.
    """

    __slots__ = ()


class PhiFactor(record("PhiFactor", "exp_part powers")):
    """Prefactor phi = exp(exp_part) * prod (z - root)^exponent with
    phi'/phi = pi/sigma."""

    __slots__ = ()


class Eigenstate(record("Eigenstate", "n accessory quantization phi poly residual",
                        defaults=(None,))):
    """A degree-n polynomial solution with its prefactor and checks."""

    __slots__ = ()


# -- branch enumeration -------------------------------------------------------


def _repeated_part(sigma: Poly) -> Poly:
    """gcd(sigma, sigma') by Euclid, of degree 0 when every root of sigma
    is simple; a float remainder below ZERO_TOL of its divisor is zero."""
    common, rem = sigma, sigma.derivative()
    while not rem.is_zero:
        common, rem = rem, common.divrem(rem)[1]
        if rem.negligible(ZERO_TOL, common):
            rem = Poly.zero(rem.backend)
    return common


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
    The construction lives in `branches`, loaded on the first call.
    """
    from .branches import _dedupe, _sigma_points, _signed, _sqrt_mod_sigma_candidates

    points = _sigma_points(eq.sigma, _DEGREE_BOUNDS[eq.mode][1])
    branches, halves = [], {eq.backend: eq.half_gap()}
    for g, s, collapse in _sqrt_mod_sigma_candidates(eq, points, halves[eq.backend]):
        if g.backend not in halves:
            halves[g.backend] = eq._float_copy.half_gap()
        half = halves[g.backend]
        if collapse:
            branches.append(PiBranch(g, Poly.zero(g.backend), half, 0))
        else:
            branches += [PiBranch(g, s, half + s, 1), PiBranch(g, s, half - s, -1)]
    return [_signed(b) for b in _dedupe(branches)]


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
    if not rem.negligible(DIVIDE_REL_TOL, num):
        raise NoBranchError("prescribed pi does not divide: not a branch")
    if g.degree > (1 if eq.mode == EXTENDED else 0):
        raise NoBranchError("recovered g exceeds the mode's degree bound")
    half = eq.half_gap()
    s = pi - half
    if s.negligible(1e-14) and radicand(eq, g).negligible(1e-14):
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


def _reduce(eq: NuEquation, sigma_tilde: Poly, tau: Poly, terms) -> ReducedForm:
    """reduce_branch with this sigma~ in place of eq's, and tau given;
    sigma_bar is summed on coefficient lists, trimmed as the Poly sum is."""
    pi_sq, pi_gap, dpi_sigma = terms
    backend = eq.backend
    partial = _trim(_sum(sigma_tilde.coeffs, pi_sq.coeffs, backend), backend)
    partial = _trim(_sum(partial, pi_gap.coeffs, backend), backend)
    sigma_bar = Poly._make(_sum(partial, dpi_sigma.coeffs, backend), backend)
    h, rem = sigma_bar.divrem(eq.sigma)
    if not rem.negligible(DIVIDE_REL_TOL, sigma_bar):
        raise NoBranchError(
            "sigma_bar is not divisible by sigma: inadmissible branch"
        )
    return _bounded(eq, ReducedForm(tau, h))


def _bounded(eq: NuEquation, rf: ReducedForm) -> ReducedForm:
    """rf, refused when its h exceeds the mode's degree bound."""
    if rf.h.degree > (1 if eq.mode == EXTENDED else 0):
        raise NoBranchError("reduced h exceeds the mode's degree bound")
    return rf


def _on_branch(eq: NuEquation, b: PiBranch) -> NuEquation:
    """The equation in the branch's backend: a float branch of an exact
    equation runs on the equation's one float copy."""
    return eq if eq.backend == b.backend else eq._float_copy


def reduce_branch(eq: NuEquation, b: PiBranch) -> ReducedForm:
    """tau = tau~ + 2 pi and h = sigma_bar / sigma, where
    sigma_bar = sigma~ + pi^2 + pi (tau~ - sigma') + pi' sigma.
    A nonzero division remainder marks an inadmissible branch.

    Only float solves divide; classify and exact solve setups take the
    form from the branch (PiBranch.reduced). In floats, h = g + pi' would
    move the last bits of eigenstates whose residuals sit at the 1e-8 gate."""
    eq = _on_branch(eq, b)
    return _reduce(eq, eq.sigma_tilde, eq.tau_tilde + b.pi + b.pi,
                   _sigma_bar_terms(eq, b.pi))


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
    rf = reduce_branch(eq, b)
    return _quantizer(eq.sigma, eq.mode, rf.tau, n)(rf.h)


def _quantizer(sigma: Poly, mode, tau: Poly, n: int):
    """quantization's relation as a function of h: the products without h
    are taken once per sigma, tau and n."""
    backend = tau.backend
    if mode == CLASSIC:
        lam_n = -n * tau.coeff(1) - as_scalar(n * (n - 1), backend) * sigma.coeff(2)
        return lambda h: QuantizationRelation(n, CLASSIC, h.coeff(0) - lam_n, lambda_n=lam_n)
    slope = as_scalar(n, backend) * tau.coeff(2), as_scalar(n * (n - 1), backend) * sigma.coeff(3)
    offset = [as_scalar(Fraction(n, 2), backend) * tau.coeff(1)]
    if sigma.degree == 3:
        offset.append(as_scalar(Fraction(n * (n - 1), 3), backend) * sigma.coeff(2))

    def relation(h):
        c_n = h.coeff(0)
        for term in offset:
            c_n = c_n + term
        return QuantizationRelation(n, EXTENDED, h.coeff(1) + slope[0] + slope[1], c_n)

    return relation


def phi_factor(eq: NuEquation, b: PiBranch) -> PhiFactor:
    """Prefactor phi with phi'/phi = pi/sigma, as exp of a polynomial
    times powers of (z - root) over the simple roots of sigma."""
    return _prefactor(_on_branch(eq, b).sigma, b.pi)


_REPEATED_ROOT = "sigma has a repeated root; prefactor shape out of scope"


def _prefactor(sigma: Poly, pi: Poly) -> PhiFactor:
    # an exact sigma's repeated root is exact, where its float copy's
    # companion roots may split it past _simple_roots' gap
    if sigma.backend == EXACT and _repeated_part(sigma).degree:
        raise ValueError(_REPEATED_ROOT)
    quot, _ = pi.divrem(sigma)
    exp_part = Poly(
        [0] + [c / (k + 1) for k, c in enumerate(quot.coeffs)], quot.backend)
    pi_f = pi.to_float()
    powers = tuple((r, pi_f(r) / der) for r, der in _simple_roots(sigma.to_float()))
    return PhiFactor(exp_part, powers)


@cached_by_bits
def _simple_roots(sigma: Poly):
    """(root, sigma'(root)) over the roots of a float sigma, all simple."""
    roots = sigma.roots()
    if any(abs(r1 - r2) < 1e-8 * max(1.0, abs(r1), abs(r2))
           for i, r1 in enumerate(roots) for r2 in roots[i + 1:]):
        raise ValueError(_REPEATED_ROOT)
    sig_der = sigma.derivative()
    return tuple((r, sig_der(r)) for r in roots)


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
                factor, neg, pairs = mat[i][c], -mat[i][c], zip(mat[i], mat[r])
                mat[i] = ([_mul_add(neg, bv, a) if bv else a for a, bv in pairs]
                          if backend == EXACT else [a - factor * bv for a, bv in pairs])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
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
    mat = float_kernel().with_h(fixed, rf.h)
    if rf.h.backend == EXACT:
        kernel = _nullspace(mat, EXACT)
        dim, top = len(kernel), kernel[0][n] if kernel else 0
        vec = [v / top for v in kernel[0]] if top else None
    else:
        svals, vec = float_kernel().null_vector(mat, n)
        # for n = 0 the map is the column h alone, whose one singular value
        # cannot be judged against itself: judge it against the column
        # tau + h z that a degree-1 map would add
        scale = svals[0] if n else max(1.0, rf.tau.max_abs())
        if scale == 0.0:
            raise NoBranchError("coefficient map vanishes; parameters degenerate")
        dim = sum(s <= 1e-7 * scale for s in svals)
    if dim != 1:
        raise NoBranchError(
            "null space dimension is %d, not 1 (wrong accessory value or "
            "degenerate parameters)" % dim
        )
    if vec is None:
        raise NoBranchError(
            "polynomial solution has degree below %d (wrong accessory value)" % n
        )
    # the monomial coefficients of a true eigenpolynomial can span many
    # orders of magnitude, so only a top coefficient that the monic
    # Poly trims away marks a lower degree
    poly = Poly._make(vec, rf.h.backend)
    if poly.degree != n:
        raise NoBranchError(
            "polynomial solution has degree below %d (its top coefficient "
            "is below TRIM_REL of its largest)" % n
        )
    return poly


class BranchSetup:
    """What every accessory value shares on the branch with this pi: the
    accessory enters only sigma~, as -accessory * sigma, and moves only h.
    So branch_from_pi(eq, pi) is kept as `branch`, and tau = tau~ + 2 pi,
    the terms pi adds to sigma~ and the accessory `family` are built once,
    on first use."""

    def __init__(self, eq: NuEquation, pi: Poly):
        # a collapsed branch replaces pi by (sigma' - tau~)/2
        self.eq, self.branch = eq, branch_from_pi(eq, pi)

    @cached_property
    def tau(self) -> Poly:
        return self.eq.tau_tilde + self.branch.pi + self.branch.pi

    @cached_property
    def terms(self):
        return _sigma_bar_terms(self.eq, self.branch.pi)

    @cached_property
    def family(self) -> OdeFamily:
        """The reduced equation for y in t: eq at t = 0, sigma~ - t sigma.
        Exact, it is PiBranch.reduced, since branch_from_pi found sigma_bar
        = (g + pi') sigma with no remainder; float, it divides."""
        eq = self.eq
        rf = (_bounded(eq, self.branch.reduced(eq)) if eq.backend == EXACT
              else _reduce(eq, eq.sigma_tilde, self.tau, self.terms))
        return OdeFamily(rf.ode(eq), Poly.constant(as_scalar(-1, eq.backend), eq.backend))

    def states(self, n: int, shifts):
        """Degree-n eigenstates, one per (accessory, sigma~) pair in `shifts`,
        on one map of sigma y'' + tau y' (h = 0), prefactor and contour: each
        state reduces its sigma~ to h as reduce_branch does, quantizes and
        solves the map with its h; one array pass gives all residuals."""
        eq, pi, terms, tau = self.eq, self.branch.pi, self.terms, self.tau
        fixed = _fixed_map(eq.sigma, tau, n)
        quantize = _quantizer(eq.sigma, eq.mode, tau, n)
        phi = _prefactor(eq.sigma, pi)
        psi = eq.psi_ode()
        contour = ResidualContour(psi.p2, psi.p1, phi)
        solved, polys, p0s = [], [], []
        for accessory, sigma_tilde in shifts:
            rf = _reduce(eq, sigma_tilde, tau, terms)
            solved.append((accessory, quantize(rf.h)))
            polys.append(_null_polynomial(fixed, rf, n))
            p0s.append(sigma_tilde)
        residuals = contour.residuals(polys, p0s)
        return [Eigenstate(n=n, accessory=accessory, quantization=qr, phi=phi,
                           poly=poly, residual=r)
                for (accessory, qr), poly, r in zip(solved, polys, residuals)]
