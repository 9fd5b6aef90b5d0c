"""Frobenius-series oracle.

Everything here works directly from an ODE in polynomial-coefficient
form, P2 w'' + P1 w' + P0 w = 0, with no knowledge of how the closed
forms elsewhere in the package were produced. It powers four jobs:

* power-series recurrences about ordinary or regular singular points,
* the matrix of the operator on polynomials of degree <= n, whose
  eigenvalues are the accessory values admitting a degree-n solution,
* the exact truncation condition c_{n+1}(t) of the series, a polynomial
  in the unknown accessory value, kept as a reference for those values,
* residual checks of assembled eigenfunctions on a deterministic
  contour.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .poly import Poly
from .scalars import FLOAT, as_scalar, negligible

TERMINATION_TOL = 1e-8
INDICIAL_TOL = 1e-9


@dataclass(frozen=True)
class OdeForm:
    """Second-order ODE with polynomial coefficients:
    p2 w'' + p1 w' + p0 w = 0."""

    p2: Poly
    p1: Poly
    p0: Poly

    def __post_init__(self):
        if not (self.p2.backend == self.p1.backend == self.p0.backend):
            raise ValueError("OdeForm coefficients must share one backend")
        if self.p2.is_zero:
            raise ValueError("p2 must be nonzero for a second-order equation")

    @property
    def backend(self):
        return self.p2.backend

    def to_float(self) -> "OdeForm":
        return OdeForm(self.p2.to_float(), self.p1.to_float(), self.p0.to_float())


@dataclass(frozen=True)
class OdeFamily:
    """ODE whose zeroth-order coefficient depends affinely on one
    unknown scalar t: P0(t) = base.p0 + t * p0_dir."""

    base: OdeForm
    p0_dir: Poly

    def __post_init__(self):
        if self.p0_dir.backend != self.base.backend:
            raise ValueError("direction backend differs from base")

    def at(self, t) -> OdeForm:
        return OdeForm(
            self.base.p2, self.base.p1, self.base.p0 + self.p0_dir * t
        )


@dataclass(frozen=True)
class Recurrence:
    """Banded coefficient recurrence for w = sum c_j (z-z0)^(j+rho).

    bands[i] is a polynomial G_i(s) in the index variable; equation m
    (m >= 0) reads sum_i G_i(m - i + rho) c_{m-i} = 0, so

        c_m = -(sum_{i>=1} G_i(m-i+rho) c_{m-i}) / G_0(m+rho).
    """

    point: object
    exponent: object
    bands: tuple
    backend: str


def _bands(ode: OdeForm, point):
    """Band polynomials F_r(s) = a_r s(s-1) + b_{r-1} s + d_{r-2} of the
    operator, where a, b and d are the coefficients of p2, p1 and p0
    shifted to the expansion point."""
    backend = ode.backend
    p2s, p1s, p0s = (p.shift(point) for p in (ode.p2, ode.p1, ode.p0))
    s = Poly.x(backend)
    s_sq = s * s - s
    top = max(p2s.degree, p1s.degree + 1, p0s.degree + 2)
    out = []
    for r in range(top + 1):
        band = s_sq * p2s.coeff(r) + s * (p1s.coeff(r - 1) if r >= 1 else 0)
        if r >= 2:
            band = band + Poly.constant(p0s.coeff(r - 2), backend)
        out.append(band)
    return out


def _recurrence(bands, point, exponent, backend) -> Recurrence:
    """Recurrence from the full band list: the leading band must be
    quadratic in the index (an irregular singular point makes it degree
    <= 1, which is rejected), and the exponent must be a root of it."""
    r_star = next((r for r, b in enumerate(bands) if not b.is_zero), None)
    if r_star is None:  # pragma: no cover - p2 nonzero forbids this
        raise ValueError("all recurrence bands vanish")
    lead = bands[r_star]
    if lead.degree != 2:
        raise ValueError(
            "expansion point is an irregular singular point "
            "(leading band has degree %d in the index)" % lead.degree
        )
    if not negligible(lead(exponent), INDICIAL_TOL * max(lead.max_abs(), 1.0)):
        raise ValueError("exponent %s is not an indicial root" % (exponent,))
    return Recurrence(point, exponent, tuple(bands[r_star:]), backend)


def frobenius_recurrence(ode: OdeForm, point, exponent) -> Recurrence:
    """Build the coefficient recurrence about an ordinary or regular
    singular point.

    The leading band must be quadratic in the index (an irregular
    singular point makes it degree <= 1, which is rejected), and the
    supplied exponent must be a root of it.
    """
    backend = ode.backend
    point = as_scalar(point, backend)
    exponent = as_scalar(exponent, backend)
    return _recurrence(_bands(ode, point), point, exponent, backend)


def _leading_factors(rec: Recurrence, count: int):
    """(m, G_0(m+rho)) for m = 1..count-1. Raises on reaching an m where
    the factor vanishes (indicial roots separated by an integer, the
    logarithmic case)."""
    lead = rec.bands[0]
    bound = 1e-14 * max(lead.max_abs(), 1.0)
    for m in range(1, count):
        den = lead(rec.exponent + m)
        if negligible(den, bound):
            raise ValueError(
                "indicial collision: leading recurrence factor vanishes at "
                "index %d" % m
            )
        yield m, den


def series_coeffs(rec: Recurrence, seed, count: int):
    """First `count` series coefficients c_0..c_{count-1} from the
    recurrence, c_0 = seed.

    Raises if the leading factor G_0(m+rho) vanishes at some m >= 1
    (indicial roots separated by an integer, the logarithmic case)."""
    backend = rec.backend
    coeffs = [as_scalar(seed, backend)]
    for m, den in _leading_factors(rec, count):
        acc = as_scalar(0, backend)
        for i in range(1, len(rec.bands)):
            if m - i < 0:
                break
            acc = acc + rec.bands[i](rec.exponent + (m - i)) * coeffs[m - i]
        coeffs.append(-acc / den)
    return coeffs


def termination_polynomial(family: OdeFamily, n: int) -> Poly:
    """c_{n+1} as a polynomial in the unknown accessory scalar, for the
    series with exponent 0 at z = 0.

    The unknown must enter the recurrence affinely and must not touch
    the leading band (else c_j would be rational, not polynomial, in it).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    backend = family.base.backend
    zero = as_scalar(0, backend)
    dirs = family.p0_dir
    base_bands = _bands(family.base, zero)
    top = max(len(base_bands) - 1, dirs.degree + 2)
    while len(base_bands) < top + 1:
        base_bands.append(Poly.zero(backend))
    r_star = next(
        (r for r, band in enumerate(base_bands) if not band.is_zero), top + 1
    )
    # the unknown times dirs.coeff(r - 2) joins band r (see _bands)
    if any(dirs.coeff(r - 2) for r in range(r_star + 1)):
        raise ValueError(
            "unknown enters the leading recurrence band; the termination "
            "condition would not be polynomial in it"
        )
    rec = _recurrence(base_bands, zero, zero, backend)
    bands = rec.bands
    dir_consts = [dirs.coeff(r_star + i - 2) for i in range(len(bands))]
    # series coefficients as polynomials in the unknown t
    coeffs = [Poly.one(backend)]
    t_poly = Poly.x(backend)
    for m, den in _leading_factors(rec, n + 2):
        acc = Poly.zero(backend)
        for i in range(1, len(bands)):
            if m - i < 0:
                break
            gi = bands[i](m - i)
            acc = acc + coeffs[m - i] * gi
            if dir_consts[i]:
                acc = acc + coeffs[m - i] * t_poly * dir_consts[i]
        coeffs.append(acc * (as_scalar(-1, backend) / den))
    return coeffs[n + 1]


def coefficient_map(ode: OdeForm, n: int):
    """Matrix of w -> p2 w'' + p1 w' + p0 w on 1, z, ..., z^n, with rows
    for z^0..z^(n+1): entry [k, j] is the z^k coefficient of the image
    of z^j, (j(j-1) p2[k-j+2] + j p1[k-j+1]) + p0[k-j], summed in that
    order. A complex array in the float backend, an object array of
    RationalComplex in the exact one.

    The operator may raise degrees by at most one (deg p2 <= 3,
    deg p1 <= 2, deg p0 <= 1), as every reduced equation
    sigma y'' + tau y' + h y = 0 of the engine does."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if ode.p2.degree > 3 or ode.p1.degree > 2 or ode.p0.degree > 1:
        raise ValueError("the operator raises degrees by more than one")
    backend = ode.backend
    dtype = complex if backend == FLOAT else object
    out = np.full((n + 2, n + 1), as_scalar(0, backend), dtype=dtype)
    p2, p1, p0 = ode.p2.coeff, ode.p1.coeff, ode.p0.coeff
    for j in range(n + 1):
        d2 = as_scalar(j * (j - 1), backend)
        d1 = as_scalar(j, backend)
        for k in range(max(j - 2, 0), j + 2):
            out[k, j] = (p2(k - j + 2) * d2 + p1(k - j + 1) * d1) + p0(k - j)
    return out


def termination_solve(family: OdeFamily, n: int):
    """Accessory values t at which the family has a nonzero polynomial
    solution of degree at most n, as complex numbers in ascending order
    of real part, then imaginary part.

    The direction must be a nonzero constant d. Then t moves only the
    diagonal of the coefficient map, by t d, so the values are
    t = -lambda/d over the eigenvalues lambda of the map's square block
    (rows 0..n) at t = 0. The z^(n+1) row does not move with t: when it
    is not negligible against the map, no value exists. Each eigenpair
    is kept when its backward error on all n+2 rows is at most
    TERMINATION_TOL.
    """
    if family.p0_dir.degree != 0:
        raise ValueError("the accessory direction must be a nonzero constant")
    mat = coefficient_map(family.base.to_float(), n)
    # checked on mat / unit, exact for a power of two, so no norm overflows
    unit = 2.0 ** math.frexp(max(np.abs(mat).max(), 1.0))[1]
    scaled = mat / unit
    scale = np.linalg.norm(scaled)
    if abs(scaled[n + 1, n]) > TERMINATION_TOL * scale:
        return []
    lams, vecs = np.linalg.eig(mat[: n + 1])
    resid = scaled @ vecs
    resid[: n + 1] -= vecs * (lams / unit)
    errors = np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)
    d = complex(family.p0_dir.coeff(0))
    values = [
        complex(-lam / d)
        for lam, err in zip(lams, errors)
        if err <= TERMINATION_TOL * scale
    ]
    return sorted(values, key=lambda t: (t.real, t.imag))


# -- residual check ----------------------------------------------------------

CONTOUR_CENTER = 0.5
CONTOUR_RADIUS = 0.45
CONTOUR_CLEARANCE = 0.1


def residual_contour(p2: Poly, samples: int = 50):
    """Deterministic sample points: a circle of radius 0.45 about 0.5,
    with any point closer than 0.1 to a root of p2 pushed radially away
    from that root out to the clearance distance."""
    sing = p2.to_float().roots() if p2.degree >= 1 else []
    points = []
    for k in range(samples):
        z = CONTOUR_CENTER + CONTOUR_RADIUS * cmath.exp(2j * math.pi * k / samples)
        for _ in range(4):
            offender = next(
                (s for s in sing if abs(z - s) < CONTOUR_CLEARANCE), None
            )
            if offender is None:
                break
            gap = z - offender
            if abs(gap) == 0.0:
                gap = cmath.exp(2j * math.pi * k / samples)
            z = offender + CONTOUR_CLEARANCE * gap / abs(gap)
        else:
            continue
        points.append(z)
    if not points:
        raise ValueError("every sample point sits too close to a singularity")
    return points


class ResidualContour:
    """The residual check's sample contour for one p2, p1 and prefactor
    phi (None for none), shared by the eigenstates of one equation since
    only p0 moves with the accessory. At each point it keeps z, p2(z),
    p1(z) and phi's log-derivative terms (L, 2L, L^2 + L'), computed in
    Python complex numbers and stored as (real, imaginary) float64 array
    pairs for the array pass of `residuals`."""

    def __init__(self, p2: Poly, p1: Poly, phi=None, samples: int = 50):
        p2f, p1f = p2.to_float(), p1.to_float()
        points = residual_contour(p2f, samples)
        self.z = _split(points)
        self.p2 = _split([p2f(z) for z in points])
        self.p1 = _split([p1f(z) for z in points])
        self.logd = None
        if phi is None:
            return
        # L = d/dz log(phi) = e' + sum expo / (z - root), e the exp part
        de = phi.exp_part.to_float().derivative()
        dde = de.derivative()
        powers = [(complex(root), complex(expo)) for root, expo in phi.powers]
        logds = []
        for z in points:
            lval, lder = de(z), dde(z)
            for root, expo in powers:
                dz = z - root
                lval += expo / dz
                lder -= expo / (dz * dz)
            logds.append((lval, 2 * lval, lval * lval + lder))
        self.logd = tuple(_split(column) for column in zip(*logds))

    def residuals(self, polys, p0s) -> list:
        """Largest relative residual of phi * poly against the ODE with
        this contour's p2, p1 and the matching p0, per pair of `polys` and
        `p0s`: the largest |T2+T1+T0| / max |Ti| over the points, Ti the
        ODE terms with phi cancelled, skipping a point where max |Ti| is
        <= 64 eps of the largest magnitude summed into a term (noise).

        The coefficients of every p, p', p'' and p0 are stacked, high order
        first and zero-padded in front, into one block for one Horner loop
        at all points. Products are written out on split real and imaginary
        float64 arrays in Python's complex order, and moduli come from hypot,
        since numpy's complex multiply and abs may round the last bit
        otherwise: each residual is bit-identical to Python complex math."""
        rows = []
        for poly, p0 in zip(polys, p0s, strict=True):
            if poly.is_zero:
                raise ValueError("zero eigenfunction")
            p = poly.to_float()
            dp = p.derivative()
            rows += [p.coeffs, dp.coeffs, dp.derivative().coeffs, p0.to_float().coeffs]
        width = max(map(len, rows), default=0)
        block = np.zeros((len(rows), width), dtype=complex)  # storage only
        for row, coeffs in zip(block, rows):
            row[width - len(coeffs):] = coeffs[::-1]
        block = _split(block)[..., None]
        acc = np.zeros((2, len(rows), self.z.shape[1]))
        with np.errstate(all="ignore"):
            for k in range(width):
                acc = _mul(acc, self.z) + block[:, :, k]
            pv, dv, ddv, p0v = (acc[:, k::4] for k in range(4))
            if self.logd is None:
                w1, w2, big1, big2 = dv, ddv, np.hypot(*dv), np.hypot(*ddv)
            else:
                lval, twice, curv = self.logd
                lp, tdv, cp = _mul(lval, pv), _mul(twice, dv), _mul(curv, pv)
                w1, w2 = dv + lp, ddv + tdv + cp
                big1 = np.hypot(*dv) + np.hypot(*lp)
                big2 = np.hypot(*ddv) + np.hypot(*tdv) + np.hypot(*cp)
            t2, t1, t0 = _mul(self.p2, w2), _mul(self.p1, w1), _mul(p0v, pv)
            a2, a1, a0 = _abs(t2), _abs(t1), _abs(t0)
            # max(a2, a1, a0) as Python's max takes it, NaN included
            scale = np.where(a1 > a2, a1, a2)
            scale = np.where(a0 > scale, a0, scale)
            big = np.maximum(np.hypot(*self.p2) * big2, np.hypot(*self.p1) * big1)
            ratio = _abs(t2 + t1 + t0) / scale
            ratio[scale <= 64 * np.finfo(float).eps * np.maximum(big, a0)] = np.nan
        return np.fmax.reduce(ratio, axis=1, initial=0.0).tolist()


def _split(values):
    arr = np.array(values, dtype=complex)  # storage only
    return np.stack((arr.real, arr.imag))


def _mul(a, b):
    """Product of (real, imaginary) stacks, as Python's complex multiply."""
    return np.stack((a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))


def _abs(a):
    """Modulus of a (real, imaginary) stack, as Python's abs of a complex."""
    out = np.hypot(*a)
    if np.isinf(out[np.isfinite(a).all(axis=0)]).any():
        raise OverflowError("absolute value too large")
    return out


def ode_residual(state, ode: OdeForm, samples: int = 50) -> float:
    """Largest relative residual of the assembled eigenfunction over the
    sample contour: the one-state case of ResidualContour.residuals.
    `state` provides the factorized eigenfunction via attributes `phi`
    (prefactor with `exp_part` and `powers`) and `poly`; a bare Poly is
    accepted as an eigenfunction with trivial prefactor."""
    if isinstance(state, Poly):
        poly, phi = state, None
    else:
        poly, phi = state.poly, state.phi
    contour = ResidualContour(ode.p2, ode.p1, phi, samples)
    return contour.residuals([poly], [ode.p0])[0]
