"""Frobenius-series oracle.

Everything here works directly from an ODE in polynomial-coefficient
form, P2 w'' + P1 w' + P0 w = 0, with no knowledge of how the closed
forms elsewhere in the package were produced. It powers three jobs:

* power-series recurrences about ordinary or regular singular points,
* resolving an accessory parameter from the condition that the series
  terminates at a chosen degree (the coefficients are carried as
  polynomials in the unknown, and c_{n+1} is solved for its roots),
* residual checks of assembled eigenfunctions on a deterministic
  contour.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .poly import Poly
from .scalars import EXACT, FLOAT, as_scalar

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

    def apply(self, w: Poly) -> Poly:
        """The polynomial P2 w'' + P1 w' + P0 w."""
        return (
            self.p2 * w.derivative().derivative()
            + self.p1 * w.derivative()
            + self.p0 * w
        )


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

    bandwidth is the number of back terms, len(bands) - 1.
    """

    point: object
    exponent: object
    bands: tuple
    backend: str

    @property
    def bandwidth(self) -> int:
        return len(self.bands) - 1

    def indicial(self) -> Poly:
        return self.bands[0]


class _Bands:
    """Band polynomials F_r(s) = a_r s(s-1) + b_{r-1} s + d_{r-2} of an
    operator whose coefficients are already shifted to the expansion
    point, for one p2 and p1 (a, b) and any p0 (d) of degree at most
    p0_degree. The parts without p0 are built once."""

    def __init__(self, p2s: Poly, p1s: Poly, p0_degree: int):
        backend = p2s.backend
        self.backend = backend
        self.top = max(p2s.degree, p1s.degree + 1)
        s = Poly.x(backend)
        s_sq = s * s - s
        self.fixed = [
            s_sq * p2s.coeff(r) + s * (p1s.coeff(r - 1) if r >= 1 else 0)
            for r in range(max(self.top, p0_degree + 2) + 1)
        ]

    def at(self, p0s: Poly):
        top = max(self.top, p0s.degree + 2)
        return [
            band + Poly.constant(p0s.coeff(r - 2), self.backend) if r >= 2
            else band
            for r, band in enumerate(self.fixed[: top + 1])
        ]


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
    value = lead(exponent)
    if backend == EXACT:
        ok = not value
    else:
        ok = abs(value) <= INDICIAL_TOL * max(lead.max_abs(), 1.0)
    if not ok:
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
    p2s = ode.p2.shift(point)
    p1s = ode.p1.shift(point)
    p0s = ode.p0.shift(point)
    bands = _Bands(p2s, p1s, p0s.degree).at(p0s)
    return _recurrence(bands, point, exponent, backend)


def _leading_factors(rec: Recurrence, count: int):
    """(m, G_0(m+rho)) for m = 1..count-1. Raises on reaching an m where
    the factor vanishes (indicial roots separated by an integer, the
    logarithmic case)."""
    lead = rec.bands[0]
    scale = max(lead.max_abs(), 1.0)
    for m in range(1, count):
        den = lead(rec.exponent + m)
        bad = (not den) if rec.backend == EXACT else abs(den) <= 1e-14 * scale
        if bad:
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


def termination_polynomial(family: OdeFamily, n: int, point=0) -> Poly:
    """c_{n+1} as a polynomial in the unknown accessory scalar, for the
    series with exponent 0 at `point`.

    The unknown must enter the recurrence affinely and must not touch
    the leading band (else c_j would be rational, not polynomial, in it).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    backend = family.base.backend
    point_s = as_scalar(point, backend)
    exponent_s = as_scalar(0, backend)
    p2s = family.base.p2.shift(point_s)
    p1s = family.base.p1.shift(point_s)
    p0s = family.base.p0.shift(point_s)
    dirs = family.p0_dir.shift(point_s)
    base_bands = _Bands(p2s, p1s, p0s.degree).at(p0s)
    top = max(len(base_bands) - 1, dirs.degree + 2)
    while len(base_bands) < top + 1:
        base_bands.append(Poly.zero(backend))
    r_star = next(
        (r for r, band in enumerate(base_bands) if not band.is_zero), top + 1
    )
    # the unknown times dirs.coeff(r - 2) joins band r (see _Bands)
    if any(dirs.coeff(r - 2) for r in range(r_star + 1)):
        raise ValueError(
            "unknown enters the leading recurrence band; the termination "
            "condition would not be polynomial in it"
        )
    rec = _recurrence(base_bands, point_s, exponent_s, backend)
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
            gi = bands[i](exponent_s + (m - i))
            acc = acc + coeffs[m - i] * gi
            if dir_consts[i]:
                acc = acc + coeffs[m - i] * t_poly * dir_consts[i]
        coeffs.append(acc * (as_scalar(-1, backend) / den))
    return coeffs[n + 1]


def termination_solve(family: OdeFamily, n: int, point=0):
    """Accessory values for which the series with exponent 0 at `point`
    terminates at degree n.

    Returns the validated roots of c_{n+1}(t) as complex numbers. Each
    root is re-checked by running the numeric recurrence at that value:
    |c_{n+1}| and |c_{n+2}| must fall below TERMINATION_TOL relative to
    the largest retained coefficient. Only p0 depends on the root, so
    the shifted p2 and p1 and the bands without p0 are built once.
    """
    cpoly = termination_polynomial(family, n, point=point)
    if cpoly.is_zero:
        raise ValueError("termination condition vanishes identically")
    if cpoly.degree == 0:
        return []
    roots = cpoly.roots()
    fam_f = OdeFamily(family.base.to_float(), family.p0_dir.to_float())
    point_f = as_scalar(point, FLOAT)
    exponent_f = as_scalar(0, FLOAT)
    bands = _Bands(
        fam_f.base.p2.shift(point_f),
        fam_f.base.p1.shift(point_f),
        max(fam_f.base.p0.degree, fam_f.p0_dir.degree),
    )
    out = []
    for root in roots:
        p0s = fam_f.at(root).p0.shift(point_f)
        rec = _recurrence(bands.at(p0s), point_f, exponent_f, FLOAT)
        coeffs = series_coeffs(rec, 1.0, n + 3)
        tol = TERMINATION_TOL * max(abs(c) for c in coeffs[: n + 1])
        if abs(coeffs[n + 1]) <= tol and abs(coeffs[n + 2]) <= tol:
            out.append(root)
    return out


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
    phi (None for none), with every value at each point that involves
    neither the polynomial nor p0: p2(z), p1(z) and the prefactor's
    log-derivative terms. Eigenstates of one equation at different
    accessory values share it, since only p0 moves with the accessory."""

    def __init__(self, p2: Poly, p1: Poly, phi=None, samples: int = 50):
        p2f, p1f = p2.to_float(), p1.to_float()
        if phi is not None:
            # L = d/dz log(phi) = e' + sum expo / (z - root), e the exp part
            de = phi.exp_part.to_float().derivative()
            dde = de.derivative()
            powers = [(complex(root), complex(expo)) for root, expo in phi.powers]
        self.points = []
        for z in residual_contour(p2f, samples):
            logd = None
            if phi is not None:
                lval, lder = de(z), dde(z)
                for root, expo in powers:
                    dz = z - root
                    lval += expo / dz
                    lder -= expo / (dz * dz)
                logd = (lval, 2 * lval, lval * lval + lder)
            self.points.append((z, p2f(z), p1f(z), logd))

    def residual(self, poly: Poly, p0: Poly) -> float:
        """Largest relative residual of phi * poly against the ODE with
        this contour's p2 and p1 and the given p0. The residual at each
        point is |T2+T1+T0| / max |Ti| with the common prefactor
        cancelled, Ti the three ODE terms."""
        if poly.is_zero:
            raise ValueError("zero eigenfunction")
        p = poly.to_float()
        dp = p.derivative()
        ddp = dp.derivative()
        p0f = p0.to_float()
        worst = 0.0
        for z, p2z, p1z, logd in self.points:
            pv, dv, ddv = p(z), dp(z), ddp(z)
            if logd is None:
                w0, w1, w2 = pv, dv, ddv
            else:
                lval, twice, curv = logd
                w0 = pv
                w1 = dv + lval * pv
                w2 = ddv + twice * dv + curv * pv
            t2 = p2z * w2
            t1 = p1z * w1
            t0 = p0f(z) * w0
            scale = max(abs(t2), abs(t1), abs(t0))
            if scale == 0.0:
                continue
            worst = max(worst, abs(t2 + t1 + t0) / scale)
        return worst


def ode_residual(state, ode: OdeForm, samples: int = 50) -> float:
    """Largest relative residual of the assembled eigenfunction over the
    sample contour: the one-state case of ResidualContour.

    `state` provides the factorized eigenfunction via attributes `phi`
    (prefactor with `exp_part` and `powers`) and `poly`; a bare Poly is
    accepted as an eigenfunction with trivial prefactor.
    """
    if isinstance(state, Poly):
        poly, phi = state, None
    else:
        poly, phi = state.poly, state.phi
    return ResidualContour(ode.p2, ode.p1, phi, samples).residual(poly, ode.p0)
