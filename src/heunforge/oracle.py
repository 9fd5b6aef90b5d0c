"""Frobenius-series oracle.

Everything here works directly from an ODE in polynomial-coefficient
form, P2 w'' + P1 w' + P0 w = 0, with no knowledge of how the closed
forms elsewhere in the package were produced. It powers four jobs:

* power-series recurrences about ordinary or regular singular points,
* the matrix of the operator on polynomials of degree <= n, whose
  eigenvalues are the accessory values admitting a degree-n solution,
* the exact truncation condition c_{n+1}(t) of the series, a polynomial
  in the unknown accessory value, kept as a reference for those values,
* residual checks of assembled eigenfunctions on one deterministic
  contour of CONTOUR_SAMPLES points, the same for every check.

It also holds record(), the namedtuple base of every record class in
the package.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import namedtuple
from functools import lru_cache

from .poly import Poly, _horner, float_kernel
from .scalars import FLOAT, as_scalar, negligible

TERMINATION_TOL = 1e-8
INDICIAL_TOL = 1e-9
CACHE_SIZE = 16  # entries of each per-process cache of sigma-only float work


def cached_by_bits(func):
    """func(p) of a float Poly p, kept for the CACHE_SIZE latest keys, each
    the bits of p's coefficients, never their values (0.0 == -0.0). A hit
    returns the object func returned, which must be immutable; an
    exception is not kept."""

    @lru_cache(maxsize=CACHE_SIZE)
    def from_bits(bits):
        parts = struct.unpack("%dd" % (len(bits) // 8), bits)
        return func(Poly._make(list(map(complex, parts[::2], parts[1::2])), FLOAT))

    def cached(p):
        parts = [part for c in p.coeffs for part in (c.real, c.imag)]
        return from_bits(struct.pack("%dd" % len(parts), *parts))

    cached.cache_info, cached.cache_clear = from_bits.cache_info, from_bits.cache_clear
    return cached


def _make(cls, iterable):
    return cls(*iterable)


def record(name, fields, defaults=()):
    """The namedtuple base of an immutable record class, whose _make, and
    so _replace, builds through the record's own constructor: every way to
    build a record, pickling and copying too, runs the checks of its
    __new__. A record subclass sets __slots__ = () unless it keeps state."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(_make)
    return base


class OdeForm(record("OdeForm", "p2 p1 p0")):
    """Second-order ODE with polynomial coefficients:
    p2 w'' + p1 w' + p0 w = 0."""

    __slots__ = ()

    def __new__(cls, p2: Poly, p1: Poly, p0: Poly):
        if not (p2.backend == p1.backend == p0.backend):
            raise ValueError("OdeForm coefficients must share one backend")
        if p2.is_zero:
            raise ValueError("p2 must be nonzero for a second-order equation")
        return tuple.__new__(cls, (p2, p1, p0))

    @property
    def backend(self):
        return self.p2.backend

    def to_float(self) -> "OdeForm":
        return OdeForm(self.p2.to_float(), self.p1.to_float(), self.p0.to_float())


class OdeFamily(record("OdeFamily", "base p0_dir")):
    """ODE whose zeroth-order coefficient depends affinely on one
    unknown scalar t: P0(t) = base.p0 + t * p0_dir."""

    __slots__ = ()

    def __new__(cls, base: OdeForm, p0_dir: Poly):
        if p0_dir.backend != base.backend:
            raise ValueError("direction backend differs from base")
        return tuple.__new__(cls, (base, p0_dir))

    def at(self, t) -> OdeForm:
        return OdeForm(
            self.base.p2, self.base.p1, self.base.p0 + self.p0_dir * t
        )


class Recurrence(record("Recurrence", "point exponent bands backend")):
    """Banded coefficient recurrence for w = sum c_j (z-z0)^(j+rho).

    bands[i] is a polynomial G_i(s) in the index variable; equation m
    (m >= 0) reads sum_i G_i(m - i + rho) c_{m-i} = 0, so

        c_m = -(sum_{i>=1} G_i(m-i+rho) c_{m-i}) / G_0(m+rho).
    """

    __slots__ = ()


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
    r_star = next(r for r, b in enumerate(bands) if not b.is_zero)
    lead = bands[r_star]
    if lead.degree != 2:
        raise ValueError(
            "expansion point is an irregular singular point "
            "(leading band has degree %d in the index)" % lead.degree
        )
    if not negligible(lead(exponent), INDICIAL_TOL, lead):
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
    for m in range(1, count):
        den = lead(rec.exponent + m)
        if negligible(den, 1e-14, lead):
            raise ValueError(
                "indicial collision: leading recurrence factor vanishes at "
                "index %d" % m
            )
        yield m, den


def series_coeffs(rec: Recurrence, seed, count: int):
    """First `count` series coefficients c_0..c_{count-1} from the
    recurrence, c_0 = seed.

    Raises if count is negative, or if the leading factor G_0(m+rho)
    vanishes at some m >= 1 (indicial roots separated by an integer, the
    logarithmic case)."""
    if count < 0:
        raise ValueError("series coefficient count must be nonnegative, not %d" % count)
    if count == 0:
        return []
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
    out = float_kernel().full((n + 2, n + 1), as_scalar(0, backend))
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
    TERMINATION_TOL. A map with a non-finite entry raises OverflowError.
    """
    if family.p0_dir.degree != 0:
        raise ValueError("the accessory direction must be a nonzero constant")
    mat = coefficient_map(family.base.to_float(), n)
    d = complex(family.p0_dir.coeff(0))
    values = float_kernel().accessory_values(mat, n, d, TERMINATION_TOL)
    return sorted(values, key=lambda t: (t.real, t.imag))


# -- residual check ----------------------------------------------------------

CONTOUR_CENTER = 0.5
CONTOUR_RADIUS = 0.45
CONTOUR_CLEARANCE = 0.1
CONTOUR_SAMPLES = 50

# (point, unit direction) of each sample on the unpushed circle
_CIRCLE = tuple(
    (CONTOUR_CENTER + CONTOUR_RADIUS * unit, unit)
    for unit in [cmath.exp(2j * math.pi * k / CONTOUR_SAMPLES) for k in range(CONTOUR_SAMPLES)]
)


def _contour(p2: Poly):
    """(points, p2 at the points) as kept tuples: CONTOUR_SAMPLES points on
    a circle of radius 0.45 about 0.5, any point closer than 0.1 to a root
    of p2 pushed radially away from that root out to the clearance
    distance, and a point still that close after three pushes dropped."""
    return _pushed_contour(p2.to_float())


@cached_by_bits
def _pushed_contour(p2: Poly):
    sing = p2.roots() if p2.degree >= 1 else []
    points = []
    for z, unit in _CIRCLE:
        for _ in range(4):
            for offender in sing:  # the first root within the clearance
                if abs(z - offender) < CONTOUR_CLEARANCE:
                    break
            else:
                break
            gap = z - offender
            if abs(gap) == 0.0:
                gap = unit
            z = offender + CONTOUR_CLEARANCE * gap / abs(gap)
        else:
            continue
        points.append(z)
    if not points:
        raise ValueError("every sample point sits too close to a singularity")
    return tuple(points), tuple(_horner(p2.coeffs, z) for z in points)


class ResidualContour:
    """The residual check's sample contour for one p2, p1 and prefactor
    phi (None for none), shared by the eigenstates of one equation since
    only p0 moves with the accessory. At each point it keeps z, p2(z),
    p1(z) and phi's log-derivative terms (L, 2L, L^2 + L'), computed in
    Python complex numbers, for the array pass of `residuals`: Horner on
    coefficient tuples, as a float Poly call evaluates; z and p2(z) from _contour's cache."""

    def __init__(self, p2: Poly, p1: Poly, phi=None):
        self.z, self.p2 = _contour(p2)
        p1f = p1.to_float()
        self.p1 = [_horner(p1f.coeffs, z) for z in self.z]
        self.logd = None
        if phi is None:
            return
        # L = d/dz log(phi) = e' + sum expo / (z - root), e the exp part
        de = phi.exp_part.to_float().derivative()
        de, dde = de.coeffs, de.derivative().coeffs
        powers = [(complex(root), complex(expo)) for root, expo in phi.powers]
        logds = []
        for z in self.z:
            lval, lder = _horner(de, z), _horner(dde, z)
            for root, expo in powers:
                dz = z - root
                lval += expo / dz
                lder -= expo / (dz * dz)
            logds.append((lval, 2 * lval, lval * lval + lder))
        self.logd = tuple(zip(*logds))

    def residuals(self, polys, p0s) -> list:
        """Largest relative residual of phi * poly against the ODE with
        this contour's p2, p1 and the matching p0, per pair of `polys` and
        `p0s`: the largest |T2+T1+T0| / max |Ti| over the points, Ti the
        ODE terms with phi cancelled, skipping a point where max |Ti| is
        <= 64 eps of the largest magnitude summed into a term (noise).

        The coefficients of every p, p', p'' and p0 are stacked, high order
        first and zero-padded in front, into one block for one Horner loop
        at all points (floatkernel.contour_residuals), and each residual
        is bit-identical to Python complex math."""
        rows = []
        for poly, p0 in zip(polys, p0s, strict=True):
            if poly.is_zero:
                raise ValueError("zero eigenfunction")
            p = poly.to_float()
            dp = p.derivative()
            rows += [p.coeffs, dp.coeffs, dp.derivative().coeffs, p0.to_float().coeffs]
        return float_kernel().contour_residuals(self.z, self.p2, self.p1, self.logd, rows)


def ode_residual(state, ode: OdeForm) -> float:
    """Largest relative residual of the assembled eigenfunction over the
    sample contour: the one-state case of ResidualContour.residuals.
    `state` provides the factorized eigenfunction via attributes `phi`
    (prefactor with `exp_part` and `powers`) and `poly`; a bare Poly is
    accepted as an eigenfunction with trivial prefactor."""
    if isinstance(state, Poly):
        poly, phi = state, None
    else:
        poly, phi = state.poly, state.phi
    contour = ResidualContour(ode.p2, ode.p1, phi)
    return contour.residuals([poly], [ode.p0])[0]
