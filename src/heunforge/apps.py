"""Three quantum-mechanical applications of the reduction machinery.

* Coulomb problem on the 3-sphere: closed-form energies and the two
  product relations their parameters must satisfy.
* Two electrons on a sphere with Coulomb repulsion: the radius and
  energy of polynomial states resolved from the accessory condition of
  a four-singular-point equation, with Bethe-type root checks.
* Hyperbolic double-well potential: closed-form symmetric and
  antisymmetric level pairs verified on the confluent equation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .che import CheParams
from .engine import BranchSetup, NoBranchError, polynomial_solution
from .family import class_relation, class_setup, sigma_tilde
from .heun import heun_class, heun_nu_from_product
from .oracle import frobenius_recurrence, record, series_coeffs, termination_solve
from .poly import Poly
from .scalars import FLOAT, as_scalar, infer_backend, negligible

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"


def _finite(name: str, value):
    """value, or a ValueError naming the parameter when it is a float or
    complex that is NaN or infinite, as the CLI refuses at parse time."""
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ValueError("%s must be finite, not %r" % (name, value))
    return value


# -- Coulomb problem on the 3-sphere ------------------------------------------


def coulomb3s_energy(n: int, m: int, gamma):
    """Bound-state energy E = (n+|m|)(n+|m|+2) - gamma^2/(4(n+|m|+1)^2).

    Exact inputs give an exact result (an integer when gamma = 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = n + abs(m)
    backend = infer_backend([gamma])
    gamma = as_scalar(_finite("gamma", gamma), backend)
    lead = as_scalar(k * (k + 2), backend)
    return lead - gamma * gamma * as_scalar(Fraction(1, 4 * (k + 1) ** 2), backend)


class Coulomb3SReport(record("Coulomb3SReport", "n m gamma energy s_plus s_minus "
                                                 "residual_direct residual_flipped")):
    """Closed-form energy with the residuals of the two product
    relations |ab - required| built from principal square roots."""

    __slots__ = ()


def coulomb3s_verify(n: int, m: int, gamma) -> Coulomb3SReport:
    """Substitute the closed-form energy into the parameter chain and
    report both product-relation residuals.

    With s+- = sqrt(1 + E +- i gamma) (principal branches) and
    A = |m| + 1, the direct branch uses exponents Gamma = 1 - s+ and
    a, b = A + (s- -+ s+)/2 pinned by the degree-n condition
    ab = -n(eps + Gamma + Delta + n - 1); the flipped branch uses
    Gamma = 1 + s+ and the companion condition
    ab = (n + Delta + eps)(Gamma - n - 1). Both collapse to the same
    identity (n+A)^2 + i gamma/2 = (n+A) s+. Raises ValueError for a
    gamma with a nonzero imaginary part, which the report could not name,
    and OverflowError if the energy overflows.
    """
    energy = complex(coulomb3s_energy(n, m, gamma))
    gval = complex(gamma)
    if gval.imag:
        raise ValueError("gamma must be real, not %r" % (gamma,))
    if not cmath.isfinite(energy):
        raise OverflowError("coulomb3s energy overflows the float range")
    s_plus = cmath.sqrt(1 + energy + 1j * gval)
    s_minus = cmath.sqrt(1 + energy - 1j * gval)
    big_a = abs(m) + 1
    delta = complex(abs(m) + 1)
    eps = delta
    gamma1 = 1 - s_plus
    a1 = big_a + (s_minus - s_plus) / 2
    b1 = big_a - (s_minus + s_plus) / 2
    want1 = heun_class("I").product_value(n, gamma1, delta, eps)
    gamma2 = 1 + s_plus
    a2 = big_a + (s_minus + s_plus) / 2
    b2 = big_a - (s_minus - s_plus) / 2
    want2 = heun_class("II").product_value(n, gamma2, delta, eps)
    return Coulomb3SReport(
        n=n,
        m=m,
        gamma=gval.real,
        energy=energy,
        s_plus=s_plus,
        s_minus=s_minus,
        residual_direct=abs(a1 * b1 - complex(want1)),
        residual_flipped=abs(a2 * b2 - complex(want2)),
    )


# -- two electrons on a sphere -------------------------------------------------


class ElectronsSphereState(record("ElectronsSphereState", "n gamma_param delta_param radius "
                                                           "energy accessory poly roots bethe")):
    """Degree-n polynomial state: sphere radius R, energy E, the
    resolved accessory value, the polynomial roots, and the Bethe-type
    residual at those roots."""

    __slots__ = ()


def _electrons_equation(n, gamma_param, delta_param):
    """The equation at q = 0, and its coefficient product -n(n + delta - 1)."""
    inv = 1.0 / gamma_param
    half = 0.5 * (delta_param - inv)
    product = -n * (n + delta_param - 1)
    if not math.isfinite(product):
        raise OverflowError("electrons degree condition overflows the float range")
    return heun_nu_from_product(-1.0, 0.0, product, inv, half, half), product


def electrons_sphere_state(
    n: int, gamma_param, delta_param
) -> ElectronsSphereState:
    """Resolve the degree-n state of two electrons on a sphere.

    The radial equation maps onto a four-singular-point form with
    singularities at 0, +-1 and exponent parameters (1/gamma,
    (delta - 1/gamma)/2, (delta - 1/gamma)/2); the degree condition
    fixes the coefficient product at -n(n + delta - 1) and the
    accessory value equals -2R. The positive-radius accessory root is
    selected and E = n(n + delta - 1)/(4R^2).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    gamma_param = _finite("gamma", float(gamma_param))
    delta_param = _finite("delta", float(delta_param))
    if gamma_param == 0.0:
        raise ValueError("gamma must be nonzero")
    eq0, product = _electrons_equation(n, gamma_param, delta_param)
    setup = BranchSetup(eq0, Poly.zero(FLOAT))
    candidates = []
    for root in termination_solve(setup.family, n):
        if abs(root.imag) > 1e-9 * (1.0 + abs(root)):
            continue
        radius = -root.real / 2.0
        if radius > 1e-12:
            candidates.append((radius, root.real))
    if not candidates:
        raise NoBranchError("no accessory root with positive radius")
    radius, q = max(candidates)
    energy = n * (n + delta_param - 1) / (4 * radius * radius)
    # q enters sigma~ alone
    eq = eq0._replace(sigma_tilde=sigma_tilde(eq0.sigma, product, q, FLOAT))
    poly = polynomial_solution(eq, setup.branch, n)
    roots = tuple(poly.roots())
    return ElectronsSphereState(
        n=n,
        gamma_param=gamma_param,
        delta_param=delta_param,
        radius=radius,
        energy=energy,
        accessory=q,
        poly=poly,
        roots=roots,
        bethe=bethe_residual(roots, gamma_param, delta_param),
    )


def bethe_residual(roots, gamma_param, delta_param) -> float:
    """Largest violation of the root conditions

        sum_{j != i} 2/(z_i - z_j) + (1/gamma)/z_i
        + (delta - 1/gamma)/2 / (z_i + 1)
        + (delta - 1/gamma)/2 / (z_i - 1) = 0.

    A root may legitimately sit on one of the singular points 0, +-1
    (it is then the unit-exponent local solution there); the fraction
    form above divides by zero in that case, so such roots are checked
    in the equivalent polynomial form sigma(z_i) sum + tau~(z_i) = 0.
    """
    _finite("gamma", gamma_param)
    _finite("delta", delta_param)
    roots = [complex(r) for r in roots]
    scale = max([1.0] + [abs(r) for r in roots])
    for i, zi in enumerate(roots):
        for zj in roots[i + 1 :]:
            if abs(zi - zj) <= 1e-10 * scale:
                raise ValueError("coincident roots")
    inv = 1.0 / gamma_param
    half = 0.5 * (delta_param - inv)
    worst = 0.0
    for i, zi in enumerate(roots):
        pair = sum(2.0 / (zi - zj) for j, zj in enumerate(roots) if j != i)
        if min(abs(zi), abs(zi - 1), abs(zi + 1)) > 1e-8:
            acc = pair + inv / zi + half / (zi + 1) + half / (zi - 1)
        else:
            sig = zi * (zi - 1) * (zi + 1)
            tt = (
                inv * (zi - 1) * (zi + 1)
                + half * zi * (zi + 1)
                + half * zi * (zi - 1)
            )
            acc = (sig * pair + tt) / max(1.0, abs(inv) + 2 * abs(half))
        worst = max(worst, abs(acc))
    return worst


# -- hyperbolic double well ----------------------------------------------------


def doublewell_spectrum(N: int, d, u0, parity: str) -> float:
    """Closed-form level: -(3 + 4N - d sqrt(U0))^2 / (4 d^2) for
    symmetric states, with 5 + 4N for antisymmetric ones."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    d = _finite("d", float(d))
    u0 = _finite("u0", float(u0))
    if d <= 0 or u0 <= 0:
        raise ValueError("d and U0 must be positive")
    if parity == SYMMETRIC:
        base = 3
    elif parity == ANTISYMMETRIC:
        base = 5
    else:
        raise ValueError("parity must be %r or %r" % (SYMMETRIC, ANTISYMMETRIC))
    k = base + 4 * N - d * math.sqrt(u0)
    return -k * k / (4 * d * d)


def _doublewell_params(N, d, u0, parity, eps=None) -> CheParams:
    """Confluent-equation parameters of the level: alpha = -d sqrt(U0),
    beta = -i d sqrt(eps) (principal root), gamma = -1/2. mu is fixed so
    that mu + nu = (alpha/4)(alpha + 3 + 2 beta)."""
    if eps is None:
        eps = doublewell_spectrum(N, d, u0, parity)
    alpha = complex(-d * math.sqrt(u0))
    beta = -1j * d * cmath.sqrt(complex(eps))
    gamma = complex(-0.5)
    mu = (alpha * (alpha + 2) + 2 * alpha * beta - beta * (beta + 1)) / 4
    nu = (alpha + beta * (beta + 1)) / 4
    return CheParams(alpha, beta, gamma, mu, nu)


class DoubleWellReport(record("DoubleWellReport", "N parity epsilon params matched_class "
                                                   "relation_residual resolved_mu "
                                                   "termination_residual")):
    """Level verification: the class of the parity pair whose degree-N
    condition the parameters satisfy, the relation residual, the
    accessory values mu admitting termination, and the size of the
    first trimmed series coefficient at the first resolved mu."""

    __slots__ = ()


_PARITY_PAIRS = {SYMMETRIC: ("2", "7"), ANTISYMMETRIC: ("3", "5")}


def doublewell_verify(N: int, d, u0, parity: str) -> DoubleWellReport:
    """Check the closed-form level against the confluent equation.

    Substituting eps_N makes exactly one class condition of the parity
    pair hold (which one depends on the sign of beta); mu is then
    resolved from the degree-N termination condition and the series is
    re-run to report |c_{N+1}| relative to the retained coefficients. A
    class relation beyond float range raises OverflowError.
    """
    eps = doublewell_spectrum(N, d, u0, parity)
    p = _doublewell_params(N, d, u0, parity, eps)
    matched = None
    best = None
    for label in _PARITY_PAIRS[parity]:
        gap = abs(complex(class_relation(p, label, N)))
        if not math.isfinite(gap):
            raise OverflowError("class relation overflows the float range")
        if best is None or gap < best[1]:
            best = (label, gap)
        if negligible(gap, 1e-9, *p.relation_refs) and matched is None:
            matched = (label, gap)
    if matched is None:
        raise NoBranchError(
            "no class of the %s pair matches at N=%d (best: class %s, "
            "residual %.3g)" % (parity, N, best[0], best[1])
        )
    label, gap = matched
    family = class_setup(p, label).family
    mu_values = termination_solve(family, N)
    if not mu_values:
        raise NoBranchError("no terminating accessory value at the level")
    # expand about z=1: its exponent gap is 1/2 for every class here
    # (gamma = -1/2), while beta can be a positive integer at z=0
    rec = frobenius_recurrence(family.at(mu_values[0]), 1, 0)
    coeffs = series_coeffs(rec, 1.0, N + 2)
    term = abs(coeffs[N + 1]) / max(abs(c) for c in coeffs[: N + 1])
    return DoubleWellReport(
        N=N,
        parity=parity,
        epsilon=eps,
        params=p,
        matched_class=label,
        relation_residual=gap,
        resolved_mu=tuple(mu_values),
        termination_residual=term,
    )

