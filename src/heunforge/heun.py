"""General Heun equation: polynomial-solution classes and accessory values.

The equation in polynomial form is

    sigma y'' + tau~ y' + (alpha beta z - q) y = 0,
    sigma = z(z-1)(z-a),
    tau~  = gamma (z-1)(z-a) + delta z(z-a) + epsilon z(z-1),

with regular singular points 0, 1, a, infinity, the exponent-sum
constraint epsilon = alpha + beta - gamma - delta + 1, and free
accessory parameter q. Polynomial solutions come in eight classes,
indexed by which of the three finite singular points contributes its
shifted local exponent (1-gamma at 0, 1-delta at 1, 1-epsilon at a) to
the eigenfunction prefactor. Each class fixes the product alpha*beta as
a function of the degree n, and admits n+1 values of q: the roots of
the degree n+1 truncation condition, which are the eigenvalues of the
operator on polynomials of degree <= n.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import reduce
from operator import add
from types import SimpleNamespace

from . import family
from .engine import EXTENDED, Eigenstate, NuEquation
from .family import sigma_tilde
from .oracle import record
from .poly import Poly
from .scalars import as_scalar, infer_backend, negligible, scalar_sqrt


class HeunClass(family.FamilyClass):
    """One polynomial-solution class. flags mark which finite singular
    points (0, 1, a) use their shifted exponent in the prefactor."""

    __slots__ = ()

    @staticmethod
    def parts(p) -> tuple:
        """The pi part of each flag: (z-1)(z-a)(1-gamma), z(z-a)(1-delta)
        and z(z-1)(1-epsilon)."""
        _, zz1, zza, z1za = family.kept_factors(p, _factors)
        unit = as_scalar(1, p.backend)
        return (
            z1za * (unit - p.gamma),
            zza * (unit - p.delta),
            zz1 * (unit - p.epsilon),
        )

    def product_value(self, n: int, gamma, delta, epsilon):
        """The value of alpha*beta admitting degree-n solutions with k
        flagged points: (S_in - (n + k)) (S_out + (n + k - 1)), S_in the
        sum of the flagged exponent parameters among (gamma, delta,
        epsilon) and S_out of the others, each summed in that order; a
        factor with no parameter to sum is its integer alone."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        trio = (gamma, delta, epsilon)
        inside = [v for f, v in zip(self.flags, trio) if f]
        outside = [v for f, v in zip(self.flags, trio) if not f]
        k = len(inside)
        low = reduce(add, inside) - (n + k) if inside else -(n + k)
        high = reduce(add, outside) + (n + k - 1) if outside else n + k - 1
        return low * high

    def coupling_at(self, p: HeunParams, n: int):
        return self.product_value(n, p.gamma, p.delta, p.epsilon)


HEUN_CLASSES = (
    HeunClass("I", (0, 0, 0)),
    HeunClass("II", (1, 0, 0)),
    HeunClass("III", (0, 1, 0)),
    HeunClass("IV", (1, 1, 0)),
    HeunClass("V", (0, 0, 1)),
    HeunClass("VI", (1, 0, 1)),
    HeunClass("VII", (0, 1, 1)),
    HeunClass("VIII", (1, 1, 1)),
)


def _factors(p) -> tuple:
    """z - a, z(z-1), z(z-a) and (z-1)(z-a): sigma's factors and tau~'s."""
    z = Poly.x(p.backend)
    z1, za = z - Poly.one(p.backend), z - Poly.constant(p.a, p.backend)
    return za, z * z1, z * za, z1 * za


def _at_zero_or_one(a) -> bool:
    """Whether a is 0 or 1: exactly if a is exact, within 1e-12 if float."""
    return negligible(a, 1e-12) or negligible(a - 1, 1e-12)


def heun_match(eq: NuEquation):
    """a, gamma, delta, epsilon, backend and CLASSES, what class_catalog
    reads, when sigma = z(z-1)(z-a) and sigma~ factors through it, else None."""
    sig = eq.sigma
    if eq.mode != EXTENDED or sig.degree != 3:
        return None
    if not negligible(sig.coeff(3) - 1, 1e-12) or not negligible(sig.coeff(0), 1e-12):
        return None
    a = sig.coeff(1)
    if not negligible(sig.coeff(2) + a + 1, 1e-10, a):
        return None
    if _at_zero_or_one(a) or not family.factors_through_sigma(eq):
        return None
    tt = eq.tau_tilde
    return SimpleNamespace(
        a=a,
        gamma=tt(0) / a,
        delta=tt(1) / (1 - a),
        epsilon=tt(a) / (a * (a - 1)),
        backend=eq.backend,
        CLASSES=HEUN_CLASSES,
    )


def heun_nu_from_product(a, q, product, gamma, delta, epsilon) -> NuEquation:
    """Equation built from alpha*beta directly (the split into alpha and
    beta never enters the polynomial form)."""
    backend = infer_backend([a, q, product, gamma, delta, epsilon])
    return heun_to_nu(SimpleNamespace(a=a, q=q, product=product, gamma=gamma,
                                      delta=delta, epsilon=epsilon, backend=backend))


def heun_to_nu(p: HeunParams) -> NuEquation:
    """The equation of p, or of a namespace with p's attributes."""
    za, zz1, zza, z1za = family.kept_factors(p, _factors)
    sigma = zz1 * za
    tau_tilde = z1za * p.gamma + zza * p.delta + zz1 * p.epsilon
    return NuEquation(
        tau_tilde, sigma, sigma_tilde(sigma, p.product, p.q, p.backend), EXTENDED
    )


class HeunParams(family.FamilyParams,
                 record("HeunParams", "a q alpha beta gamma delta epsilon")):
    """Parameters (a; q; alpha, beta, gamma, delta, epsilon)."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if _at_zero_or_one(self.a):
            raise ValueError("the third singular point a must differ from 0 and 1")
        gap = self.epsilon - (
            self.alpha + self.beta - self.gamma - self.delta + as_scalar(1, self.backend)
        )
        # a float sum rounds on its largest term
        if not negligible(gap, 1e-10, self.alpha, self.beta, self.gamma,
                          self.delta, self.epsilon):
            raise ValueError(
                "exponent-sum constraint violated: epsilon must equal "
                "alpha + beta - gamma - delta + 1 (gap %s)" % (gap,)
            )
        return self

    @property
    def product(self):
        return self.alpha * self.beta

    # the family.py record interface: kappa = alpha*beta, t = q
    CLASSES = HEUN_CLASSES
    coupling = product
    coupling_name = "alpha*beta"
    to_nu = heun_to_nu

    @property
    def accessory(self):
        return self.q

    @property
    def relation_refs(self):
        return (self.product,)

    def at(self, q) -> "HeunParams":
        return self._replace(q=q)


def heun_class(label) -> HeunClass:
    return family.find_class(HEUN_CLASSES, label)


def heun_params_for_class(
    label: str, n: int, a, gamma, delta, epsilon, q=0
) -> HeunParams:
    """Parameters of the given class at degree n: alpha*beta is set from
    the class closed form and split using the exponent-sum constraint
    alpha + beta = gamma + delta + epsilon - 1. A float product or split
    beyond float range raises OverflowError."""
    cls = heun_class(label)
    backend = infer_backend([a, gamma, delta, epsilon, q])
    gamma = as_scalar(gamma, backend)
    delta = as_scalar(delta, backend)
    epsilon = as_scalar(epsilon, backend)
    product = cls.product_value(n, gamma, delta, epsilon)
    total = gamma + delta + epsilon - as_scalar(1, backend)
    disc = total * total - 4 * product
    root = scalar_sqrt(disc, backend)
    half = as_scalar(Fraction(1, 2), backend)
    alpha = (total + root) * half
    beta = (total - root) * half
    if isinstance(alpha, complex) and not all(map(cmath.isfinite, (product, alpha, beta))):
        raise OverflowError("class product alpha*beta or its split overflows the float range")
    return HeunParams(a, q, alpha, beta, gamma, delta, epsilon)


def heun_accessory(p: HeunParams, label: str, n: int):
    """Accessory values q admitting a degree-n class solution (the q
    stored in p is ignored): the n+1 eigenvalues of the degree-n
    coefficient map, each validated by its backward error."""
    return family.accessory(p, label, n)


def heun_eigenstates(p: HeunParams, label: str, n: int, values):
    """Assembled degree-n eigenfunctions of the given class, one per
    accessory value q in `values` (a sequence; the q stored in p is
    ignored), each with its contour residual.

    Only sigma~ depends on q, so the states share p's class setup with
    heun_accessory(p, ...); each state equals heun_eigenstate at its q."""
    return family.states(p, label, n, values)


def heun_eigenstate(p: HeunParams, label: str, n: int) -> Eigenstate:
    """Assembled degree-n eigenfunction of the given class at the
    accessory value carried by p.q, with its contour residual."""
    return family.states(p, label, n, [p.q])[0]
