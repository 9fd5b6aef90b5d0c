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

from dataclasses import dataclass, replace
from fractions import Fraction

from . import family
from .engine import EXTENDED, Eigenstate, NuEquation
from .family import sigma_tilde
from .poly import Poly
from .scalars import as_scalar, infer_backend, negligible, scalar_sqrt


@dataclass(frozen=True)
class HeunParams:
    """Parameters (a; q; alpha, beta, gamma, delta, epsilon)."""

    a: object
    q: object
    alpha: object
    beta: object
    gamma: object
    delta: object
    epsilon: object

    def __post_init__(self):
        values = [self.a, self.q, self.alpha, self.beta, self.gamma,
                  self.delta, self.epsilon]
        backend = infer_backend(values)
        for name in ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon"):
            object.__setattr__(self, name, as_scalar(getattr(self, name), backend))
        object.__setattr__(self, "_backend", backend)
        if negligible(self.a, 1e-12) or negligible(self.a - 1, 1e-12):
            raise ValueError("the third singular point a must differ from 0 and 1")
        gap = self.epsilon - (
            self.alpha + self.beta - self.gamma - self.delta + as_scalar(1, backend)
        )
        if not negligible(gap, 1e-10 * max(1.0, abs(self.epsilon))):
            raise ValueError(
                "exponent-sum constraint violated: epsilon must equal "
                "alpha + beta - gamma - delta + 1 (gap %s)" % (gap,)
            )

    @property
    def backend(self):
        return self._backend

    @property
    def product(self):
        return self.alpha * self.beta

    # the family.py record interface: kappa = alpha*beta, t = q
    coupling = product
    coupling_name = "alpha*beta"

    @property
    def accessory(self):
        return self.q

    @property
    def relation_scale(self):
        return max(1.0, abs(self.product))

    def at(self, q) -> "HeunParams":
        return replace(self, q=q)

    def to_nu(self) -> NuEquation:
        return heun_to_nu(self)


@dataclass(frozen=True)
class HeunClass:
    """One polynomial-solution class. flags mark which finite singular
    points (0, 1, a) use their shifted exponent in the prefactor."""

    label: str
    flags: tuple

    def pi(self, p: HeunParams) -> Poly:
        backend = p.backend
        z = Poly.x(backend)
        one = Poly.one(backend)
        ac = Poly.constant(p.a, backend)
        unit = as_scalar(1, backend)
        parts = (
            (z - one) * (z - ac) * (unit - p.gamma),
            z * (z - ac) * (unit - p.delta),
            z * (z - one) * (unit - p.epsilon),
        )
        out = Poly.zero(backend)
        for flag, part in zip(self.flags, parts):
            if flag:
                out = out + part
        return out

    def exponents(self, p: HeunParams) -> tuple:
        """Local prefactor exponents at (0, 1, a)."""
        unit = as_scalar(1, p.backend)
        zero = as_scalar(0, p.backend)
        vals = (unit - p.gamma, unit - p.delta, unit - p.epsilon)
        return tuple(v if f else zero for f, v in zip(self.flags, vals))

    def product_value(self, n: int, gamma, delta, epsilon):
        """The value of alpha*beta admitting degree-n solutions."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        trio = (gamma, delta, epsilon)
        inside = [v for f, v in zip(self.flags, trio) if f]
        outside = [v for f, v in zip(self.flags, trio) if not f]
        if len(inside) == 0:
            return -n * (gamma + delta + epsilon + (n - 1))
        if len(inside) == 1:
            return (inside[0] - (n + 1)) * (outside[0] + outside[1] + n)
        if len(inside) == 2:
            return (inside[0] + inside[1] - (n + 2)) * (outside[0] + (n + 1))
        return (n + 2) * (gamma + delta + epsilon - (n + 3))

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


def heun_class(label) -> HeunClass:
    return family.find_class(HEUN_CLASSES, label)


def heun_nu_from_product(a, q, product, gamma, delta, epsilon) -> NuEquation:
    """Equation built from alpha*beta directly (the split into alpha and
    beta never enters the polynomial form)."""
    backend = infer_backend([a, q, product, gamma, delta, epsilon])
    a = as_scalar(a, backend)
    q = as_scalar(q, backend)
    product = as_scalar(product, backend)
    z = Poly.x(backend)
    one = Poly.one(backend)
    ac = Poly.constant(a, backend)
    sigma = z * (z - one) * (z - ac)
    tau_tilde = (
        (z - one) * (z - ac) * as_scalar(gamma, backend)
        + z * (z - ac) * as_scalar(delta, backend)
        + z * (z - one) * as_scalar(epsilon, backend)
    )
    return NuEquation(
        tau_tilde, sigma, sigma_tilde(sigma, product, q, backend), EXTENDED
    )


def heun_to_nu(p: HeunParams) -> NuEquation:
    return heun_nu_from_product(
        p.a, p.q, p.product, p.gamma, p.delta, p.epsilon
    )


def heun_params_for_class(
    label: str, n: int, a, gamma, delta, epsilon, q=0
) -> HeunParams:
    """Parameters of the given class at degree n: alpha*beta is set from
    the class closed form and split using the exponent-sum constraint
    alpha + beta = gamma + delta + epsilon - 1."""
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
    return HeunParams(a, q, alpha, beta, gamma, delta, epsilon)


def heun_class_relation(p: HeunParams, label: str, n: int):
    """Residual of the class condition on alpha*beta at degree n; zero
    exactly when degree-n polynomial solutions are admissible."""
    return family.class_relation(HEUN_CLASSES, p, label, n)


def heun_accessory(p: HeunParams, label: str, n: int):
    """Accessory values q admitting a degree-n class solution (the q
    stored in p is ignored): the n+1 eigenvalues of the degree-n
    coefficient map, each validated by its backward error."""
    return family.accessory(HEUN_CLASSES, p, label, n)


def heun_eigenstates(p: HeunParams, label: str, n: int, values, samples=50):
    """Assembled degree-n eigenfunctions of the given class, one per
    accessory value q in `values` (a sequence; the q stored in p is
    ignored), each with its residual on a `samples`-point contour.

    Only sigma~ depends on q, so the states share one setup (see
    engine.eigenstates); each state equals heun_eigenstate at its q."""
    params = [p.at(v) for v in values]
    return family.states(HEUN_CLASSES, p, label, n, params, samples)


def heun_eigenstate(p: HeunParams, label: str, n: int) -> Eigenstate:
    """Assembled degree-n eigenfunction of the given class at the
    accessory value carried by p.q, with its contour residual."""
    return family.states(HEUN_CLASSES, p, label, n, [p])[0]
