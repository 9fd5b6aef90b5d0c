"""Confluent Heun equation: polynomial-solution classes and accessory values.

The equation in polynomial form is

    sigma y'' + tau~ y' + ((mu + nu) z - mu) y = 0,
    sigma = z(z-1),
    tau~  = alpha z(z-1) + (beta + 1)(z-1) + (gamma + 1) z,

with regular singular points 0 and 1 and an irregular point at
infinity. Polynomial solutions come in eight classes, one per subset of
the three elementary prefactor pieces exp(-alpha z), z^(-beta), and
(z-1)^(-gamma). Each class fixes mu + nu as alpha times a linear
function of the degree n; the split between mu and nu is the accessory
freedom, resolved as an eigenvalue of the operator on polynomials of
degree <= n (a root of the degree n+1 truncation condition).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import family
from .engine import EXTENDED, Eigenstate, NuEquation
from .family import sigma_tilde
from .poly import Poly
from .scalars import as_scalar, infer_backend


@dataclass(frozen=True)
class CheParams:
    """Parameters (alpha, beta, gamma; mu, nu)."""

    alpha: object
    beta: object
    gamma: object
    mu: object
    nu: object

    def __post_init__(self):
        values = [self.alpha, self.beta, self.gamma, self.mu, self.nu]
        backend = infer_backend(values)
        for name in ("alpha", "beta", "gamma", "mu", "nu"):
            object.__setattr__(self, name, as_scalar(getattr(self, name), backend))
        object.__setattr__(self, "_backend", backend)

    @property
    def backend(self):
        return self._backend

    # the family.py record interface: kappa = mu + nu, t = mu
    coupling_name = "mu + nu"

    @property
    def coupling(self):
        return self.mu + self.nu

    @property
    def accessory(self):
        return self.mu

    @property
    def relation_scale(self):
        return max(1.0, abs(self.coupling), abs(self.alpha))

    def at(self, mu) -> "CheParams":
        """The record at accessory value mu, mu + nu held fixed."""
        return replace(self, mu=mu, nu=self.coupling - mu)

    def to_nu(self) -> NuEquation:
        return che_to_nu(self)


@dataclass(frozen=True)
class CheClass:
    """One polynomial-solution class. flags mark which prefactor pieces
    (exp(-alpha z), z^(-beta), (z-1)^(-gamma)) the eigenfunction uses;
    coupling_value gives the class condition on mu + nu."""

    label: str
    flags: tuple
    _shift: tuple  # (const, beta coeff, gamma coeff, n coeff) of (mu+nu)/alpha

    def pi(self, p: CheParams) -> Poly:
        backend = p.backend
        z = Poly.x(backend)
        one = Poly.one(backend)
        parts = (
            z * (z - one) * (-p.alpha),
            (z - one) * (-p.beta),
            z * (-p.gamma),
        )
        out = Poly.zero(backend)
        for flag, part in zip(self.flags, parts):
            if flag:
                out = out + part
        return out

    def coupling_value(self, n: int, alpha, beta, gamma):
        """The value of mu + nu admitting degree-n solutions."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        c0, cb, cg, cn = self._shift
        return alpha * (beta * cb + gamma * cg + (c0 + cn * n))

    def coupling_at(self, p: CheParams, n: int):
        return self.coupling_value(n, p.alpha, p.beta, p.gamma)

    def prefactor_exponents(self, p: CheParams):
        """(coefficient of z in exp part, power at 0, power at 1)."""
        zero = as_scalar(0, p.backend)
        return (
            -p.alpha if self.flags[0] else zero,
            -p.beta if self.flags[1] else zero,
            -p.gamma if self.flags[2] else zero,
        )


CHE_CLASSES = (
    CheClass("1", (1, 1, 1), (2, 0, 0, 1)),
    CheClass("2", (0, 0, 0), (0, 0, 0, -1)),
    CheClass("3", (0, 0, 1), (0, 0, 1, -1)),
    CheClass("4", (1, 1, 0), (2, 0, 1, 1)),
    CheClass("5", (0, 1, 1), (0, 1, 1, -1)),
    CheClass("6", (1, 0, 0), (2, 1, 1, 1)),
    CheClass("7", (0, 1, 0), (0, 1, 0, -1)),
    CheClass("8", (1, 0, 1), (2, 1, 0, 1)),
)


def che_class(label) -> CheClass:
    return family.find_class(CHE_CLASSES, label)


def che_to_nu(p: CheParams) -> NuEquation:
    backend = p.backend
    z = Poly.x(backend)
    one = Poly.one(backend)
    unit = as_scalar(1, backend)
    sigma = z * (z - one)
    tau_tilde = (
        sigma * p.alpha + (z - one) * (p.beta + unit) + z * (p.gamma + unit)
    )
    return NuEquation(
        tau_tilde, sigma, sigma_tilde(sigma, p.coupling, p.mu, backend), EXTENDED
    )


def che_params_for_class(label, n: int, alpha, beta, gamma, mu=0) -> CheParams:
    """Parameters of the given class at degree n: mu + nu is set from
    the class closed form; mu is the remaining accessory freedom."""
    cls = che_class(label)
    backend = infer_backend([alpha, beta, gamma, mu])
    alpha = as_scalar(alpha, backend)
    beta = as_scalar(beta, backend)
    gamma = as_scalar(gamma, backend)
    mu = as_scalar(mu, backend)
    coupling = cls.coupling_value(n, alpha, beta, gamma)
    return CheParams(alpha, beta, gamma, mu, coupling - mu)


def che_class_relation(p: CheParams, label, n: int):
    """Residual of the class condition on mu + nu at degree n; zero
    exactly when degree-n polynomial solutions are admissible."""
    return family.class_relation(CHE_CLASSES, p, label, n)


def che_accessory(p: CheParams, label, n: int):
    """Accessory values mu admitting a degree-n class solution (the mu
    stored in p is ignored; mu + nu is held at the class value): the
    n+1 eigenvalues of the degree-n coefficient map, each validated by
    its backward error."""
    return family.accessory(CHE_CLASSES, p, label, n)


def che_eigenstates(p: CheParams, label, n: int, values, samples=50):
    """Assembled degree-n eigenfunctions of the given class, one per
    accessory value mu in `values` (a sequence; the mu stored in p is
    ignored, and each value's nu is p's mu + nu minus that value), each
    with its residual on a `samples`-point contour.

    Only sigma~ depends on mu, so the states share one setup (see
    engine.eigenstates); each state equals che_eigenstate at its mu."""
    params = [p.at(v) for v in values]
    return family.states(CHE_CLASSES, p, label, n, params, samples)


def che_eigenstate(p: CheParams, label, n: int) -> Eigenstate:
    """Assembled degree-n eigenfunction of the given class at the
    accessory value carried by p.mu (and the nu stored in p), with its
    contour residual."""
    return family.states(CHE_CLASSES, p, label, n, [p])[0]
