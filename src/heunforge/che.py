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

from types import SimpleNamespace

from . import family
from .engine import EXTENDED, Eigenstate, NuEquation
from .family import sigma_tilde
from .oracle import record
from .poly import Poly
from .scalars import as_scalar, infer_backend


class CheClass(record("CheClass", "label flags coupling_coeffs"), family.FamilyClass):
    """One polynomial-solution class. flags mark which prefactor pieces
    (exp(-alpha z), z^(-beta), (z-1)^(-gamma)) the eigenfunction uses;
    coupling_value gives the class condition on mu + nu."""

    # coupling_coeffs: (const, beta coeff, gamma coeff, n coeff) of (mu+nu)/alpha
    __slots__ = ()

    @staticmethod
    def parts(p) -> tuple:
        """The pi part of each flag: -alpha z(z-1), -beta (z-1) and
        -gamma z."""
        z1, zz1 = family.kept_factors(p, _factors)
        return (
            zz1 * (-p.alpha),
            z1 * (-p.beta),
            Poly.x(p.backend) * (-p.gamma),
        )

    def coupling_value(self, n: int, alpha, beta, gamma):
        """The value of mu + nu admitting degree-n solutions."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        c0, cb, cg, cn = self.coupling_coeffs
        return alpha * (beta * cb + gamma * cg + (c0 + cn * n))

    def coupling_at(self, p: CheParams, n: int):
        return self.coupling_value(n, p.alpha, p.beta, p.gamma)


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


def _factors(p) -> tuple:
    """z - 1 and sigma = z(z-1), which the class pi parts share."""
    z1 = Poly.x(p.backend) - Poly.one(p.backend)
    return z1, Poly.x(p.backend) * z1


def che_to_nu(p: CheParams) -> NuEquation:
    backend = p.backend
    z1, sigma = family.kept_factors(p, _factors)
    unit = as_scalar(1, backend)
    tau_tilde = (
        sigma * p.alpha + z1 * (p.beta + unit) + Poly.x(backend) * (p.gamma + unit)
    )
    return NuEquation(
        tau_tilde, sigma, sigma_tilde(sigma, p.coupling, p.mu, backend), EXTENDED
    )


def che_match(eq: NuEquation):
    """alpha, beta, gamma, backend and CLASSES, what class_catalog reads,
    when sigma = z(z-1) and sigma~ factors through it, else None."""
    sig = eq.sigma
    if eq.mode != EXTENDED or sig.degree != 2:
        return None
    if not (Poly([0, -1, 1], eq.backend) - sig).negligible(1e-12):
        return None
    if not family.factors_through_sigma(eq):
        return None
    tt = eq.tau_tilde
    return SimpleNamespace(
        alpha=tt.coeff(2),
        beta=-1 - tt(0),
        gamma=tt(1) - 1,
        backend=eq.backend,
        CLASSES=CHE_CLASSES,
    )


class CheParams(family.FamilyParams, record("CheParams", "alpha beta gamma mu nu")):
    """Parameters (alpha, beta, gamma; mu, nu)."""

    # the family.py record interface: kappa = mu + nu, t = mu
    CLASSES = CHE_CLASSES
    coupling_name = "mu + nu"
    to_nu = che_to_nu

    @property
    def coupling(self):
        return self.mu + self.nu

    @property
    def accessory(self):
        return self.mu

    @property
    def relation_refs(self):
        return self.coupling, self.alpha

    def at(self, mu) -> "CheParams":
        """The record at accessory value mu, mu + nu held fixed."""
        return self._replace(mu=mu, nu=self.coupling - mu)

    def coupling_with(self, mu):
        """mu + nu of the state at mu, as p.at(mu) holds it."""
        return mu + (self.coupling - mu)


def che_class(label) -> CheClass:
    return family.find_class(CHE_CLASSES, label)


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


def che_accessory(p: CheParams, label, n: int):
    """Accessory values mu admitting a degree-n class solution (the mu
    stored in p is ignored; mu + nu is held at the class value): the
    n+1 eigenvalues of the degree-n coefficient map, each validated by
    its backward error."""
    return family.accessory(p, label, n)


def che_eigenstates(p: CheParams, label, n: int, values):
    """Assembled degree-n eigenfunctions of the given class, one per
    accessory value mu in `values` (a sequence; the mu stored in p is
    ignored, and each value's nu is p's mu + nu minus that value), each
    with its contour residual.

    Only sigma~ depends on mu, so the states share p's class setup with
    che_accessory(p, ...); each state equals che_eigenstate at its mu."""
    return family.states(p, label, n, values)


def che_eigenstate(p: CheParams, label, n: int) -> Eigenstate:
    """Assembled degree-n eigenfunction of the given class at the
    accessory value carried by p.mu (and the nu stored in p), with its
    contour residual."""
    return family._states(p, label, n, [(p.mu, p.coupling)])[0]
