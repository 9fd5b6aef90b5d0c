"""Coefficient-list polynomials shared by the workload generators, the
checker and the self-tests.

A polynomial is a list of coefficients, lowest degree first. The helpers
use only the operators + - * /, so one set serves Fractions (the
generators), Python complex numbers (float CLI output) and `Gaussian`
values (exact CLI output).
"""

from __future__ import annotations

from fractions import Fraction

_RATIONAL = (int, Fraction)


class Gaussian:
    """Exact complex rational re + i*im. Mixed with a float or a complex
    number it becomes a Python complex."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Gaussian):
            return Gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, _RATIONAL):
            return Gaussian(self.re + other, self.im)
        return complex(self) + other

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Gaussian):
            return Gaussian(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        if isinstance(other, _RATIONAL):
            return Gaussian(self.re * other, self.im * other)
        return complex(self) * other

    __rmul__ = __mul__


def is_exact(value) -> bool:
    return isinstance(value, (Gaussian,) + _RATIONAL)


def padd(p, q):
    out = [0] * max(len(p), len(q))
    for k, c in enumerate(p):
        out[k] = out[k] + c
    for k, c in enumerate(q):
        out[k] = out[k] + c
    return out


def pscale(p, c):
    return [c * a for a in p]


def psub(p, q):
    return padd(p, pscale(q, -1))


def pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def pderiv(p):
    return [k * c for k, c in enumerate(p)][1:] or [0]


def pdivmod(num, den):
    """Polynomial long division: (quotient, remainder)."""
    num = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        quot[k] = q
        for j, d in enumerate(den):
            num[k + j] = num[k + j] - q * d
    return quot, num[:len(den) - 1]


def branch_lhs(pi, tau, sigma, sigma_tilde):
    """pi^2 + pi (tau~ - sigma') + sigma~, the left side of the branch
    identity; pi is a branch when it equals g sigma for a polynomial g."""
    gap = psub(tau, pderiv(sigma))
    return padd(padd(pmul(pi, pi), pmul(pi, gap)), sigma_tilde)
