"""Dense univariate polynomial kernel over the two scalar backends.

Coefficients are stored low order first. A polynomial is canonical when
its top coefficient is nonzero; trailing junk is trimmed exactly in the
exact backend and below a relative threshold of TRIM_REL * max|coeff|
in the float backend. The zero polynomial has degree -1.

`Poly.__init__` is the one public constructor and the one place where
outside values (int, Fraction, float, complex, RationalComplex) are
coerced to the backend's scalar. The ring operations build their results
with `Poly._make` from scalars of the backend they computed themselves,
so those are trimmed but never copied or coerced again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest

from .scalars import (
    EXACT,
    FLOAT,
    _SMALL_INT,
    _UNIT,
    BackendMismatchError,
    RationalComplex,
    as_scalar,
    backend_of,
    format_scalar,
    infer_backend,
    parse_scalar,
    scalar_sqrt,
)

TRIM_REL = 1e-13

# the scalar type each backend stores, and its zero
_SCALAR_TYPE = {EXACT: RationalComplex, FLOAT: complex}
_ZERO = {EXACT: RationalComplex(0), FLOAT: 0j}


class Poly:
    """Immutable dense polynomial, low-order coefficients first."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend=None):
        coeffs = list(coeffs)
        if backend is None:
            backend = infer_backend(coeffs)
        kind = _SCALAR_TYPE.get(backend)
        coeffs = [c if type(c) is kind else as_scalar(c, backend) for c in coeffs]
        coeffs = _trim(coeffs, backend)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "backend", backend)

    @staticmethod
    def _make(coeffs, backend):
        """The Poly of `coeffs`, a fresh list of the backend's own scalars:
        trimmed in place, neither copied nor coerced."""
        p = object.__new__(Poly)
        object.__setattr__(p, "coeffs", tuple(_trim(coeffs, backend)))
        object.__setattr__(p, "backend", backend)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the guarded setattr
        return Poly, (self.coeffs, self.backend)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, backend):
        return cls([], backend)

    @classmethod
    def one(cls, backend):
        return cls([1], backend)

    @classmethod
    def x(cls, backend):
        return cls([0, 1], backend)

    @classmethod
    def constant(cls, value, backend=None):
        if backend is None:
            backend = backend_of(value)
        return cls([value], backend)

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        """Coefficient of z^k (zero scalar beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO[self.backend]

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def max_abs(self) -> float:
        return max(map(abs, self.coeffs), default=0.0)

    def negligible(self, bound) -> bool:
        """Whether the polynomial counts as zero (scalars.negligible):
        an exact one only when it is zero, a float one when no
        coefficient exceeds bound in modulus."""
        if self.backend == EXACT:
            return self.is_zero
        return self.max_abs() <= bound

    def _check_backend(self, other):
        if self.backend != other.backend:
            raise BackendMismatchError(
                "mixed backends %s and %s" % (self.backend, other.backend)
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other, negate=False):
        if type(other) is not Poly:
            other = self._as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        self._check_backend(other)
        right = [-c for c in other.coeffs] if negate else other.coeffs
        # the shorter side is padded with the backend's +0, which is
        # still added so that float signed zeros come out normalized
        pairs = zip_longest(self.coeffs, right, fillvalue=_ZERO[self.backend])
        return Poly._make([a + b for a, b in pairs], self.backend)

    __radd__ = __add__

    def __sub__(self, other):
        # self + (-other) term by term: a - b, or a -0 pad, would keep
        # the -0.0 parts that adding the +0 pad turns into +0.0
        return self.__add__(other, True)

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly._make([-c for c in self.coeffs], self.backend)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            try:
                scalar = as_scalar(other, self.backend)
            except (BackendMismatchError, TypeError):
                return NotImplemented
            return Poly._make([c * scalar for c in self.coeffs], self.backend)
        self._check_backend(other)
        if self.is_zero or other.is_zero:
            return Poly._make([], self.backend)
        out = [_ZERO[self.backend]] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = other.coeffs
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(right, i):
                out[k] = out[k] + a * b
        return Poly._make(out, self.backend)

    __rmul__ = __mul__

    def _as_poly(self, other):
        if isinstance(other, Poly):
            return other
        try:
            return Poly._make([as_scalar(other, self.backend)], self.backend)
        except (BackendMismatchError, TypeError):
            return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        return Poly._make(
            [k * c for k, c in enumerate(self.coeffs)][1:], self.backend
        )

    def __call__(self, z):
        """Horner evaluation. Exact polynomials evaluated at exact points
        stay exact; any other point is evaluated in complex floats."""
        if self.backend == EXACT and isinstance(z, (int, Fraction, RationalComplex)):
            acc = as_scalar(0, EXACT)
            zz = as_scalar(z, EXACT)
            for c in reversed(self.coeffs):
                acc = acc * zz + c
            return acc
        coeffs = self.coeffs
        if self.backend != FLOAT:
            coeffs = [complex(c) for c in coeffs]
        zz = complex(z)
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * zz + c
        return acc

    # -- division -----------------------------------------------------------

    def divrem(self, divisor: "Poly"):
        """Long division, (quotient, remainder) with deg r < deg divisor.

        Arithmetic is exact in both backends (no rounding decisions here);
        callers decide when a float remainder counts as zero.
        """
        self._check_backend(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < divisor.degree:
            return Poly._make([], self.backend), self
        rem = list(self.coeffs)
        lead = divisor.leading()
        dd = divisor.degree
        qlen = len(rem) - dd
        quot = [_ZERO[self.backend]] * qlen
        for k in range(qlen - 1, -1, -1):
            factor = rem[k + dd] / lead
            quot[k] = factor
            if factor:
                for j, c in enumerate(divisor.coeffs):
                    rem[k + j] = rem[k + j] - factor * c
        return Poly._make(quot, self.backend), Poly._make(rem[:dd], self.backend)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        return Poly._make([c / lead for c in self.coeffs], self.backend)

    # -- square-root head -----------------------------------------------------

    def sqrt_head(self):
        """Split an even-degree polynomial d as d = s^2 + r with
        deg s = deg d / 2 and deg r < deg d / 2 + 1.

        s is built top-down: its leading coefficient is the principal
        square root of d's leading coefficient, and each lower coefficient
        cancels one coefficient of d - s^2 from the top. d is a perfect
        square exactly when r vanishes. Odd degree raises ValueError;
        in the exact backend a leading coefficient without a
        Gaussian-rational root also raises.
        """
        if self.is_zero:
            z = Poly.zero(self.backend)
            return z, z
        if self.degree % 2 != 0:
            raise ValueError("sqrt_head needs even degree, got %d" % self.degree)
        m = self.degree // 2
        lead_root = scalar_sqrt(self.leading(), self.backend)
        s = [as_scalar(0, self.backend)] * (m + 1)
        s[m] = lead_root
        two_lead = lead_root + lead_root
        # residual r = d - s^2, updated as coefficients of s fill in
        for k in range(m - 1, -1, -1):
            # coefficient of z^(m+k) in d - s^2 so far
            acc = self.coeff(m + k)
            for i in range(k + 1, m + 1):
                j = m + k - i
                if 0 <= j <= m:
                    acc = acc - s[i] * s[j]
            s[k] = acc / two_lead
        s_poly = Poly(s, self.backend)
        r_poly = self - s_poly * s_poly
        return s_poly, r_poly

    # -- roots ------------------------------------------------------------------

    def roots(self):
        """All complex roots with multiplicity, as a list of Python
        complex, from the eigenvalues of the companion matrix.

        Root finding always happens in floating point; exact polynomials
        are converted first.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no root set")
        c = [complex(v) for v in self.coeffs]
        if len(c) == 1:
            return []
        lead = c[-1]
        body = [v / lead for v in c[:-1]]
        if len(body) == 1:
            return [-body[0]]
        from .floatkernel import companion_roots

        return companion_roots(body)

    # -- conversions and composition ------------------------------------------

    def to_float(self) -> "Poly":
        if self.backend == FLOAT:
            return self
        return Poly._make([complex(c) for c in self.coeffs], FLOAT)

    def shift(self, z0) -> "Poly":
        """Taylor shift: returns p(z + z0), by repeated synthetic division
        by (z - z0). The k-th remainder is the k-th Taylor coefficient."""
        z0 = as_scalar(z0, self.backend)
        work = list(self.coeffs)
        out = []
        while work:
            quot = []
            acc = work[-1]
            for k in range(len(work) - 2, -1, -1):
                quot.append(acc)
                acc = work[k] + z0 * acc
            out.append(acc)
            quot.reverse()
            work = quot
        return Poly._make(out, self.backend)

    # -- text format ----------------------------------------------------------

    def __repr__(self):
        return "Poly(%r, %s)" % (list(self.coeffs), self.backend)

    def __str__(self):
        return format_poly(self)


def _trim(coeffs, backend):
    if backend == EXACT:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs
    top = max(map(abs, coeffs), default=0.0)
    if top == 0.0:
        return []
    floor = TRIM_REL * top
    while coeffs and abs(coeffs[-1]) <= floor:
        coeffs.pop()
    if not coeffs:
        # a finite top coefficient stays above its floor: this one is inf
        raise OverflowError("polynomial coefficient overflows the float range")
    return coeffs


# -- parse / format -------------------------------------------------------------
#
# Text shape: "c0 + c1*z + c2*z^2". Coefficients use the scalar literal
# syntax; complex coefficients with two parts are parenthesized, e.g.
# "(1+2i)*z^2 - 1/3".

# one term: a sign, then a unit term or a parenthesized sum, any '*', and
# z or z^k, either part alone; the next term's sign or the end follows
_MONOMIAL_RE = re.compile(
    r"([+-]?)(%s|\([^()]*\))?(\**z(?:\^(%s))?)?(?=[+-]|$)" % (_UNIT, _SMALL_INT))


def parse_poly(text: str, backend: str) -> Poly:
    """Parse 'c0 + c1*z + c2*z^2' into a Poly for the given backend."""
    text = "".join(text.split())
    if not text:
        raise ValueError("empty polynomial text")
    coeffs, pos = {}, 0
    while pos < len(text):
        m = _MONOMIAL_RE.match(text, pos)
        if m is None or not (m[2] or m[3]):
            raise ValueError("bad polynomial text %r" % (text,))
        sign, coeff, z, power = m.groups()
        value = parse_scalar(coeff, backend) if coeff else as_scalar(1, backend)
        if sign == "-":
            value = -value
        power = int(power) if power else 1 if z else 0
        coeffs[power] = coeffs.get(power, as_scalar(0, backend)) + value
        pos = m.end()
    return Poly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)], backend)


def _coeff_text(c) -> str:
    s = format_scalar(c)
    needs_parens = ("+" in s[1:]) or ("-" in s[1:].replace("e-", "").replace("E-", ""))
    return "(%s)" % s if needs_parens else s


def format_poly(p: Poly) -> str:
    """Inverse of parse_poly: 'c0 + c1*z + c2*z^2' with zero terms dropped."""
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(_coeff_text(c))
        else:
            zk = "z" if k == 1 else "z^%d" % k
            parts.append("%s*%s" % (_coeff_text(c), zk))
    out = " + ".join(parts)
    return out.replace("+ -", "- ")
