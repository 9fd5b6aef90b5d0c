"""Scalar arithmetic for the two coefficient backends.

The exact backend stores a complex number as a Gaussian-integer numerator
over one positive denominator, (a + b·i)/d (RationalComplex), so all ring
operations and divisions are exact and each result needs one gcd. The
float backend uses plain Python complex. Polynomials and everything built
on them carry a backend tag and refuse to mix the two.

The backends differ in one rule, when a value counts as zero
(`negligible`): an exact value only when it is exactly zero, a float
when its modulus is at most the caller's bound.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from fractions import Fraction
from math import gcd

EXACT = "exact"
FLOAT = "float"


class BackendMismatchError(TypeError):
    """Raised when exact and float operands meet in one operation."""


class RationalComplex:
    """Gaussian rational (a + b·i)/d, stored as the ints (a, b, d).

    The stored form is canonical: d > 0 and gcd(a, b, d) = 1, so a value
    has one form and equality compares the three ints. `.re` and `.im`
    are computed on each read, as Fraction(a, d) and Fraction(b, d).
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        if type(re) is not int and type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not int and type(im) is not Fraction:
            im = Fraction(im)
        q, s = re.denominator, im.denominator
        # d = lcm(q, s) needs no gcd: each prime of d divides q or s to its
        # full power, and that part's numerator is prime to it
        d = q // gcd(q, s) * s
        _store(self, (re.numerator * (d // q), im.numerator * (d // s), d))

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the guarded setattr
        return RationalComplex, (self.re, self.im)

    @property
    def re(self):
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self):
        _, b, d = self._abd
        return Fraction(b, d)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f, d * c)
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c² + e²))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other / self

    def __neg__(self):
        a, b, d = self._abd
        return _reduced(-a, -b, d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self._abd == other._abd
        if isinstance(other, (int, Fraction)):
            return self._abd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as that Fraction
        return hash((self.re, self.im) if self._abd[1] else self.re)

    def __bool__(self):
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __abs__(self):
        a, b, d = self._abd
        return math.hypot(a / d, b / d)

    def __complex__(self):
        # int true division is correctly rounded, as float(Fraction) is
        a, b, d = self._abd
        return complex(a / d, b / d)

    def conjugate(self):
        a, b, d = self._abd
        return _reduced(a, -b, d)

    def __repr__(self):
        return "RationalComplex(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


_new = object.__new__
# the slot's own setter, which the immutability guard above does not see
_store = RationalComplex._abd.__set__


def _reduced(a, b, d):
    """RationalComplex (a + b·i)/d for d > 0, divided through by
    gcd(a, b, d) and built without __init__."""
    z = _new(RationalComplex)
    g = gcd(a, b, d)
    _store(z, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return z


def _coerce(other):
    """An exact operand as a RationalComplex, None for a foreign type."""
    if isinstance(other, (int, Fraction)):
        return _reduced(other.numerator, 0, other.denominator)
    if isinstance(other, RationalComplex):
        return other
    if isinstance(other, (float, complex)):
        raise BackendMismatchError(
            "cannot mix float scalar %r with exact backend" % (other,)
        )
    return None


def _fraction_sqrt(value: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if value < 0:
        raise ValueError("negative fraction")
    num, den = value.numerator, value.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


def sqrt_exact(value: RationalComplex):
    """Principal square root of a RationalComplex, or None if it leaves
    the Gaussian-rational field.

    Solves (x+iy)^2 = a+ib: needs |a+ib| rational and (a+|a+ib|)/2 a
    rational square. Principal branch: x > 0, or x == 0 and y >= 0.
    """
    a, b = value.re, value.im
    if b == 0:
        if a >= 0:
            x = _fraction_sqrt(a)
            return None if x is None else RationalComplex(x, 0)
        y = _fraction_sqrt(-a)
        return None if y is None else RationalComplex(0, y)
    r = _fraction_sqrt(a * a + b * b)
    if r is None:
        return None
    x = _fraction_sqrt((a + r) / 2)
    if x is None or x == 0:
        return None
    y = b / (2 * x)
    if x < 0 or (x == 0 and y < 0):  # pragma: no cover - x>0 by construction
        x, y = -x, -y
    return RationalComplex(x, y)


# -- backend helpers -----------------------------------------------------


def backend_of(value):
    if isinstance(value, RationalComplex):
        return EXACT
    if isinstance(value, (complex, float)):
        return FLOAT
    raise TypeError("no backend for %r (int/Fraction are neutral)" % (value,))


def as_scalar(value, backend):
    """Coerce a number into the given backend's scalar type."""
    if backend == EXACT:
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalComplex(value)
        raise BackendMismatchError("cannot coerce %r to exact backend" % (value,))
    if backend == FLOAT:
        return complex(value)
    raise ValueError("unknown backend %r" % (backend,))


def infer_backend(values):
    """Backend implied by a mixed bag of numbers, EXACT only if some
    value is RationalComplex and none is float/complex."""
    seen_exact = seen_float = False
    for v in values:
        if isinstance(v, RationalComplex):
            seen_exact = True
        elif isinstance(v, (float, complex)):
            seen_float = True
        elif not isinstance(v, (int, Fraction)):
            raise TypeError("not a scalar: %r" % (v,))
    if seen_exact and seen_float:
        raise BackendMismatchError("exact and float scalars in one collection")
    if seen_exact:
        return EXACT
    return FLOAT


def negligible(value, bound) -> bool:
    """Whether a scalar counts as zero: a RationalComplex only when it is
    exactly zero, a float when abs(value) <= bound."""
    if isinstance(value, RationalComplex):
        return not value
    return abs(value) <= bound


def scalar_sqrt(value, backend):
    """Principal square root in the given backend.

    Exact mode raises ValueError when the root leaves the
    Gaussian-rational field.
    """
    if backend == EXACT:
        root = sqrt_exact(as_scalar(value, EXACT))
        if root is None:
            raise ValueError("square root is not Gaussian-rational: %s" % (value,))
        return root
    return cmath.sqrt(complex(value))


# -- text format ----------------------------------------------------------
#
# Numbers appear in CLI input/output as rationals p/q, decimals, or complex
# a+bi combinations of those, e.g. "3", "-2/5", "1.5", "2+3i", "1/2-1/3i".

_FLOAT_RE = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = r"(?:%s(?:/\d+)?)" % _FLOAT_RE
_TERM_RE = _re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<num>%s)\s*(?P<imag>[ij]?)|(?P<lone>[ij]))$" % _NUM_RE
)


def _split_terms(text):
    """Split 'a+bi' style sums at top-level +/- (not after e/E exponents)."""
    terms, start = [], 0
    for k, ch in enumerate(text):
        if ch in "+-" and k > start and text[k - 1] not in "eE+-":
            terms.append(text[start:k])
            start = k
    terms.append(text[start:])
    return [t for t in terms if t.strip()]


def _parse_part(part: str):
    """One additive term -> (real_str_or_None, is_imag). Returns the
    numeric literal with sign attached."""
    m = _TERM_RE.match(part.strip().replace(" ", ""))
    if not m:
        raise ValueError("bad numeric literal %r" % (part,))
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("lone"):
        return sign, "1", True
    return sign, m.group("num"), bool(m.group("imag"))


def parse_scalar(text: str, backend: str):
    """Parse a scalar literal ('3', '-2/5', '1.5', '2+3i', '1/2-1/3i')."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        raise ValueError("empty numeric literal")
    re_part, im_part = Fraction(0), Fraction(0)
    for part in _split_terms(text):
        sign, lit, is_imag = _parse_part(part)
        value = sign * Fraction(lit)
        if is_imag:
            im_part += value
        else:
            re_part += value
    if backend == EXACT:
        return RationalComplex(re_part, im_part)
    try:
        return complex(float(re_part), float(im_part))
    except OverflowError:
        raise ValueError(
            "numeric literal %r is beyond float range" % text) from None


def _format_ratio(n: int, d: int) -> str:
    """n/d in lowest terms, as 'n' or 'n/d'."""
    g = gcd(n, d)
    return str(n // g) if d == g else "%d/%d" % (n // g, d // g)


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_scalar(value) -> str:
    """Inverse of parse_scalar; exact values round-trip bit for bit."""
    if isinstance(value, RationalComplex):
        re_v, im_v, d = value._abd
        re_s, im_s = _format_ratio(re_v, d), _format_ratio(im_v, d)
    else:
        c = complex(value)
        re_s, im_s = _format_real(c.real), _format_real(c.imag)
        re_v, im_v = c.real, c.imag
    if im_v == 0:
        return re_s
    if re_v == 0:
        return im_s + "i"
    sign = "+" if not im_s.startswith("-") else ""
    return re_s + sign + im_s + "i"
