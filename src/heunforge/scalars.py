"""Scalar arithmetic for the two coefficient backends.

The exact backend stores a complex number as a Gaussian-integer numerator
over one positive denominator, (a + b·i)/d (RationalComplex), so all ring
operations and divisions are exact and each result needs one gcd. The
float backend uses plain Python complex. Polynomials and everything built
on them carry a backend tag and refuse to mix the two.

The backends differ in one rule, when a value counts as zero
(`negligible`): an exact value only when it is exactly zero, a float
when its modulus is at most tol * max(1, |ref|, ...) for the given refs.
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
    The parts given are ints or Fractions, as as_scalar takes them.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        if type(re) is not int and type(re) is not Fraction:
            _check_exact(re)
        if type(im) is not int and type(im) is not Fraction:
            _check_exact(im)
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
        if type(other) is int:
            a, b, d = self._abd
            return _reduced(a * other, b * other, d)
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
        z = _new(RationalComplex)  # gcd(-a, -b, d) = gcd(a, b, d) = 1 already
        _store(z, (-a, -b, d))
        return z

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
        z = complex(self)
        return math.hypot(z.real, z.imag)

    def __complex__(self):
        # int true division is correctly rounded, as float(Fraction) is
        a, b, d = self._abd
        try:
            return complex(a / d, b / d)
        except OverflowError:
            raise OverflowError("exact value overflows the float range") from None

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


def _check_exact(part):
    """Refuse a RationalComplex part that is not an int or a Fraction: a
    float or complex one with BackendMismatchError, any other with TypeError."""
    if isinstance(part, (float, complex)):
        raise BackendMismatchError("cannot take float part %r in exact backend" % (part,))
    if not isinstance(part, (int, Fraction)):
        raise TypeError("an exact part is an int or a Fraction, not %r" % (part,))


def _reduced(a, b, d):
    """RationalComplex (a + b·i)/d for d > 0, divided through by
    gcd(a, b, d) and built without __init__."""
    z = _new(RationalComplex)
    g = gcd(a, b, d)
    _store(z, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return z


def _mul_add(p, q, c):
    """p·q + c for RationalComplex p, q and c, with one gcd."""
    (a, b, d), (e, f, g), (h, i, j) = p._abd, q._abd, c._abd
    re, im, den = a * e - b * f, a * f + b * e, d * g
    if den == j:
        return _reduced(re + h, im + i, den)
    return _reduced(re * j + h * den, im * j + i * den, den * j)


def _convolve(left, right):
    """The product of two nonempty RationalComplex coefficient sequences:
    each coefficient sums its terms in Gaussian integers, reduced once."""
    acc = [(0, 0, 1)] * (len(left) + len(right) - 1)
    ys = [(j, c._abd) for j, c in enumerate(right) if c]
    for i, (a, b, d) in enumerate(c._abd for c in left):
        for j, (e, f, g) in ys:
            (re, im, u), t = acc[i + j], d * g
            if t == u:
                acc[i + j] = re + a * e - b * f, im + a * f + b * e, u
            else:
                acc[i + j] = re * t + (a * e - b * f) * u, im * t + (a * f + b * e) * u, u * t
    return [_reduced(*z) for z in acc]


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


def _square_root(n: int, d: int):
    """(p, q) with p/q = √(n/d) in lowest terms, for ints n >= 0 and d > 0,
    or None when n/d is not a rational square."""
    g = gcd(n, d)
    p, q = math.isqrt(n // g), math.isqrt(d // g)
    return (p, q) if p * p * g == n and q * q * g == d else None


def sqrt_exact(value: RationalComplex):
    """Principal square root of a RationalComplex (a+ib)/d, or None if it
    leaves the Gaussian-rational field: with b = 0, √|a|/√d; else x + iy
    with x = √((a+R)/(2d)), y = b/(2dx), which needs a² + b² = R² (so
    a + R > 0) and x rational. Principal branch: x > 0, or x == 0 and
    y >= 0."""
    a, b, d = value._abd
    if not b:
        root = _square_root(abs(a), d)
        if root is None:
            return None
        return _reduced(root[0], 0, root[1]) if a >= 0 else _reduced(0, *root)
    r = math.isqrt(a * a + b * b)
    root = _square_root(a + r, 2 * d) if r * r == a * a + b * b else None
    if root is None:
        return None
    p, q = root
    return _reduced(2 * d * p * p, b * q * q, 2 * d * p * q)


# -- backend helpers -----------------------------------------------------


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


def negligible(value, tol, *refs) -> bool:
    """Whether a scalar counts as zero: a RationalComplex only when it is
    exactly zero, its refs unread; a float when abs(value) <= tol * max(|ref|,
    ..., 1), a Poly ref counting as its max_abs(), or tol alone with no refs."""
    if isinstance(value, RationalComplex):
        return not value
    if refs:
        tol = tol * max(*[r.max_abs() if hasattr(r, "max_abs") else abs(r) for r in refs], 1.0)
    return abs(value) <= tol


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
# Numbers appear in CLI input/output as rationals p/q, decimals with an
# optional exponent, or complex sums of those, e.g. "3", "-2/5", "1.5e-3",
# "2+3i", "1/2-1/3i". Whitespace is ignored. The same pieces make a
# polynomial term (poly.parse_poly).
# A decimal exponent or a power k of z has at most four digits (leading
# zeros aside), so a larger k is refused before 10**k or k coefficients
# are built; that covers float range (|k| <= 324 plus mantissa digits).
_SMALL_INT = r"0*\d{1,4}"
_NUMBER = r"\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?%s)?" % _SMALL_INT
# a unit term without its sign: a number with an optional i/j, or a lone i/j
_UNIT = r"(?:%s)[ij]?|[ij]" % _NUMBER
_SIGNED_UNIT_RE = _re.compile(r"([+-]?)(%s)" % _UNIT)


def _read_unit(sign, unit):
    """Fraction(sign + unit) of a unit term without its i/j, errors included: an
    integer (isdecimal(), the regex's digits) by int(), p/q by Fraction(int(p), int(q))."""
    num, slash, den = unit.partition("/")
    if slash:
        return Fraction(int(sign + num), int(den))
    return int(sign + unit) if unit.isdecimal() else Fraction(sign + unit)


def _read_sum(text):
    """Exact (re, im) parts, ints or Fractions, of a signed run of unit
    terms, such as '1/2-3i+.5e1j', in text free of whitespace."""
    re_part = im_part = None
    pos = 0
    while True:
        m = _SIGNED_UNIT_RE.match(text, pos)
        if m is None or (pos and not m[1]):
            raise ValueError("bad numeric literal %r" % (text,))
        sign, unit = m.groups()
        value = _read_unit(sign, unit.rstrip("ij") or "1")
        if unit[-1] in "ij":
            im_part = value if im_part is None else im_part + value
        else:
            re_part = value if re_part is None else re_part + value
        pos = m.end()
        if pos == len(text):
            return (0 if re_part is None else re_part,
                    0 if im_part is None else im_part)


def parse_scalar(text: str, backend: str):
    """Parse a scalar literal ('3', '-2/5', '1.5e-3', '2+3i', '(1/2-1/3i)')."""
    text = "".join(text.split())
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1]
    re_part, im_part = _read_sum(text)
    if backend == EXACT:
        return RationalComplex(re_part, im_part)
    if backend != FLOAT:
        raise ValueError("unknown backend %r" % (backend,))
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
