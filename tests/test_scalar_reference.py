"""The (a + b·i)/d scalar kernel against the Fraction-pair class it
replaced, kept here as the reference, on seeded random operands."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from heunforge.scalars import BackendMismatchError, RationalComplex, format_scalar

# -- reference: real and imaginary parts as two Fractions ----------------------


class FractionPair:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def _coerce(self, other):
        if isinstance(other, FractionPair):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPair(other)
        if isinstance(other, (float, complex)):
            raise BackendMismatchError(
                "cannot mix float scalar %r with exact backend" % (other,)
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero scalar")
            return FractionPair(self.re / other.re, self.im / other.re)
        den = other.re * other.re + other.im * other.im
        return FractionPair(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPair(other)
        if isinstance(other, FractionPair):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im) if self.im else self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def __repr__(self):
        return "RationalComplex(%s, %s)" % (self.re, self.im)

    def __str__(self):
        def text(f):
            return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
                f.numerator, f.denominator)

        re_s, im_s = text(self.re), text(self.im)
        if self.im == 0:
            return re_s
        if self.re == 0:
            return im_s + "i"
        sign = "+" if not im_s.startswith("-") else ""
        return re_s + sign + im_s + "i"


# -- operands ---------------------------------------------------------------------

MIXED_OPERANDS = (0, 1, -3, True, False, Fraction(0), Fraction(-7, 4),
                  10**40 + 1, Fraction(10**40, 7), Fraction(3, 10**40))


def _numerator(rng):
    draw = rng.random()
    if draw < 0.25:
        return 0
    bound = 10**40 if draw < 0.45 else 60
    return rng.randint(-bound, bound)


def _denominator(rng):
    return rng.choice((1, 7, 12, 10**20 + 39, rng.randint(1, 10**40)))


def _pair(rng, den=None):
    """An operand and its reference. Zero parts are common; the imaginary
    part now and then gets a denominator of its own."""
    den = den or _denominator(rng)
    im_den = den if rng.random() < 0.8 else _denominator(rng)
    re, im = Fraction(_numerator(rng), den), Fraction(_numerator(rng), im_den)
    return RationalComplex(re, im), FractionPair(re, im)


def _same(new, ref):
    """`new` holds the reference's value, in canonical form."""
    assert type(new) is RationalComplex
    assert (new.re, new.im) == (ref.re, ref.im)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    a, b, d = new._abd
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1


def _hex(value):
    c = complex(value)
    return float.hex(c.real), float.hex(c.imag)


def _error(op):
    with pytest.raises((BackendMismatchError, ZeroDivisionError)) as info:
        op()
    return type(info.value), str(info.value)


# -- tests --------------------------------------------------------------------------


def test_operations_match_the_fraction_pair_reference():
    rng = random.Random(20261018)
    equal_dens = coprime_dens = zero_divisors = 0
    for _ in range(2500):
        x, rx = _pair(rng)
        # a shared denominator takes the equal-denominator path of + and -
        y, ry = _pair(rng, rx.re.denominator if rng.random() < 0.4 else None)
        d, f = x._abd[2], y._abd[2]
        equal_dens += d == f
        coprime_dens += d != f and math.gcd(d, f) == 1
        _same(x + y, rx + ry)
        _same(x - y, rx - ry)
        _same(x * y, rx * ry)
        if ry:
            _same(x / y, rx / ry)
        else:
            zero_divisors += 1
            assert _error(lambda: x / y) == _error(lambda: rx / ry) == (
                ZeroDivisionError, "division by zero scalar")
        _same(-x, -rx)
        _same(x.conjugate(), rx.conjugate())
        assert (x == y) == (rx == ry)
        assert x == RationalComplex(rx.re, rx.im)
        assert bool(x) is bool(rx)
        assert hash(x) == hash(rx)
        assert _hex(x) == _hex(rx)
        assert float.hex(abs(x)) == float.hex(abs(rx))
        assert repr(x) == repr(rx)
        assert str(x) == format_scalar(x) == str(rx)
    assert equal_dens > 300 and coprime_dens > 300 and zero_divisors > 50


def test_int_bool_and_fraction_operands_on_both_sides():
    rng = random.Random(331)
    for _ in range(400):
        x, rx = _pair(rng)
        for k in MIXED_OPERANDS:
            _same(x + k, rx + k)
            _same(k + x, k + rx)
            _same(x - k, rx - k)
            _same(k - x, k - rx)
            _same(x * k, rx * k)
            _same(k * x, k * rx)
            if k:
                _same(x / k, rx / k)
            else:
                assert _error(lambda: x / k) == _error(lambda: rx / k) == (
                    ZeroDivisionError, "division by zero scalar")
            if rx:
                _same(k / x, k / rx)
            else:
                assert _error(lambda: k / x) == _error(lambda: k / rx)
            assert (x == k) == (rx == k) == (k == x)


def test_foreign_operands_match_the_reference():
    x, rx = RationalComplex(Fraction(2, 3), -1), FractionPair(Fraction(2, 3), -1)
    for value in (0.5, 1j, float("nan")):
        for op in (lambda a: a + value, lambda a: value + a, lambda a: a - value,
                   lambda a: value - a, lambda a: a * value, lambda a: value * a,
                   lambda a: a / value, lambda a: value / a):
            new, ref = _error(lambda: op(x)), _error(lambda: op(rx))
            assert new == ref
            assert new[0] is BackendMismatchError and "exact backend" in new[1]
        assert (x == value) is (rx == value) is False
    for value in ("2/3", None, [1]):
        assert (x == value) is (rx == value) is False
        with pytest.raises(TypeError):
            x + value


@pytest.mark.parametrize("args", [
    (), (3,), (True, False), (Fraction(-4, 6), True), ("3/4", "-1/6"),
    (0.5, 0.25), (Decimal("1.25"), 0), (Fraction(10**40, 3), -2),
    (Fraction(1, 6), Fraction(1, 10)),
])
def test_constructor_accepts_what_the_reference_accepts(args):
    _same(RationalComplex(*args), FractionPair(*args))
