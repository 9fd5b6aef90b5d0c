"""Gaussian-rational scalar kernel: arithmetic, square roots, parsing."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from heunforge.scalars import (
    EXACT,
    FLOAT,
    BackendMismatchError,
    RationalComplex,
    as_scalar,
    backend_of,
    format_scalar,
    infer_backend,
    parse_scalar,
    scalar_sqrt,
    sqrt_exact,
)


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


def test_field_arithmetic():
    a = rc(Fraction(2, 3), Fraction(-1, 5))
    b = rc(Fraction(1, 7), Fraction(4, 3))
    assert a + b == rc(Fraction(17, 21), Fraction(17, 15))
    assert a - b == rc(Fraction(11, 21), Fraction(-23, 15))
    prod = a * b
    # (2/3 - i/5)(1/7 + 4i/3) = 2/21 + 4/15 + i(8/9 - 1/35)
    assert prod == rc(Fraction(2, 21) + Fraction(4, 15),
                      Fraction(8, 9) - Fraction(1, 35))
    assert (a * b) / b == a
    assert a / a == rc(1)
    assert -a + a == rc(0)
    assert bool(rc(0, 0)) is False and bool(rc(0, 1)) is True


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rc(1) / rc(0)


def test_conjugate_and_abs():
    a = rc(3, -4)
    assert a.conjugate() == rc(3, 4)
    assert abs(a) == 5.0
    assert complex(a) == 3 - 4j


def test_mixed_int_fraction_operands():
    a = rc(Fraction(1, 2))
    assert a + 1 == rc(Fraction(3, 2))
    assert 2 * a == rc(1)
    assert 1 - a == rc(Fraction(1, 2))
    assert a / 2 == rc(Fraction(1, 4))
    assert 1 / rc(0, 1) == rc(0, -1)


def test_float_operands_rejected():
    with pytest.raises((BackendMismatchError, TypeError)):
        rc(1) + 0.5


def test_sqrt_exact_known_values():
    assert sqrt_exact(rc(Fraction(9, 4))) == rc(Fraction(3, 2))
    assert sqrt_exact(rc(-4)) == rc(0, 2)
    # (1+2i)^2 = -3+4i
    assert sqrt_exact(rc(-3, 4)) == rc(1, 2)
    assert sqrt_exact(rc(0, 2)) == rc(1, 1)


def test_sqrt_exact_rejects_irrational():
    # sqrt_exact reports failure with None; scalar_sqrt is the raising wrapper
    assert sqrt_exact(rc(2)) is None
    assert sqrt_exact(rc(0, 1)) is None
    with pytest.raises(ValueError):
        scalar_sqrt(rc(2), EXACT)


def test_scalar_sqrt_backends():
    assert scalar_sqrt(rc(Fraction(1, 4)), EXACT) == rc(Fraction(1, 2))
    v = scalar_sqrt(-1.0 + 0j, FLOAT)
    assert abs(v - 1j) < 1e-15
    # principal branch: nonnegative real part
    w = scalar_sqrt(complex(-3, 4), FLOAT)
    assert w.real >= 0 and abs(w * w - complex(-3, 4)) < 1e-12


def test_backend_helpers():
    assert backend_of(rc(1)) == EXACT
    assert backend_of(1.5) == FLOAT
    assert infer_backend([rc(1), rc(2)]) == EXACT
    assert infer_backend([1, 2]) == FLOAT
    # mixing exact and float scalars is an error, never a silent coercion
    with pytest.raises(BackendMismatchError):
        infer_backend([rc(1), 2.0])
    assert as_scalar(3, EXACT) == rc(3)
    assert as_scalar(Fraction(1, 3), EXACT) == rc(Fraction(1, 3))
    assert as_scalar(rc(2), FLOAT) == 2.0 + 0j


def test_parse_format_roundtrip_exact():
    cases = ["3", "-2/5", "1/2-1/3i", "2+3i", "i", "-i", "0", "7/3i"]
    for text in cases:
        v = parse_scalar(text, EXACT)
        again = parse_scalar(format_scalar(v), EXACT)
        assert again == v, text


def test_parse_float_backend():
    assert parse_scalar("1.5", FLOAT) == 1.5 + 0j
    assert parse_scalar("2e-3", FLOAT) == 0.002 + 0j
    assert parse_scalar("1+2i", FLOAT) == 1 + 2j
    with pytest.raises(ValueError):
        parse_scalar("banana", FLOAT)
    with pytest.raises(ValueError):
        parse_scalar("", EXACT)


def test_hash_consistency():
    assert hash(rc(2)) == hash(rc(2))
    d = {rc(1, 1): "a"}
    assert d[rc(1, 1)] == "a"
    # equal values hash equally, a real one as the int or Fraction it equals
    for value in (3, Fraction(1, 2)):
        assert RationalComplex(value) == value
        assert hash(RationalComplex(value)) == hash(value)
        assert len({RationalComplex(value), value}) == 1


def _random_gaussian(rng):
    """Gaussian rational whose parts are zero about a third of the time."""
    def part():
        if rng.random() < 1 / 3:
            return Fraction(0)
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))
    return RationalComplex(part(), part())


def test_real_fast_paths_match_general_formula():
    # products and quotients with zero imaginary parts take a shortcut;
    # it must give exactly what the full complex formula gives
    rng = random.Random(20261018)
    real_pairs = 0
    for _ in range(3000):
        a, b = _random_gaussian(rng), _random_gaussian(rng)
        real_pairs += not a.im and not b.im
        prod = a * b
        assert (prod.re, prod.im) == (a.re * b.re - a.im * b.im,
                                      a.re * b.im + a.im * b.re)
        assert type(prod.re) is Fraction and type(prod.im) is Fraction
        den = b.re * b.re + b.im * b.im
        if den:
            quot = a / b
            assert (quot.re, quot.im) == ((a.re * b.re + a.im * b.im) / den,
                                          (a.im * b.re - a.re * b.im) / den)
        else:
            with pytest.raises(ZeroDivisionError, match="zero scalar"):
                a / b
    assert real_pairs > 300
    for zero in (rc(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="zero scalar"):
            rc(3, -2) / zero
        with pytest.raises(ZeroDivisionError, match="zero scalar"):
            rc(3) / zero
    with pytest.raises(ZeroDivisionError, match="zero scalar"):
        1 / rc(0)


def test_constructor_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    v = RationalComplex(half, 3)
    assert v.re == half and type(v.re) is Fraction
    # stored canonically as (a + b·i)/d with d > 0 and gcd(a, b, d) = 1
    assert v._abd == (1, 6, 2)
    assert type(v.im) is Fraction and v.im == 3
    w = RationalComplex(True, Fraction(-4, 6))
    assert type(w.re) is Fraction and w == rc(1, Fraction(-2, 3))
    assert w._abd == (3, -2, 3)


@pytest.mark.parametrize("value", [rc(0), rc(Fraction(-5, 6), 0), rc(0, 7),
                                   rc(Fraction(3, 4), Fraction(-2, 9))])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is RationalComplex
        assert twin == value and twin._abd == value._abd
    with pytest.raises(AttributeError, match="RationalComplex is immutable"):
        value.re = 1
