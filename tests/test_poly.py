"""Dense polynomial kernel: arithmetic laws, division, square-root head,
root extraction. The four randomized suites run 1000 seeded cases each."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from heunforge.poly import Poly, format_poly, parse_poly
from heunforge.scalars import EXACT, FLOAT, BackendMismatchError, RationalComplex, as_scalar

CASES = 1000


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


def _random_poly(rng, max_degree, nonzero=False):
    deg = int(rng.integers(0, max_degree + 1))
    coeffs = rng.uniform(-2, 2, deg + 1) + 1j * rng.uniform(-2, 2, deg + 1)
    p = Poly(list(coeffs), FLOAT)
    if nonzero and p.is_zero:
        return Poly([1.0], FLOAT)
    return p


def test_constructors_and_basics():
    z = Poly.x(EXACT)
    assert z.degree == 1 and z.coeff(1) == rc(1) and z.coeff(0) == rc(0)
    assert Poly.one(FLOAT)(0.3) == 1.0
    assert Poly.zero(EXACT).is_zero
    p = Poly([rc(1), rc(0), rc(3)], EXACT)
    assert p.degree == 2 and p.coeff(5) == rc(0)
    assert p(rc(2)) == rc(13)
    # trailing zeros trimmed
    assert Poly([1.0, 0.0, 0.0], FLOAT).degree == 0


def test_backend_mismatch_rejected():
    from heunforge.scalars import BackendMismatchError

    with pytest.raises(BackendMismatchError):
        Poly.x(EXACT) + Poly.x(FLOAT)


def test_exact_ring_identities():
    z = Poly.x(EXACT)
    p = (z - 1) * (z - 2)
    assert p == Poly([rc(2), rc(-3), rc(1)], EXACT)
    assert p(rc(1)) == rc(0) and p(rc(2)) == rc(0)
    assert (p - p).is_zero
    assert p.derivative() == Poly([rc(-3), rc(2)], EXACT)
    assert p.monic() == p
    assert (p * 2).monic() == p


def test_divrem_exact():
    z = Poly.x(EXACT)
    num = (z - 1) * (z - 2) * (z - 3) + 5
    q, r = num.divrem((z - 1) * (z - 2))
    assert q == z - 3
    assert r == Poly([rc(5)], EXACT)
    with pytest.raises(ZeroDivisionError):
        num.divrem(Poly.zero(EXACT))


def test_shift_is_taylor_translation():
    z = Poly.x(EXACT)
    p = z * z * z - 2 * z + 1
    s = p.shift(rc(1))  # p(z + 1)
    assert s == Poly([rc(0), rc(1), rc(3), rc(1)], EXACT)


def test_division_identity_suite():
    rng = np.random.default_rng(20260814)
    for _ in range(CASES):
        p = _random_poly(rng, 6)
        d = _random_poly(rng, 3, nonzero=True)
        q, r = p.divrem(d)
        assert r.degree < d.degree or r.is_zero
        back = q * d + r
        # a small divisor leading coefficient amplifies the quotient, so the
        # reconstruction error scales with the quotient, not just with p
        scale = max(p.max_abs(), q.max_abs() * max(d.max_abs(), 1.0), 1.0)
        assert (back - p).max_abs() <= 1e-9 * scale


def test_product_rule_suite():
    rng = np.random.default_rng(31337)
    for _ in range(CASES):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        scale = max(lhs.max_abs(), 1.0)
        assert (lhs - rhs).max_abs() <= 1e-10 * scale


def test_sqrt_head_roundtrip_suite():
    rng = np.random.default_rng(97)
    for _ in range(CASES):
        s = _random_poly(rng, 3, nonzero=True)
        d = s * s
        head, rem = d.sqrt_head()
        scale = max(s.max_abs(), 1.0)
        direct = (head - s).max_abs()
        flipped = (head + s).max_abs()
        assert min(direct, flipped) <= 1e-9 * scale
        assert rem.max_abs() <= 1e-9 * scale * scale


def test_root_residual_suite():
    rng = np.random.default_rng(4242)
    for _ in range(CASES):
        p = _random_poly(rng, 5, nonzero=True)
        if p.degree == 0:
            assert p.roots() == []
            continue
        roots = p.roots()
        assert len(roots) == p.degree
        scale = max(p.max_abs(), 1.0)
        for root in roots:
            bound = 1e-7 * scale * max(1.0, abs(root)) ** p.degree
            assert abs(p(root)) <= bound


def test_sqrt_head_exact():
    z = Poly.x(EXACT)
    s = z * z - Poly.constant(rc(Fraction(1, 2)), EXACT)
    head, rem = (s * s).sqrt_head()
    assert head == s and rem.is_zero
    with pytest.raises(ValueError):
        (z * z * z).sqrt_head()


def test_sqrt_head_nonsquare_remainder():
    z = Poly.x(EXACT)
    d = z * z + 1  # not a perfect square
    head, rem = d.sqrt_head()
    assert head == z
    assert rem == Poly.one(EXACT)


def test_parse_format_roundtrip():
    texts = [
        "1 - 35/12*z + 19/12*z^2",
        "z^3 - 3*z^2 + 2*z",
        "0",
        "-z",
        "(1/2+1/3i)*z^2 - 2i",
    ]
    for text in texts:
        p = parse_poly(text, EXACT)
        again = parse_poly(format_poly(p), EXACT)
        assert again == p, text
    with pytest.raises(ValueError):
        parse_poly("z^x", FLOAT)
    with pytest.raises(ValueError):
        parse_poly("", FLOAT)


def test_float_coefficient_beyond_float_range_raises():
    assert parse_poly("1e307*z + 1e307*z", FLOAT).coeffs == (0j, 2e307 + 0j)
    with pytest.raises(OverflowError, match="overflows the float range"):
        parse_poly("1e308*z + 1e308*z", FLOAT)
    with pytest.raises(OverflowError):
        Poly([1.0, complex(0, math.inf)], FLOAT)


def test_monic_and_leading():
    p = Poly([2.0, 4.0], FLOAT)
    assert p.leading() == 4.0
    assert p.monic() == Poly([0.5, 1.0], FLOAT)
    with pytest.raises(ValueError):
        Poly.zero(FLOAT).monic()


def test_construction_stores_only_backend_scalars():
    exact_in = [0, True, 3, Fraction(-2, 3), rc(1, 2), RationalComplex(5, -1)]
    p = Poly(exact_in, EXACT)
    assert p.coeffs == (rc(0), rc(1), rc(3), rc(Fraction(-2, 3)), rc(1, 2),
                        rc(5, -1))
    float_in = [0, True, Fraction(1, 4), 2.5, rc(1, 2), 1 - 3j,
                np.float64(0.5), np.complex128(2j)]
    q = Poly(float_in, FLOAT)
    assert q.coeffs == (0j, 1 + 0j, 0.25 + 0j, 2.5 + 0j, 1 + 2j, 1 - 3j,
                        0.5 + 0j, 2j)
    for poly in (p, p * p + p, p.derivative(), p.shift(rc(1, -1)),
                 p.divrem(Poly([1, 2], EXACT))[0]):
        assert all(type(c) is RationalComplex and type(c.re) is Fraction
                   and type(c.im) is Fraction for c in poly.coeffs)
    for poly in (q, q * q + q, q.derivative(), p.to_float(),
                 q.divrem(Poly([1.0, 2.0], FLOAT))[0]):
        assert all(type(c) is complex for c in poly.coeffs)
    with pytest.raises(BackendMismatchError):
        Poly([1, 2.5], EXACT)


def test_add_pads_the_shorter_side_with_zero():
    # the zero added to the longer tail turns a float -0.0 into +0.0
    neg_zero = complex(-0.0, -0.0)
    long = Poly([1.0, neg_zero, 1.0], FLOAT)
    short = Poly([2.0], FLOAT)
    for total in (long + short, short + long):
        assert total.coeffs == (3 + 0j, 0j, 1 + 0j)
        mid = total.coeffs[1]
        assert math.copysign(1.0, mid.real) == 1.0
        assert math.copysign(1.0, mid.imag) == 1.0
    assert Poly([rc(1), rc(0, 2)], EXACT) + Poly([rc(3)], EXACT) == Poly(
        [rc(4), rc(0, 2)], EXACT)


def test_float_evaluation_of_exact_and_float_coefficients():
    p = Poly([rc(1, 2), rc(Fraction(-1, 3)), rc(0, 1)], EXACT)
    for z in (0.3 - 0.7j, 2.0, 1j):
        assert p(z) == p.to_float()(z)
        assert type(p(z)) is complex


@pytest.mark.parametrize("poly", [
    Poly([rc(1, 2), rc(Fraction(-1, 3)), rc(0, 1)], EXACT),
    Poly([0.5, -2 + 1e-3j, 3.0], FLOAT),
    Poly.zero(EXACT),
    Poly.zero(FLOAT),
], ids=["exact", "float", "zero-exact", "zero-float"])
def test_copy_and_pickle_round_trip(poly):
    for twin in (copy.copy(poly), copy.deepcopy(poly),
                 pickle.loads(pickle.dumps(poly))):
        assert type(twin) is Poly
        assert twin == poly
        assert [type(c) for c in twin.coeffs] == [type(c) for c in poly.coeffs]
    with pytest.raises(AttributeError, match="Poly is immutable"):
        poly.backend = FLOAT


# -- bit identity with the coercing ring ----------------------------------------
#
# Reference copies of the ring as it was when every result went back through
# the coercing Poly(...) constructor; the ring's own results must match them
# bit for bit (float.hex of both parts, -0.0 included), and exact ones must
# be equal RationalComplex values.


def _ref_as_poly(p, other):
    if isinstance(other, Poly):
        return other
    return Poly.constant(as_scalar(other, p.backend), p.backend)


def _ref_add(p, other):
    q = _ref_as_poly(p, other)
    pairs = zip_longest(p.coeffs, q.coeffs, fillvalue=as_scalar(0, p.backend))
    return Poly([a + b for a, b in pairs], p.backend)


def _ref_neg(p):
    return Poly([-c for c in p.coeffs], p.backend)


def _ref_sub(p, other):
    return _ref_add(p, _ref_neg(_ref_as_poly(p, other)))


def _ref_rsub(p, other):
    return _ref_add(_ref_as_poly(p, other), _ref_neg(p))


def _ref_mul(p, other):
    if not isinstance(other, Poly):
        scalar = as_scalar(other, p.backend)
        return Poly([c * scalar for c in p.coeffs], p.backend)
    if p.is_zero or other.is_zero:
        return Poly.zero(p.backend)
    out = [as_scalar(0, p.backend)] * (len(p.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(other.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out, p.backend)


def _ref_derivative(p):
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:], p.backend)


def _ref_divrem(p, divisor):
    if p.degree < divisor.degree:
        return Poly.zero(p.backend), p
    rem = list(p.coeffs)
    lead = divisor.leading()
    dd = divisor.degree
    qlen = len(rem) - dd
    quot = [as_scalar(0, p.backend)] * qlen
    for k in range(qlen - 1, -1, -1):
        factor = rem[k + dd] / lead
        quot[k] = factor
        if factor:
            for j, c in enumerate(divisor.coeffs):
                rem[k + j] = rem[k + j] - factor * c
    return Poly(quot, p.backend), Poly(rem[:dd], p.backend)


def _ref_monic(p):
    lead = p.leading()
    return Poly([c / lead for c in p.coeffs], p.backend)


def _ref_to_float(p):
    if p.backend == FLOAT:
        return p
    return Poly([complex(c) for c in p.coeffs], FLOAT)


def _ref_shift(p, z0):
    z0 = as_scalar(z0, p.backend)
    work = list(p.coeffs)
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
    return Poly(out, p.backend)


def _bits(c):
    if type(c) is complex:
        return c.real.hex(), c.imag.hex()
    assert type(c) is RationalComplex
    return c.re, c.im


def _assert_same(got, want):
    assert type(got) is Poly and got.backend == want.backend
    assert [_bits(c) for c in got.coeffs] == [_bits(c) for c in want.coeffs]


def _float_part(rng):
    return rng.choice([0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-2, 2) * 1e-7])


def _exact_part(rng):
    return rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])


def _corpus(backend, seed, size=150):
    """Seeded polynomials of ragged lengths 0..6, with +-0.0 in either part
    of a float coefficient."""
    rng = random.Random(seed)
    polys = []
    for _ in range(size):
        if backend == FLOAT:
            coeffs = [complex(_float_part(rng), _float_part(rng))
                      for _ in range(rng.randint(0, 6))]
        else:
            coeffs = [RationalComplex(_exact_part(rng), _exact_part(rng))
                      for _ in range(rng.randint(0, 6))]
        polys.append(Poly(coeffs, backend))
    return polys


SCALARS = {
    EXACT: [0, 3, -2, Fraction(-3, 7), RationalComplex(Fraction(1, 2), -1), RationalComplex(0)],
    FLOAT: [0, 3, -2, Fraction(-3, 7), RationalComplex(Fraction(1, 2), -1),
            complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.5, 0.25), 0.1],
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_ring_results_are_bit_identical_to_the_coercing_ring(backend):
    polys = _corpus(backend, "ring/%s" % backend)
    pairs = list(zip(polys, polys[1:] + polys[:1])) + [(p, p) for p in polys[:20]]
    for p, q in pairs:
        _assert_same(p + q, _ref_add(p, q))
        _assert_same(p - q, _ref_sub(p, q))
        _assert_same(q - p, _ref_sub(q, p))
        _assert_same(p * q, _ref_mul(p, q))
        _assert_same(-p, _ref_neg(p))
        _assert_same(p.derivative(), _ref_derivative(p))
        _assert_same(p.to_float(), _ref_to_float(p))
        assert _bits(p.coeff(p.degree + 3)) == _bits(as_scalar(0, backend))
        if not q.is_zero:
            for got, want in zip(p.divrem(q), _ref_divrem(p, q)):
                _assert_same(got, want)
        if not p.is_zero:
            _assert_same(p.monic(), _ref_monic(p))
        for scalar in SCALARS[backend]:
            _assert_same(p + scalar, _ref_add(p, scalar))
            _assert_same(scalar + p, _ref_add(p, scalar))
            _assert_same(p - scalar, _ref_sub(p, scalar))
            _assert_same(scalar - p, _ref_rsub(p, scalar))
            _assert_same(p * scalar, _ref_mul(p, scalar))
            _assert_same(scalar * p, _ref_mul(p, scalar))
            _assert_same(p.shift(scalar), _ref_shift(p, scalar))
        if backend == EXACT:
            for op in (p.__add__, p.__sub__, p.__rsub__, p.__mul__):
                assert op(1j) is NotImplemented


def test_longer_operand_with_a_negative_zero_coefficient_minus_a_shorter_one():
    # the shorter side's pad is +0, added: a - b, or a -0 pad, keeps -0.0
    long = Poly([1.0, complex(-0.0, -0.0), complex(-0.0, 1.0), 1.0], FLOAT)
    for short in (Poly([2.0], FLOAT), Poly([2.0, 0.5], FLOAT)):
        got, want = long - short, _ref_sub(long, short)
        _assert_same(got, want)
        assert _bits(got.coeffs[2]) == ((0.0).hex(), (1.0).hex())
