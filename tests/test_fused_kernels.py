"""The exact ring kernels that reduce once per result coefficient (Poly
`*`, `-`, divrem, shift, Horner and the exact elimination in
engine._nullspace) against an independent reference: polynomials as
lists of (re, im) Fraction pairs, with the textbook formulas (the
Cauchy product, the binomial expansion of p(z + z0), the power sum),
on seeded Gaussian-rational operands of degree 0 to 6."""

import math
import random
from fractions import Fraction

import pytest

from heunforge.engine import _nullspace
from heunforge.poly import Poly
from heunforge.scalars import EXACT, RationalComplex, _convolve, _mul_add

# -- reference: coefficients as (re, im) Fraction pairs ------------------------


def _pair(c):
    return (c.re, c.im) if isinstance(c, RationalComplex) else (Fraction(c), Fraction(0))


def _ref(p):
    return [_pair(c) for c in p.coeffs]


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == (0, 0):
        cs.pop()
    return cs


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _neg(x):
    return (-x[0], -x[1])


def _ref_mul(a, b):
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _add(out[i + j], _mul(x, y))
    return _trimmed(out)


def _ref_sub(a, b):
    zero = (Fraction(0), Fraction(0))
    n = max(len(a), len(b))
    a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
    return _trimmed(_add(x, _neg(y)) for x, y in zip(a, b))


def _ref_value(a, z):
    total, power = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for c in a:
        total = _add(total, _mul(c, power))
        power = _mul(power, z)
    return total


def _ref_shift(a, z0):
    """p(z + z0) = sum_k c_k sum_j C(k, j) z0^(k - j) z^j."""
    out = [(Fraction(0), Fraction(0))] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            power = (Fraction(1), Fraction(0))
            for _ in range(k - j):
                power = _mul(power, z0)
            term = _mul(c, power)
            out[j] = _add(out[j], (math.comb(k, j) * term[0], math.comb(k, j) * term[1]))
    return _trimmed(out)


# -- operands -------------------------------------------------------------------


def _part(rng):
    """A rational part: zero, a small int, a mixed denominator, or an int
    near 10^40."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.choice((2, 3, 4, 6, 7, 12, 35, 360)))
    if kind == 3:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5))
    return Fraction(rng.choice((-1, 1)) * 10**40 + rng.randint(-10**3, 10**3),
                    rng.choice((1, 3, 10**20 + 7)))


def _scalar(rng):
    shape = rng.randrange(4)
    re = Fraction(0) if shape == 1 else _part(rng)
    im = Fraction(0) if shape == 2 else _part(rng)
    return RationalComplex(re, im)


def _poly(rng, nonzero=False):
    coeffs = [_scalar(rng) for _ in range(rng.randint(1, 7))]
    if nonzero and not any(coeffs):
        coeffs[-1] = RationalComplex(1)
    return Poly(coeffs, EXACT)


def _canonical(values):
    for v in values:
        a, b, d = v._abd
        assert type(a) is int and type(b) is int and type(d) is int
        assert d > 0 and math.gcd(a, b, d) == 1


CASES = 300


def test_product_and_difference_match_the_reference():
    rng = random.Random("fused/ring")
    for _ in range(CASES):
        p, q = _poly(rng), _poly(rng)
        for got, want in ((p * q, _ref_mul(_ref(p), _ref(q))),
                          (p - q, _ref_sub(_ref(p), _ref(q))),
                          (q - p, _ref_sub(_ref(q), _ref(p))),
                          (p - p, [])):
            assert got.backend == EXACT and _ref(got) == want
            _canonical(got.coeffs)


def test_int_and_bool_scalars_match_the_reference():
    rng = random.Random("fused/scalars")
    for _ in range(CASES):
        p = _poly(rng)
        for k in (rng.randint(-50, 50), 10**40 + rng.randint(0, 9), True, False):
            for got in (p * k, k * p):
                assert _ref(got) == _ref_mul(_ref(p), [(Fraction(k), Fraction(0))])
                _canonical(got.coeffs)
            c = p.coeff(0)
            for got in (c * k, k * c):
                assert _pair(got) == _mul(_pair(c), (Fraction(k), Fraction(0)))
                _canonical([got])


def test_negation_and_multiply_add_are_canonical():
    rng = random.Random("fused/scalar-kernels")
    for _ in range(CASES):
        x, y, c = _scalar(rng), _scalar(rng), _scalar(rng)
        _canonical([-x])
        assert _pair(-x) == _neg(_pair(x))
        got = _mul_add(x, y, c)
        _canonical([got])
        assert _pair(got) == _add(_mul(_pair(x), _pair(y)), _pair(c))


def test_convolve_matches_the_reference():
    rng = random.Random("fused/convolve")
    for _ in range(CASES):
        p, q = _poly(rng, nonzero=True), _poly(rng, nonzero=True)
        got = _convolve(p.coeffs, q.coeffs)
        _canonical(got)
        want = _ref_mul(_ref(p), _ref(q))
        assert _trimmed(_pair(c) for c in got) == want


def test_shift_and_horner_match_the_reference():
    rng = random.Random("fused/shift")
    for _ in range(CASES):
        p, z0 = _poly(rng), _scalar(rng)
        shifted = p.shift(z0)
        _canonical(shifted.coeffs)
        assert _ref(shifted) == _ref_shift(_ref(p), _pair(z0))
        for z in (z0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), 7)):
            value = p(z)
            assert isinstance(value, RationalComplex)
            _canonical([value])
            assert _pair(value) == _ref_value(_ref(p), _pair(z))


def test_divrem_is_a_division_with_a_lower_remainder():
    rng = random.Random("fused/divrem")
    for _ in range(CASES):
        p, d = _poly(rng), _poly(rng, nonzero=True)
        q, r = p.divrem(d)
        _canonical(q.coeffs + r.coeffs)
        assert r.degree < d.degree
        back = _ref_mul(_ref(q), _ref(d))
        assert _ref_sub(_ref(p), back) == _ref(r)


def test_division_by_a_zero_scalar_keeps_its_message():
    for zero in (0, False, Fraction(0), RationalComplex(0)):
        with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
            RationalComplex(3, 1) / zero
    with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
        1 / RationalComplex(0)
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        Poly([1, 2], EXACT).divrem(Poly([], EXACT))


def _ref_rank(rows):
    """Rank of a matrix of (re, im) pairs by reference elimination."""
    mat, rank = [list(r) for r in rows], 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        a, b = mat[rank][c]
        norm = a * a + b * b
        inv = (a / norm, -b / norm)
        for i in range(len(mat)):
            if i != rank and mat[i][c] != (0, 0):
                f = _mul(mat[i][c], inv)
                mat[i] = [_add(x, _neg(_mul(f, y))) for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_exact_nullspace_is_a_kernel_basis():
    rng = random.Random("fused/nullspace")
    for _ in range(CASES):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[_scalar(rng) if rng.random() < 0.8 else RationalComplex(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows > 1:
            # a dependent row: a combination of the first two
            k = _scalar(rng)
            rows[-1] = [a * k + b for a, b in zip(rows[0], rows[1 % nrows])]
        basis = _nullspace(rows, EXACT)
        ref_rows = [[_pair(v) for v in row] for row in rows]
        assert len(basis) == ncols - _ref_rank(ref_rows)
        for vec in basis:
            _canonical(vec)
            for row in ref_rows:
                total = (Fraction(0), Fraction(0))
                for a, v in zip(row, vec):
                    total = _add(total, _mul(a, _pair(v)))
                assert total == (0, 0)
        # the basis is independent: its rank is its size
        assert _ref_rank([[_pair(v) for v in vec] for vec in basis]) == len(basis)
