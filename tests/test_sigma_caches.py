"""The per-process caches of sigma-only float work: the residual contour of
a p2 (oracle._contour) and the simple roots of sigma with sigma' there
(engine._simple_roots). A hit must return, bit for bit, what a fresh
build returns; the key is the bits of the coefficients, so a -0.0 and a
+0.0 coefficient get separate entries; a refusal is raised again on every
call, never kept."""

import cmath
import contextlib
import io
import math
import random

import numpy as np
import pytest

from heunforge import cli, floatkernel, oracle
from heunforge.engine import _prefactor, _simple_roots
from heunforge.oracle import (
    CACHE_SIZE, CONTOUR_SAMPLES, OdeForm, ResidualContour, _contour, _pushed_contour,
    ode_residual,
)
from heunforge.poly import Poly
from heunforge.scalars import FLOAT


def _bits(values):
    assert all(type(v) is complex for v in values)
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _fresh_contour(p2, samples=CONTOUR_SAMPLES):
    """(points, p2 at the points) as the contour was built before the
    cache: one cmath.exp per point and Poly calls."""
    p2f = p2.to_float()
    sing = p2f.roots() if p2f.degree >= 1 else []
    points = []
    for k in range(samples):
        z = 0.5 + 0.45 * cmath.exp(2j * math.pi * k / samples)
        for _ in range(4):
            offender = next((s for s in sing if abs(z - s) < 0.1), None)
            if offender is None:
                break
            gap = z - offender
            if abs(gap) == 0.0:
                gap = cmath.exp(2j * math.pi * k / samples)
            z = offender + 0.1 * gap / abs(gap)
        else:
            continue
        points.append(z)
    if not points:
        raise ValueError("every sample point sits too close to a singularity")
    return points, [p2f(z) for z in points]


def _fresh_roots(sigma):
    """(root, sigma'(root)) pairs as _prefactor built them before the cache."""
    sigma = sigma.to_float()
    roots = sigma.roots()
    sig_der = sigma.derivative()
    return [(r, sig_der(r)) for r in roots]


def _sigma_corpus():
    """Seeded float sigma of degree 1 to 3, drawn with repeats from 24
    distinct ones, so the 16-entry caches both hit and evict; the pool
    holds signed-zero twins (a -0.0 part where its twin has +0.0)."""
    rng = random.Random(3535)
    distinct = []
    while len(distinct) < 20:
        roots = [complex(rng.choice((0.0, 1.0, rng.uniform(-1, 2))),
                         rng.choice((0.0, 0.0, rng.uniform(-1, 1))))
                 for _ in range(rng.randint(1, 3))]
        sigma = Poly.one(FLOAT)
        for root in roots:
            sigma = sigma * Poly([-root, 1.0], FLOAT)
        if len(set(roots)) == len(roots):
            distinct.append(sigma)
    distinct += [Poly([0j, 1.0], FLOAT), Poly([complex(0.0, -0.0), 1.0], FLOAT),
                 Poly([0j, -1.0, 1.0], FLOAT), Poly([complex(-0.0, -0.0), -1.0, 1.0], FLOAT)]
    return [rng.choice(distinct) for _ in range(120)] + distinct


@pytest.mark.parametrize("samples", [8, CONTOUR_SAMPLES])
def test_cached_contours_and_roots_are_the_fresh_builds_to_the_bit(samples, contour_samples):
    # the one contour, and the same build on a smaller circle
    contour_samples(samples)
    _simple_roots.cache_clear()
    for sigma in _sigma_corpus():
        p2 = sigma * sigma
        points, values = _contour(p2)
        want_points, want_values = _fresh_contour(p2, samples)
        assert _bits(points) == _bits(want_points)
        assert _bits(values) == _bits(want_values)
        got = _simple_roots(sigma)
        want = _fresh_roots(sigma)
        assert [_bits(pair) for pair in got] == [_bits(pair) for pair in want]
        assert isinstance(points, tuple) and isinstance(got, tuple)
        assert _contour(p2) is _contour(p2)
        for cached in (_pushed_contour, _simple_roots):
            assert cached.cache_info().currsize <= CACHE_SIZE == 16
    for cached in (_pushed_contour, _simple_roots):
        assert cached.cache_info().hits > 0


def test_signed_zero_twins_get_their_own_entries():
    # a linear sigma's root is -c0 / c1: here 0j against -0j, not equal in bits
    plus, minus = Poly([0j, 1.0], FLOAT), Poly([complex(0.0, -0.0), 1.0], FLOAT)
    assert plus.coeffs == minus.coeffs
    _simple_roots.cache_clear()
    _pushed_contour.cache_clear()
    for _ in range(2):
        for sigma in (plus, minus):
            assert [_bits(pair) for pair in _simple_roots(sigma)] == \
                [_bits(pair) for pair in _fresh_roots(sigma)]
            points, values = _contour(sigma)
            assert (_bits(points), _bits(values)) == tuple(map(_bits, _fresh_contour(sigma)))
    assert _simple_roots.cache_info()[:4] == (2, 2, CACHE_SIZE, 2)
    assert _pushed_contour.cache_info()[:4] == (2, 2, CACHE_SIZE, 2)
    assert _bits([_simple_roots(plus)[0][0]]) != _bits([_simple_roots(minus)[0][0]])


def test_refusals_are_raised_on_every_call_and_never_kept(monkeypatch):
    # the contour cut to its first point, 0.95 with unit direction 1, so
    # that one double root crowds out every point
    monkeypatch.setattr(oracle, "_CIRCLE", oracle._CIRCLE[:1])
    z = Poly.x(FLOAT)
    double = (z - Poly.constant(0.95, FLOAT)) * (z - Poly.constant(0.95, FLOAT))
    pi = Poly([0.3, 1.0], FLOAT)
    repeated = "sigma has a repeated root; prefactor shape out of scope"
    crowded = "every sample point sits too close to a singularity"
    calls = [
        # z^2 has the float roots 0 and -0, equal
        (ValueError, repeated, lambda: _prefactor(z * z, pi)),
        # the one point sits on the double root 0.95, which the float
        # roots split: no push clears it of both copies
        (ValueError, crowded, lambda: ResidualContour(double * double, z)),
        (ValueError, crowded,
         lambda: ode_residual(Poly.one(FLOAT), OdeForm(double * double, z, z))),
        # a non-finite sigma fails in numpy's eigenvalue routine
        (np.linalg.LinAlgError, "Array must not contain infs or NaNs",
         lambda: _simple_roots(Poly([math.nan, 1.0, 1.0], FLOAT))),
    ]
    _simple_roots.cache_clear()
    _pushed_contour.cache_clear()
    for _ in range(3):
        for kind, message, call in calls:
            with pytest.raises(kind) as err:
                call()
            assert str(err.value) == message
    assert _simple_roots.cache_info().currsize == 0
    assert _pushed_contour.cache_info().currsize == 0


def _serve(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(line.split())
    return code, out.getvalue(), err.getvalue()


CHE = "solve che --class %s -n %d --alpha %s --beta %s --gamma %s"
HEUN = "solve heun --class %s -n %d --a %s --gamma 1/2 --delta 1/3 --epsilon 3/4"


def test_one_process_roots_sigma_once(monkeypatch):
    """Two companion eigenvalue problems per solve before the caches (the
    contour's p2 = sigma^2 and the prefactor's sigma); requests served in
    one process that share sigma make none, and print what a fresh
    process prints."""
    calls = []
    companion_roots = floatkernel.companion_roots

    def counted(body):
        calls.append(len(body))
        return companion_roots(body)

    monkeypatch.setattr(floatkernel, "companion_roots", counted)
    requests = [
        (CHE % ("1", 2, "3/2", "1/3", "2/5"), 2),
        (CHE % ("3", 4, "7/5", "2/3", "3/5"), 0),
        (HEUN % ("I", 2, "19/10"), 2),
        (HEUN % ("II", 3, "19/10"), 0),
        (HEUN % ("I", 2, "29/11"), 2),
    ]
    _pushed_contour.cache_clear()
    _simple_roots.cache_clear()
    warm = []
    for line, count in requests:
        calls.clear()
        warm.append(_serve(line))
        assert warm[-1][0] == 0 and len(calls) == count, line
    for (line, _), got in zip(requests, warm):
        _pushed_contour.cache_clear()
        _simple_roots.cache_clear()
        calls.clear()
        assert _serve(line) == got
        assert len(calls) == 2
