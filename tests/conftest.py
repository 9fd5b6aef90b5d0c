"""Shared fixtures."""

import cmath
import math

import pytest

from heunforge import oracle


@pytest.fixture
def contour_samples(monkeypatch):
    """Set the residual contour's circle to `samples` points, built by the
    formula of oracle's CONTOUR_SAMPLES-point circle, which is kept as it is
    for that count. The contour cache is emptied on the way in and out, so
    no contour built on another circle outlives the test."""
    def use(samples):
        oracle._pushed_contour.cache_clear()
        if samples != oracle.CONTOUR_SAMPLES:
            units = [cmath.exp(2j * math.pi * k / samples) for k in range(samples)]
            monkeypatch.setattr(oracle, "_CIRCLE", tuple(
                (oracle.CONTOUR_CENTER + oracle.CONTOUR_RADIUS * unit, unit) for unit in units))
    yield use
    oracle._pushed_contour.cache_clear()
