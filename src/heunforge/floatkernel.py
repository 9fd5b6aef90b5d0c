"""The float kernel: every numpy call of the package, and the one module
that imports numpy. Its callers import it inside the functions that need
it, so a run with no float roots of sigma, eigenvalues, null vectors or
contour never loads numpy: an exact `classify` whose sigma has
Gaussian-rational roots, whose branches, exact or float, come from the
engine's own elimination, or `app coulomb3s`. An exact solve's
coefficient map is an object array made here too.
"""

from __future__ import annotations

import math

import numpy as np

from .poly import TRIM_REL


def companion_roots(body):
    """Roots of the monic z^n + body[n-1] z^(n-1) + ... + body[0], n >= 2,
    as the eigenvalues of its companion matrix."""
    n = len(body)
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-v for v in body]
    return [complex(v) for v in np.linalg.eigvals(comp)]


def full(shape, zero):
    """An array of this shape filled with `zero`: complex for a complex
    zero, else of objects (exact scalars)."""
    return np.full(shape, zero, dtype=complex if isinstance(zero, complex) else object)


def accessory_values(mat, n: int, direction: complex, tol: float):
    """The accessory values -lambda / direction of oracle.termination_solve
    from the degree-n coefficient map `mat`, unsorted, at tolerance tol."""
    if not np.isfinite(mat).all():
        raise OverflowError("coefficient map overflows the float range")
    # checked on mat / unit, exact for a power of two, so no norm overflows
    unit = 2.0 ** math.frexp(max(np.abs(mat).max(), 1.0))[1]
    scaled = mat / unit
    scale = np.linalg.norm(scaled)
    if abs(scaled[n + 1, n]) > tol * scale:
        return []
    lams, vecs = np.linalg.eig(mat[: n + 1])
    resid = scaled @ vecs
    resid[: n + 1] -= vecs * (lams / unit)
    errors = np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)
    return [complex(-lam / direction)
            for lam, err in zip(lams, errors) if err <= tol * scale]


def with_h(fixed, h):
    """The coefficient map of sigma y'' + tau y' + h y from `fixed`, the
    map with h = 0: h adds h[0] on the diagonal and h[1] below it. In
    floats, a column's top entry at or below TRIM_REL of the column's
    largest counts as zero, as in the column's trimmed Poly."""
    out = fixed.copy()
    cols = np.arange(out.shape[1])
    out[cols, cols] += h.coeff(0)
    out[cols + 1, cols] += h.coeff(1)
    if out.dtype == complex:
        top = out[cols + 1, cols]
        small = np.abs(top) <= TRIM_REL * np.abs(out).max(axis=0)
        out[cols + 1, cols] = np.where(small, 0j, top)
    return out


def null_vector(mat, n: int):
    """(singular values of `mat`, largest first; its last right singular
    vector conjugated and divided by its entry n, or None if that is 0)."""
    _, svals, vh = np.linalg.svd(mat)
    vec = np.conj(vh[-1])
    if vec[n] == 0:
        return svals.tolist(), None
    return svals.tolist(), [complex(v) for v in vec / vec[n]]


def contour_residuals(z, p2, p1, logd, rows):
    """The array pass of oracle.ResidualContour.residuals, on its points
    z, values p2, p1 and logd there, and four coefficient rows per state.
    Products are written out on split real and imaginary float64 arrays in
    Python's complex order, and moduli come from hypot, since numpy's
    complex multiply and abs may round the last bit otherwise."""
    z, p2, p1 = _split(z), _split(p2), _split(p1)
    width = max(map(len, rows), default=0)
    block = np.zeros((len(rows), width), dtype=complex)  # storage only
    for row, coeffs in zip(block, rows):
        row[width - len(coeffs):] = coeffs[::-1]
    block = _split(block)[..., None]
    acc = np.zeros((2, len(rows), z.shape[1]))
    with np.errstate(all="ignore"):
        for k in range(width):
            acc = _mul(acc, z) + block[:, :, k]
        pv, dv, ddv, p0v = (acc[:, k::4] for k in range(4))
        if logd is None:
            w1, w2, big1, big2 = dv, ddv, np.hypot(*dv), np.hypot(*ddv)
        else:
            lval, twice, curv = (_split(column) for column in logd)
            lp, tdv, cp = _mul(lval, pv), _mul(twice, dv), _mul(curv, pv)
            w1, w2 = dv + lp, ddv + tdv + cp
            big1 = np.hypot(*dv) + np.hypot(*lp)
            big2 = np.hypot(*ddv) + np.hypot(*tdv) + np.hypot(*cp)
        t2, t1, t0 = _mul(p2, w2), _mul(p1, w1), _mul(p0v, pv)
        a2, a1, a0 = _abs(t2), _abs(t1), _abs(t0)
        # max(a2, a1, a0) as Python's max takes it, NaN included
        scale = np.where(a1 > a2, a1, a2)
        scale = np.where(a0 > scale, a0, scale)
        big = np.maximum(np.hypot(*p2) * big2, np.hypot(*p1) * big1)
        ratio = _abs(t2 + t1 + t0) / scale
        ratio[scale <= 64 * np.finfo(float).eps * np.maximum(big, a0)] = np.nan
    return np.fmax.reduce(ratio, axis=1, initial=0.0).tolist()


def _split(values):
    arr = np.array(values, dtype=complex)  # storage only
    return np.stack((arr.real, arr.imag))


def _mul(a, b):
    """Product of (real, imaginary) stacks, as Python's complex multiply."""
    return np.stack((a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))


def _abs(a):
    """Modulus of a (real, imaginary) stack, as Python's abs of a complex."""
    out = np.hypot(*a)
    if np.isinf(out[np.isfinite(a).all(axis=0)]).any():
        raise OverflowError("absolute value too large")
    return out
