"""The float kernel: every numpy call of the package, and the one module
that imports numpy. Its callers reach it through `poly.float_kernel()`,
which imports it on its first call, so a run with no float roots of
sigma, eigenvalues, null vectors or contour never loads numpy: an exact
`classify` whose sigma has Gaussian-rational roots, whose branches, exact
or float, come from the engine's own elimination, or `app coulomb3s`. An
exact solve's coefficient map is an object array made here too.
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
    map with h = 0: h adds h[0] on the diagonal and h[1] below it, both
    strided views of the flat copy. In floats, a column's top entry at or
    below TRIM_REL of the column's largest counts as zero, as in the
    column's trimmed Poly."""
    out = fixed.copy()
    flat, step = out.reshape(-1), out.shape[1] + 1
    flat[::step] += h.coeff(0)
    top = flat[step - 1::step]
    top += h.coeff(1)
    if out.dtype == complex:
        top[np.abs(top) <= TRIM_REL * np.abs(out).max(axis=0)] = 0j
    return out


def null_vector(mat, n: int):
    """(singular values of `mat`, largest first; its last right singular
    vector conjugated and divided by its entry n, or None if that is 0)."""
    _, svals, vh = np.linalg.svd(mat)
    vec = np.conj(vh[-1])
    if vec[n] == 0:
        return svals.tolist(), None
    return svals.tolist(), (vec / vec[n]).tolist()


def contour_residuals(z, p2, p1, logd, rows):
    """The array pass of oracle.ResidualContour.residuals, on its points
    z, values p2, p1 and logd there, and four coefficient rows per state.
    Each complex value is a pair of float64 arrays, real and imaginary;
    the Horner loop runs in place on preallocated ones. Products are
    written out in Python's complex order, and moduli come from hypot,
    since numpy's complex multiply and abs may round the last bit
    otherwise."""
    z, p2, p1 = _parts(z), _parts(p2), _parts(p1)
    width = max(map(len, rows), default=0)
    block = np.zeros((len(rows), width), dtype=complex)  # storage only
    for row, coeffs in zip(block, rows):
        row[width - len(coeffs):] = coeffs[::-1]
    block = _parts(block.T[:, :, None])
    shape = (len(rows), len(z[0]))
    ar, ai, im, tmp = (np.zeros(shape) for _ in range(4))
    with np.errstate(all="ignore"):
        for br, bi in zip(*block):
            # (ar, ai) = (ar, ai) * z + b: re = ar zr - ai zi, im = ar zi + ai zr
            np.multiply(ar, z[1], out=im)
            np.multiply(ai, z[0], out=tmp)
            np.add(im, tmp, out=im)
            np.multiply(ar, z[0], out=ar)
            np.multiply(ai, z[1], out=tmp)
            np.subtract(ar, tmp, out=ar)
            np.add(ar, br, out=ar)
            np.add(im, bi, out=ai)
        pv, dv, ddv, p0v = ((ar[k::4], ai[k::4]) for k in range(4))
        if logd is None:
            w1, w2, big1, big2 = dv, ddv, np.hypot(*dv), np.hypot(*ddv)
        else:
            lval, twice, curv = (_parts(column) for column in logd)
            lp, tdv, cp = _times(lval, pv), _times(twice, dv), _times(curv, pv)
            w1 = (dv[0] + lp[0], dv[1] + lp[1])
            w2 = (ddv[0] + tdv[0] + cp[0], ddv[1] + tdv[1] + cp[1])
            big1 = np.hypot(*dv) + np.hypot(*lp)
            big2 = np.hypot(*ddv) + np.hypot(*tdv) + np.hypot(*cp)
        t2, t1, t0 = _times(p2, w2), _times(p1, w1), _times(p0v, pv)
        a2, a1, a0 = _modulus(t2), _modulus(t1), _modulus(t0)
        # max(a2, a1, a0) as Python's max takes it, NaN included
        scale = np.where(a1 > a2, a1, a2)
        scale = np.where(a0 > scale, a0, scale)
        big = np.maximum(np.hypot(*p2) * big2, np.hypot(*p1) * big1)
        total = (t2[0] + t1[0] + t0[0], t2[1] + t1[1] + t0[1])
        ratio = _modulus(total) / scale
        ratio[scale <= 64 * np.finfo(float).eps * np.maximum(big, a0)] = np.nan
    return np.fmax.reduce(ratio, axis=1, initial=0.0).tolist()


def _parts(values):
    """(real, imaginary) float64 arrays of complex values."""
    arr = np.asarray(values, dtype=complex)  # storage only
    return arr.real.copy(), arr.imag.copy()


def _times(a, b):
    """Product of (real, imaginary) pairs, as Python's complex multiply."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _modulus(a):
    """Modulus of a (real, imaginary) pair, as Python's abs of a complex:
    infinite from finite parts overflows (scanned past a non-finite one)."""
    out = np.hypot(*a)
    if not np.isfinite(out).all() and np.isinf(
            out[np.isfinite(a[0]) & np.isfinite(a[1])]).any():
        raise OverflowError("absolute value too large")
    return out
