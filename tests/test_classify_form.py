"""The reduced form and the class label classify prints for each branch.

classify takes tau = tau~ + 2 pi and h = g + pi' from the branch, and
labels it against a catalog that builds each family's pi parts once.
These tests hold both to copies of what they replaced: sigma_bar divided
by sigma, and a catalog that built every class pi on its own, each
compared with the branch pi as a Poly difference. The grid is seeded:
planted branches on sigma with rational, irrational and repeated roots
in both modes, and Heun and confluent Heun equations, in both backends.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from heunforge.che import CHE_CLASSES, CheParams, che_match, che_to_nu
from heunforge.cli import _branch_label, cmd_classify
from heunforge.engine import CLASSIC, EXTENDED, NuEquation, enumerate_branches
from heunforge.family import class_catalog
from heunforge.heun import HEUN_CLASSES, HeunParams, heun_match, heun_to_nu
from heunforge.poly import Poly, format_poly, parse_poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex, as_scalar

# -- what classify printed before -------------------------------------------------


def _divided(eq, b):
    """(tau, h) as classify printed them before it took them from the
    branch: sigma_bar = sigma~ + pi^2 + pi (tau~ - sigma') + pi' sigma
    divided by sigma, on the float copy of an exact equation for a float
    branch. None where that division rejects the branch: a remainder
    above 1e-10 of max(1, |sigma_bar|), or h above the mode's degree."""
    if eq.backend != b.backend:
        eq = eq.to_float()
    pi = b.pi
    sigma_bar = (eq.sigma_tilde + pi * pi + pi * (eq.tau_tilde - eq.sigma.derivative())
                 + pi.derivative() * eq.sigma)
    h, rem = sigma_bar.divrem(eq.sigma)
    if not rem.negligible(1e-10 * max(sigma_bar.max_abs(), 1.0)):
        return None
    if h.degree > (1 if eq.mode == EXTENDED else 0):
        return None
    return eq.tau_tilde + pi + pi, h


def _heun_pi(flags, p):
    backend = p.backend
    z, one = Poly.x(backend), Poly.one(backend)
    ac, unit = Poly.constant(p.a, backend), as_scalar(1, backend)
    parts = (
        (z - one) * (z - ac) * (unit - p.gamma),
        z * (z - ac) * (unit - p.delta),
        z * (z - one) * (unit - p.epsilon),
    )
    out = Poly.zero(backend)
    for flag, part in zip(flags, parts):
        if flag:
            out = out + part
    return out


def _che_pi(flags, p):
    backend = p.backend
    z, one = Poly.x(backend), Poly.one(backend)
    parts = (z * (z - one) * (-p.alpha), (z - one) * (-p.beta), z * (-p.gamma))
    out = Poly.zero(backend)
    for flag, part in zip(flags, parts):
        if flag:
            out = out + part
    return out


def _old_catalog(heun_p, che_p):
    """(label, float pi) of every class, each class pi built on its own."""
    if heun_p is not None:
        return [(c.label, _heun_pi(c.flags, heun_p).to_float()) for c in HEUN_CLASSES]
    if che_p is not None:
        return [(c.label, _che_pi(c.flags, che_p).to_float()) for c in CHE_CLASSES]
    return []


def _old_label(b, catalog):
    pi = b.pi.to_float()
    scale = max(pi.max_abs(), 1.0)
    for label, cls_pi in catalog:
        if (pi - cls_pi).max_abs() <= 1e-8 * scale:
            return label
    return ""


# -- the seeded grid ----------------------------------------------------------------


def _frac(rng):
    return F(rng.randint(-24, 24), rng.randint(1, 12))


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pad(p, size):
    return p + [F(0)] * (size - len(p))


def _irreducible_quadratic(rng):
    while True:
        b, c = _frac(rng), _frac(rng)
        disc = b * b - 4 * c
        if disc < 0 or round(disc.numerator ** 0.5) ** 2 != disc.numerator \
                or round(disc.denominator ** 0.5) ** 2 != disc.denominator:
            return [c, b, F(1)]


def _sigma(shape, rng):
    r = _frac(rng)
    d = r + (_frac(rng) or F(1))
    lin = [-r, F(1)]
    cubic = {
        "rational": lambda: _times(_times(lin, [-d, F(1)]), [-(d + 1), F(1)]),
        "irrational": lambda: _times(_irreducible_quadratic(rng), lin),
        "cube": lambda: _times(_times(lin, lin), lin),
        "square-linear": lambda: _times(_times(lin, lin), [-d, F(1)]),
        "square": lambda: _times(lin, lin),
        "rational2": lambda: _times(lin, [-d, F(1)]),
        "irrational2": lambda: _irreducible_quadratic(rng),
        "square2": lambda: _times(lin, lin),
        "linear": lambda: lin,
    }[shape]()
    lead = _frac(rng) or F(1)
    return [lead * c for c in cubic]


EXTENDED_SHAPES = ("rational", "irrational", "cube", "square-linear", "square")
CLASSIC_SHAPES = ("rational2", "irrational2", "square2", "linear")


def _planted(shape, mode, rng):
    """(tau~, sigma, sigma~) with a planted branch pi0 and its g0:
    sigma~ = g0 sigma - pi0^2 - pi0 (tau~ - sigma')."""
    width = 3 if mode == EXTENDED else 2
    sigma = _sigma(shape, rng)
    tau = [_frac(rng) for _ in range(width)]
    pi = [_frac(rng) for _ in range(width)]
    g = [_frac(rng) for _ in range(width - 1)]
    dsigma = [c * j for j, c in enumerate(sigma)][1:]
    gap = [t - ds for t, ds in zip(_pad(tau, 3), _pad(dsigma, 3))]
    terms = [_pad(_times(*pair), 5) for pair in ((g, sigma), (pi, pi), (pi, gap))]
    sigma_tilde = [a - b - c for a, b, c in zip(*terms)]
    return tuple(Poly([RationalComplex(c) for c in p], EXACT)
                 for p in (tau, sigma, sigma_tilde))


def _family(i, rng):
    """(tau~, sigma, sigma~) of a Heun (even i) or confluent Heun (odd i)
    equation; one in four has a degenerate exponent parameter, which
    makes classes share a pi."""
    rc = RationalComplex
    degenerate = rng.random() < 0.25
    if i % 2 == 0:
        a = _frac(rng)
        while a in (0, 1):
            a = _frac(rng)
        exps = [_frac(rng) for _ in range(3)]
        if degenerate:
            exps[rng.randrange(3)] = F(1)
        alpha = _frac(rng)
        beta = sum(exps) - 1 - alpha
        eq = heun_to_nu(HeunParams(rc(a), rc(_frac(rng)), rc(alpha), rc(beta),
                                   *(rc(e) for e in exps)))
    else:
        exps = [_frac(rng) for _ in range(3)]
        if degenerate:
            exps[rng.randrange(3)] = F(0)
        eq = che_to_nu(CheParams(*(rc(e) for e in exps), rc(_frac(rng)), rc(_frac(rng))))
    return eq.tau_tilde, eq.sigma, eq.sigma_tilde


def _grid(seed):
    rng = random.Random(seed)
    for k in range(40):
        shape = EXTENDED_SHAPES[k % len(EXTENDED_SHAPES)]
        yield EXTENDED, _planted(shape, EXTENDED, rng)
    for k in range(24):
        shape = CLASSIC_SHAPES[k % len(CLASSIC_SHAPES)]
        yield CLASSIC, _planted(shape, CLASSIC, rng)
    for i in range(24):
        yield EXTENDED, _family(i, rng)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_printed_form_and_labels_match_the_division_and_the_old_catalog(backend):
    tally = dict.fromkeys(("divided", "float_in_exact", "labelled"), 0)
    for i, (mode, polys) in enumerate(_grid(seed=2201)):
        texts = [format_poly(p) for p in polys]
        args = SimpleNamespace(mode=mode, tau=texts[0], sigma=texts[1], sigma_tilde=texts[2])
        eq = NuEquation(*(parse_poly(t, backend) for t in texts), mode=mode)
        branches = enumerate_branches(eq)
        _, entries, _ = cmd_classify(args, backend)
        assert len(entries) == len(branches), i
        catalog = _old_catalog(heun_match(eq), che_match(eq))
        p = heun_match(eq) or che_match(eq)
        assert [label for label, _ in (class_catalog(p) if p else [])] == \
            [label for label, _ in catalog], i
        for b, entry in zip(branches, entries):
            assert (entry["g"], entry["pi"], entry["sign"]) == (b.g, b.pi, b.sign), i
            assert entry["class"] == _old_label(b, catalog), i
            tally["labelled"] += bool(entry["class"])
            tally["float_in_exact"] += b.backend != eq.backend
            divided = _divided(eq, b)
            if divided is None:
                continue
            tally["divided"] += 1
            tau, h = divided
            assert entry["tau"] == tau, i
            if b.backend == EXACT:
                assert entry["h"] == h, i
            else:
                assert (entry["h"] - h).max_abs() <= 1e-12 * h.max_abs(), i
    assert tally["divided"] > 200 and tally["labelled"] > 50
    if backend == EXACT:
        # sigma with an irrational root gives an exact equation float branches
        assert tally["float_in_exact"] > 0


def test_a_label_gap_beyond_float_range_overflows():
    # a branch pi of 1e308 against a catalog pi of -1e308: the Poly
    # difference overflowed, and the coefficient gap does as well
    branch = SimpleNamespace(pi=Poly([1e308], FLOAT))
    with pytest.raises(OverflowError):
        _branch_label(branch, [("I", (complex(-1e308),))])
    assert _old_label(branch, [("I", Poly([1e300], FLOAT))]) == \
        _branch_label(branch, [("I", (complex(1e300),))]) == ""
