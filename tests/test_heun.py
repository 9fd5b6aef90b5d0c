"""Three-singular-point polynomial classes: catalog, relations, spectra."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from heunforge.engine import (
    NoBranchError,
    branch_from_pi,
    enumerate_branches,
    quantization,
    reduce_branch,
)
from heunforge.heun import (
    HEUN_CLASSES,
    HeunParams,
    heun_accessory,
    heun_class,
    heun_class_relation,
    heun_eigenstate,
    heun_nu_from_product,
    heun_params_for_class,
    heun_to_nu,
)
from heunforge.oracle import OdeFamily, termination_polynomial
from heunforge.poly import Poly
from heunforge.scalars import EXACT, RationalComplex

F = Fraction


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


FUCHSIAN = HeunParams(a=2.3, q=0.41, alpha=1.1, beta=0.25, gamma=0.7,
                      delta=1.2, epsilon=1.1 + 0.25 - 0.7 - 1.2 + 1)


def test_params_validation():
    with pytest.raises(ValueError, match="differ from 0 and 1"):
        HeunParams(0.0, 0.1, 1.0, 1.0, 0.5, 0.5, 2.0)
    with pytest.raises(ValueError, match="exponent-sum"):
        HeunParams(2.0, 0.1, 1.0, 1.0, 0.5, 0.5, 1.0)
    assert abs(complex(FUCHSIAN.product) - 1.1 * 0.25) < 1e-14


def test_params_zero_tests_follow_the_backend():
    # an exact a counts as 0 only when it is 0; a float one within 1e-12
    tiny = rc(F(1, 10**13))
    p = HeunParams(tiny, rc(0), rc(1), rc(1), rc(F(1, 2)), rc(F(1, 2)), rc(2))
    assert p.a == tiny
    HeunParams(1 + tiny, rc(0), rc(1), rc(1), rc(F(1, 2)), rc(F(1, 2)), rc(2))
    for a in (0.0, 1e-13, 1.0 + 1e-13):
        with pytest.raises(ValueError, match="differ from 0 and 1"):
            HeunParams(a, 0.1, 1.0, 1.0, 0.5, 0.5, 2.0)
    # and the exponent-sum gap likewise
    with pytest.raises(ValueError, match="exponent-sum"):
        HeunParams(rc(2), rc(0), rc(1), rc(1), rc(F(1, 2)), rc(F(1, 2)),
                   rc(2) + tiny)
    HeunParams(2.0, 0.1, 1.0, 1.0, 0.5, 0.5, 2.0 + 1e-13)


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown class"):
        heun_class("IX")
    assert heun_class("iv").label == "IV"


def test_non_text_label_rejected_like_unknown_text():
    # a label is matched as text, so a number is an unknown class, not a
    # crash on .upper()
    with pytest.raises(ValueError, match="unknown class"):
        heun_class(3)


def test_catalog_is_exactly_the_enumeration():
    eq = heun_to_nu(FUCHSIAN)
    branches = enumerate_branches(eq)
    assert len(branches) == 8
    for cls in HEUN_CLASSES:
        target = cls.pi(FUCHSIAN)
        hits = [b for b in branches
                if (b.pi.to_float() - target).max_abs() < 1e-8]
        assert len(hits) == 1, cls.label


def test_relation_matches_quantization_slope():
    eq = heun_to_nu(FUCHSIAN)
    for cls in HEUN_CLASSES:
        b = branch_from_pi(eq, cls.pi(FUCHSIAN))
        for n in (0, 1, 2, 3, 7):
            qr = quantization(eq, b, n)
            rel = heun_class_relation(FUCHSIAN, cls.label, n)
            assert abs(complex(qr.slope_residual) - complex(rel)) < 1e-9, (
                cls.label, n)


def test_product_values_all_shapes():
    # one frozen value per flag count, n = 1
    g, d, e = rc(F(1, 2)), rc(F(1, 3)), rc(F(1, 4))
    assert heun_class("I").product_value(1, g, d, e) == -(g + d + e)
    assert heun_class("II").product_value(1, g, d, e) == (g - 2) * (d + e + 1)
    assert heun_class("IV").product_value(1, g, d, e) == (g + d - 3) * (e + 2)
    assert heun_class("VIII").product_value(1, g, d, e) == 3 * (g + d + e - 4)


def test_accessory_class_one_matches_two_by_two_determinant():
    av, gv, dv, ev = 1.9, 0.6, 0.8, 0.7
    p = heun_params_for_class("I", 1, av, gv, dv, ev)
    ab = complex(p.product)
    got = sorted(heun_accessory(p, "I", 1), key=lambda v: v.real)
    # det [[q, -a gamma], [-alpha beta, q + a(delta+gamma) + eps + gamma]]
    coeffs = [(-av * gv * ab).real, av * (dv + gv) + ev + gv, 1.0]
    want = sorted(np.roots(coeffs[::-1]), key=lambda v: v.real)
    assert len(got) == 2
    for x, y in zip(got, want):
        assert abs(x - y) < 1e-9


def test_exact_termination_equals_determinant_polynomial():
    # exact backend: the degree-1 truncation condition is bit-for-bit the
    # 2x2 determinant expanded as a monic quadratic in q
    p = heun_params_for_class("I", 1, rc(2), rc(F(1, 2)), rc(F(1, 3)),
                              rc(F(1, 4)))
    assert p.backend == EXACT
    eq0 = heun_to_nu(replace(p, q=rc(0)))
    b = branch_from_pi(eq0, heun_class("I").pi(p))
    rf = reduce_branch(eq0, b)
    fam = OdeFamily(rf.ode(eq0), Poly.constant(rc(-1), EXACT))
    mon = termination_polynomial(fam, 1).monic()
    ab = p.product
    det = Poly([-(p.a * p.gamma) * ab,
                p.a * (p.delta + p.gamma) + p.epsilon + p.gamma,
                rc(1)], EXACT)
    assert mon == det
    roots = heun_accessory(p, "I", 1)
    assert len(roots) == 2
    for r in roots:
        assert abs(complex(det.to_float()(r))) < 1e-9


def test_eigenstates_every_class():
    for cls in HEUN_CLASSES:
        p = heun_params_for_class(cls.label, 2, 1.9, 0.6, 0.8, 0.7)
        roots = heun_accessory(p, cls.label, 2)
        assert roots, cls.label
        p2 = replace(p, q=roots[0])
        st = heun_eigenstate(p2, cls.label, 2)
        assert st.poly.degree == 2
        assert st.residual < 1e-9, (cls.label, st.residual)
        # prefactor exponents at (0, 1, a) follow the class flags
        exps = cls.exponents(p2)
        by_root = sorted(st.phi.powers, key=lambda t: t[0].real)
        order = sorted([(0.0, exps[0]), (1.0, exps[1]), (1.9, exps[2])])
        for (rt, ex), (wrt, wex) in zip(by_root, order):
            assert abs(rt - wrt) < 1e-8 and abs(ex - complex(wex)) < 1e-8, (
                cls.label,)


def test_wrong_degree_relation_rejected():
    p = heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)
    with pytest.raises(NoBranchError, match="does not admit"):
        heun_accessory(p, "I", 3)


def test_accessory_perturbation_degrades_residual():
    # assembling at a perturbed accessory is refused outright (no
    # polynomial solution exists there), and the good eigenfunction shows
    # a visibly nonzero residual against the perturbed equation
    p = heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)
    q0 = heun_accessory(p, "I", 2)[0]
    good = heun_eigenstate(replace(p, q=q0), "I", 2)
    assert good.residual < 1e-9
    with pytest.raises(NoBranchError):
        heun_eigenstate(replace(p, q=q0 + 1e-3), "I", 2)
    from heunforge.oracle import ode_residual

    off_eq = heun_to_nu(replace(p, q=q0 + 1e-3))
    assert ode_residual(good, off_eq.psi_ode()) > 1e-4


def test_nu_from_product_matches_split_form():
    eq1 = heun_to_nu(FUCHSIAN)
    eq2 = heun_nu_from_product(FUCHSIAN.a, FUCHSIAN.q, FUCHSIAN.product,
                               FUCHSIAN.gamma, FUCHSIAN.delta,
                               FUCHSIAN.epsilon)
    assert (eq1.sigma_tilde - eq2.sigma_tilde).max_abs() < 1e-12
    assert (eq1.tau_tilde - eq2.tau_tilde).max_abs() < 1e-12
