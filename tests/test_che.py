"""Two-finite-singular (confluent) polynomial classes and eigenstates."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from heunforge.che import (
    CHE_CLASSES,
    CheParams,
    che_accessory,
    che_class,
    che_class_relation,
    che_eigenstate,
    che_params_for_class,
    che_to_nu,
)
from heunforge.engine import (
    NoBranchError,
    branch_from_pi,
    enumerate_branches,
    quantization,
)
from heunforge.poly import Poly
from heunforge.scalars import EXACT, RationalComplex

F = Fraction


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


GENERIC = CheParams(alpha=1.3, beta=0.4, gamma=0.7, mu=0.9, nu=-1.1)


def test_coupling_is_mu_plus_nu():
    assert abs(complex(GENERIC.coupling) - (0.9 - 1.1)) < 1e-14


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown class"):
        che_class("9")
    assert che_class(3).label == "3"


def test_catalog_is_exactly_the_enumeration():
    eq = che_to_nu(GENERIC)
    branches = enumerate_branches(eq)
    assert len(branches) == 8
    for cls in CHE_CLASSES:
        target = cls.pi(GENERIC)
        hits = [b for b in branches
                if (b.pi.to_float() - target).max_abs() < 1e-8]
        assert len(hits) == 1, cls.label


def test_relation_matches_quantization_slope():
    eq = che_to_nu(GENERIC)
    for cls in CHE_CLASSES:
        b = branch_from_pi(eq, cls.pi(GENERIC))
        for n in (0, 1, 2, 5):
            qr = quantization(eq, b, n)
            rel = che_class_relation(GENERIC, cls.label, n)
            assert abs(complex(qr.slope_residual) - complex(rel)) < 1e-9, (
                cls.label, n)


def test_coupling_values_frozen_table():
    # (mu + nu) / alpha for each class as a function of (beta, gamma, n)
    al, be, ga = rc(F(3, 2)), rc(F(1, 3)), rc(F(2, 5))
    n = 2
    want = {
        "1": 2 + n,
        "2": -n,
        "3": ga - n,
        "4": 2 + ga + n,
        "5": be + ga - n,
        "6": 2 + be + ga + n,
        "7": be - n,
        "8": 2 + be + n,
    }
    for cls in CHE_CLASSES:
        got = cls.coupling_value(n, al, be, ga)
        assert got == al * (rc(0) + want[cls.label]), cls.label


def test_degree_one_termination_quadratic():
    # frozen: mu^2 - (2 + gamma + beta - alpha) mu - alpha (1 + beta) at
    # the class-2 coupling, roots 37/60 +/- sqrt(8569)/60
    import math

    p = che_params_for_class("2", 1, 1.5, 1 / 3, 0.4)
    roots = sorted(che_accessory(p, "2", 1), key=lambda v: v.real)
    want = sorted([37 / 60 - math.sqrt(8569) / 60,
                   37 / 60 + math.sqrt(8569) / 60])
    assert len(roots) == 2
    for x, y in zip(roots, want):
        assert abs(x - y) < 1e-10


def test_accessory_expansion_point_equivalence():
    # the accessory values are eigenvalues of the operator on polynomials,
    # so no series expansion point enters: they match the series about
    # z = 1, here mu^2 - (2 + gamma + beta - alpha) mu - alpha (1 + beta)
    p = che_params_for_class("2", 1, 1.5, 0.45, -0.5)
    got = che_accessory(p, "2", 1)
    root = math.sqrt(0.45 ** 2 + 4 * 1.5 * 1.45)
    want = [(0.45 - root) / 2, (0.45 + root) / 2]
    assert len(got) == 2
    for x, y in zip(got, want):
        assert abs(x - y) < 1e-12
    # class 7 divides out z^(-beta), so its reduced exponents at 0 are
    # {0, beta}: beta = 1 collides there and a series about z = 0 breaks,
    # but the eigenvalues are the values the series about z = 1 gives
    pres = che_params_for_class("7", 1, 1.5, 1.0, -0.5)
    got = che_accessory(pres, "7", 1)
    assert len(got) == 2
    for x, y in zip(got, [0, 1]):
        assert abs(x - y) < 1e-12


def test_eigenstates_every_class():
    for cls in CHE_CLASSES:
        p = che_params_for_class(cls.label, 2, 1.3, 0.4, 0.7)
        roots = che_accessory(p, cls.label, 2)
        assert roots, cls.label
        p2 = replace(p, mu=roots[0], nu=complex(p.coupling) - roots[0])
        st = che_eigenstate(p2, cls.label, 2)
        assert st.poly.degree == 2
        assert st.residual < 1e-9, (cls.label, st.residual)
        ea, e0, e1 = cls.prefactor_exponents(p2)
        assert abs(complex(st.phi.exp_part.to_float().coeff(1))
                   - complex(ea)) < 1e-9, cls.label
        pw = {round(rt.real): ex for rt, ex in st.phi.powers}
        assert abs(pw[0] - complex(e0)) < 1e-8, cls.label
        assert abs(pw[1] - complex(e1)) < 1e-8, cls.label


def test_wrong_coupling_rejected():
    p = che_params_for_class("1", 2, 1.3, 0.4, 0.7)
    with pytest.raises(NoBranchError, match="does not admit"):
        che_accessory(p, "1", 3)


def test_exact_backend_roundtrip():
    p = che_params_for_class("2", 1, rc(F(3, 2)), rc(F(1, 3)), rc(F(2, 5)))
    assert p.backend == EXACT
    assert p.coupling == rc(F(-3, 2))
    roots = che_accessory(p, "2", 1)
    assert len(roots) == 2
