"""Model problems: Coulomb 3S levels, electrons on a sphere, double well."""

import math
from fractions import Fraction

import pytest

from heunforge.apps import (
    ANTISYMMETRIC,
    SYMMETRIC,
    bethe_residual,
    coulomb3s_energy,
    coulomb3s_verify,
    doublewell_spectrum,
    doublewell_verify,
    electrons_sphere_state,
)
from heunforge.scalars import RationalComplex

F = Fraction


def rc(re, im=0):
    return RationalComplex(F(re), F(im))


def test_coulomb_energy_closed_form():
    # E = (n + |m|)(n + |m| + 2) - gamma^2 / (4 (n + |m| + 1)^2)
    assert complex(coulomb3s_energy(0, 0, 0.0)) == 0
    assert abs(complex(coulomb3s_energy(1, 0, 0.0)) - 3) < 1e-14
    assert abs(complex(coulomb3s_energy(0, 0, 2.0)) + 1) < 1e-14
    with pytest.raises(ValueError):
        coulomb3s_energy(-1, 0, 0.0)


NAN, INF = float("nan"), float("inf")


NON_FINITE_CALLS = [
    (doublewell_spectrum, (0, NAN, 1.0, SYMMETRIC), "d"),
    (doublewell_spectrum, (0, 1.0, INF, SYMMETRIC), "u0"),
    (doublewell_spectrum, (0, 1.0, -INF, ANTISYMMETRIC), "u0"),
    (doublewell_verify, (1, 1.0, NAN, SYMMETRIC), "u0"),
    (coulomb3s_energy, (1, 0, NAN), "gamma"),
    (coulomb3s_verify, (1, 0, NAN), "gamma"),
    (coulomb3s_verify, (1, 0, complex(0.5, INF)), "gamma"),
    (electrons_sphere_state, (1, NAN, 2.0), "gamma"),
    (electrons_sphere_state, (1, 1.0, -INF), "delta"),
    (bethe_residual, ([0.5], 1.0, NAN), "delta"),
]


@pytest.mark.parametrize("func, args, name", NON_FINITE_CALLS, ids=[
    "%s-%s-%d" % (func.__name__, name, k) for k, (func, _, name) in enumerate(NON_FINITE_CALLS)])
def test_non_finite_float_parameter_is_refused_by_name(func, args, name):
    # NaN gave a NaN level or a Bethe residual of 0, an infinity a level
    # of -inf, and elsewhere an OverflowError that named no input
    with pytest.raises(ValueError, match="^%s must be finite, not " % name):
        func(*args)


@pytest.mark.parametrize("gamma", [complex(0.5, 1.0), rc(F(1, 2), 1)], ids=["float", "exact"])
def test_coulomb_complex_gamma_is_refused_by_name(gamma):
    # the report gave gamma=0.5 next to the energy 3.046875-0.0625i that
    # the complex value made
    with pytest.raises(ValueError, match="^gamma must be real, not "):
        coulomb3s_verify(1, 0, gamma)
    # a complex gamma whose imaginary part is zero is the real one
    assert coulomb3s_verify(1, 0, complex(0.5, -0.0)) == coulomb3s_verify(1, 0, 0.5)


def test_coulomb_energy_exact_backend():
    e = coulomb3s_energy(2, 1, rc(F(1, 2)))
    assert isinstance(e, RationalComplex)
    assert e == rc(F(15) - F(1, 256))


def test_coulomb_gamma_zero_energies_are_integers():
    for n in range(6):
        for m in range(4):
            e = complex(coulomb3s_energy(n, m, 0.0))
            k = n + m
            assert abs(e - k * (k + 2)) < 1e-12


def test_coulomb_verify_grid():
    # both coupling branches of the level relation vanish identically
    worst = 0.0
    for n in range(6):
        for m in range(4):
            for g in (0.0, 0.5, 2.0):
                rep = coulomb3s_verify(n, m, g)
                worst = max(worst, rep.residual_direct, rep.residual_flipped)
    assert worst < 1e-9


def test_electrons_sphere_level_one():
    # R = sqrt(delta/gamma)/2 and E = gamma for the one-pair state
    for dl in (0.5, 1.0, 2.0, 3.0):
        for gm in (0.5, 1.0, 2.0, 3.0):
            st = electrons_sphere_state(1, gm, dl)
            assert abs(st.radius - 0.5 * math.sqrt(dl / gm)) < 1e-9
            assert abs(st.energy - gm) < 1e-9
            assert st.bethe < 1e-8
            assert len(st.roots) == 1


def test_electrons_sphere_level_two():
    # (2R)^2 = 2(delta+2) + (4 delta + 6)/gamma and
    # E = gamma (delta+1) / (gamma (delta+2) + 2 delta + 3)
    for dl in (0.5, 1.0, 2.0, 3.0):
        for gm in (0.5, 1.0, 2.0, 3.0):
            st = electrons_sphere_state(2, gm, dl)
            assert abs((2 * st.radius) ** 2
                       - (2 * (dl + 2) + (4 * dl + 6) / gm)) < 1e-9
            want = gm * (dl + 1) / (gm * (dl + 2) + 2 * dl + 3)
            assert abs(st.energy - want) < 1e-9
            assert st.bethe < 1e-8
            assert len(st.roots) == 2


def test_electrons_degenerate_diagonal():
    # delta = 1/gamma puts the n = 1 pair root exactly on the singular
    # point z = -1; the residual must switch to the polynomial form
    # instead of dividing by sigma(-1) = 0
    st = electrons_sphere_state(1, 2.0, 0.5)
    assert abs(st.roots[0] + 1.0) < 1e-9
    assert st.bethe < 1e-8


def test_electrons_validation():
    with pytest.raises(ValueError, match="positive integer"):
        electrons_sphere_state(0, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        electrons_sphere_state(1, 0.0, 1.0)


def test_bethe_residual_detects_wrong_roots():
    st = electrons_sphere_state(2, 1.0, 1.0)
    assert bethe_residual(st.roots, st.gamma_param, st.delta_param) < 1e-8
    shifted = [r + 0.05 for r in st.roots]
    assert bethe_residual(shifted, st.gamma_param, st.delta_param) > 1e-3
    with pytest.raises(ValueError, match="coincident"):
        bethe_residual([0.3, 0.3], 1.0, 1.0)


def test_doublewell_spectrum_frozen_values():
    # eps^s_N = -(3 + 4N - d sqrt(U0))^2 / (4 d^2), antisymmetric uses 5
    assert abs(doublewell_spectrum(0, 1.0, 9.0, SYMMETRIC)) < 1e-14
    assert abs(doublewell_spectrum(0, 1.0, 49.0, SYMMETRIC) + 4) < 1e-12
    assert abs(doublewell_spectrum(0, 1.0, 25.0, ANTISYMMETRIC)) < 1e-14
    assert abs(doublewell_spectrum(1, 2.0, 16.0, SYMMETRIC)
               + (7 - 8) ** 2 / 16) < 1e-12


def test_doublewell_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        doublewell_spectrum(-1, 1.0, 9.0, SYMMETRIC)
    with pytest.raises(ValueError, match="positive"):
        doublewell_spectrum(0, -1.0, 9.0, SYMMETRIC)
    with pytest.raises(ValueError, match="parity"):
        doublewell_spectrum(0, 1.0, 9.0, "odd")


def test_doublewell_verify_grid():
    # full grid including the d sqrt(U0) = 5 resonant combinations where
    # the z = 0 series degenerates and the check expands about z = 1
    for d in (0.5, 1.0, 2.0):
        for u0 in (25.0, 100.0):
            for upper in range(4):
                for parity in (SYMMETRIC, ANTISYMMETRIC):
                    rep = doublewell_verify(upper, d, u0, parity)
                    assert rep.relation_residual < 1e-9, (d, u0, upper,
                                                          parity)
                    assert rep.termination_residual < 1e-8, (d, u0, upper,
                                                             parity)
                    assert rep.resolved_mu
                    assert rep.matched_class in ("2", "7", "3", "5")


def _branch_from_pi_calls(monkeypatch, app, *args):
    """How many times app(*args) recovers a branch from its pi, counted in
    every heunforge module that binds branch_from_pi."""
    import sys

    from heunforge import engine

    original = engine.branch_from_pi
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("heunforge") and \
                getattr(module, "branch_from_pi", None) is original:
            monkeypatch.setattr(module, "branch_from_pi", counted)
    app(*args)
    return len(calls)


def test_doublewell_verify_builds_the_class_family_once(monkeypatch):
    # mu and the termination residual come from one accessory family, so
    # the class branch is recovered from its pi once per call
    assert _branch_from_pi_calls(monkeypatch, doublewell_verify, 3, 1.0, 9.0, SYMMETRIC) == 1


def test_electrons_sphere_state_builds_its_branch_once(monkeypatch):
    # the accessory roots and the polynomial at the chosen root come from
    # one setup on the equation at q = 0: q moves only h, not the branch
    assert _branch_from_pi_calls(monkeypatch, electrons_sphere_state, 3, 1.0, 1.0) == 1


def test_doublewell_parity_class_pairs():
    rep_s = doublewell_verify(1, 1.0, 100.0, SYMMETRIC)
    rep_a = doublewell_verify(1, 1.0, 100.0, ANTISYMMETRIC)
    assert rep_s.matched_class in ("2", "7")
    assert rep_a.matched_class in ("3", "5")


def test_doublewell_shift_identity():
    # eps^s_N(d, U0) = eps^a_N(d, U0') when the shifted offsets agree
    d = 1.3
    for upper in range(3):
        u0 = 36.0
        k = 3 + 4 * upper - d * math.sqrt(u0)
        u0p = ((5 + 4 * upper - k) / d) ** 2
        assert abs(doublewell_spectrum(upper, d, u0, SYMMETRIC)
                   - doublewell_spectrum(upper, d, u0p, ANTISYMMETRIC)) \
            < 1e-12
