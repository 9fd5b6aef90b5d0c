"""Shared eigenstate assembly against the per-state reference loop."""

import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from heunforge import (
    CHE_CLASSES,
    EXACT,
    FLOAT,
    HEUN_CLASSES,
    CheParams,
    Eigenstate,
    NoBranchError,
    Poly,
    RationalComplex,
    branch_from_pi,
    che_accessory,
    che_class,
    che_eigenstate,
    che_eigenstates,
    che_params_for_class,
    che_to_nu,
    heun_accessory,
    heun_class,
    heun_eigenstate,
    heun_eigenstates,
    heun_params_for_class,
    heun_to_nu,
    ode_residual,
    phi_factor,
    polynomial_solution,
    quantization,
)
from heunforge import cli
from heunforge.engine import BranchSetup
from heunforge.family import check_relation, class_setup
from heunforge.scalars import parse_scalar

DEGREES = range(1, 9)


def _reference_state(eq, pi, n, accessory):
    """One state assembled from scratch, as heun_eigenstate and
    che_eigenstate did before the shared setup."""
    branch = branch_from_pi(eq, pi)
    qr = quantization(eq, branch, n)
    poly = polynomial_solution(eq, branch, n)
    phi = phi_factor(eq, branch)
    res = ode_residual(SimpleNamespace(poly=poly, phi=phi), eq.psi_ode())
    return Eigenstate(n=n, accessory=accessory, quantization=qr, phi=phi,
                      poly=poly, residual=res)


def _reference_heun(p, label, n):
    check_relation(p, label, n)
    return _reference_state(heun_to_nu(p), heun_class(label).pi(p), n, p.q)


def _reference_che(p, label, n):
    check_relation(p, label, n)
    return _reference_state(che_to_nu(p), che_class(label).pi(p), n, p.mu)


def _float_params(p):
    return type(p)(*(complex(getattr(p, name)) for name in p._fields))


def _same(a, b):
    # repr tells signed zeros apart, which == does not
    return a == b and repr(a) == repr(b)


def _assert_same_state(new, ref):
    assert _same(new.accessory, ref.accessory)
    assert _same(new.poly.coeffs, ref.poly.coeffs)
    assert _same(new.residual, ref.residual)
    assert _same(new.quantization.slope_residual,
                 ref.quantization.slope_residual)
    assert _same(new.quantization.constant_offset,
                 ref.quantization.constant_offset)
    assert _same(new.phi.exp_part.coeffs, ref.phi.exp_part.coeffs)
    assert _same(new.phi.powers, ref.phi.powers)


def _rational(rng, lo, hi):
    while True:
        den = rng.randint(2, 9)
        value = F(round(rng.uniform(lo, hi) * den), den)
        if value.denominator != 1:  # integer exponents collide
            return value


def _heun_params(rng, label, n, exact):
    wrap = RationalComplex if exact else (lambda v: v)
    while True:
        try:
            return heun_params_for_class(
                label, n, wrap(_rational(rng, 1.4, 3.0)),
                *(wrap(_rational(rng, 0.2, 1.8)) for _ in range(3)))
        except ValueError:  # alpha, beta not Gaussian-rational
            continue


def _che_params(rng, label, n, exact):
    wrap = RationalComplex if exact else (lambda v: v)
    return che_params_for_class(
        label, n, wrap(_rational(rng, 0.5, 2.5)),
        *(wrap(_rational(rng, 0.1, 1.9)) for _ in range(2)))


def _cases():
    for exact in (False, True):
        for label in (c.label for c in HEUN_CLASSES):
            yield "heun", label, exact
        for label in (c.label for c in CHE_CLASSES):
            yield "che", label, exact


@pytest.mark.parametrize("family,label,exact", list(_cases()))
def test_shared_assembly_equals_per_state_loop(family, label, exact):
    # the float backend, and the exact backend's float roots assembled on
    # the float copy of the parameters, as the CLI does
    rng = random.Random("%s/%s/%s" % (family, label, exact))
    checked = 0
    for n in DEGREES:
        if family == "heun":
            p = _heun_params(rng, label, n, exact)
            roots = heun_accessory(p, label, n)
            pf = _float_params(p) if exact else p

            def shared(values):
                return heun_eigenstates(pf, label, n, values)

            def reference(v):
                return _reference_heun(pf.at(v), label, n)
        else:
            p = _che_params(rng, label, n, exact)
            roots = che_accessory(p, label, n)
            pf = _float_params(p) if exact else p

            def shared(values):
                return che_eigenstates(pf, label, n, values)

            def reference(v):
                pv = CheParams(pf.alpha, pf.beta, pf.gamma, v, complex(p.coupling) - complex(v))
                return _reference_che(pv, label, n)
        refs, error = [], None
        for v in roots:
            try:
                refs.append(reference(v))
            except NoBranchError as exc:
                error = str(exc)
                break
        if error is not None:
            # a root the float solver got too inaccurate: the shared loop
            # fails on it with the same error
            with pytest.raises(NoBranchError) as err:
                shared(roots)
            assert str(err.value) == error
        new = shared(roots[: len(refs)])
        assert len(new) == len(refs)
        for got, ref in zip(new, refs):
            _assert_same_state(got, ref)
        checked += len(refs)
    assert checked >= 8


def test_single_state_functions_equal_reference():
    rng = random.Random("single")
    p = _heun_params(rng, "IV", 3, False)
    for q in heun_accessory(p, "IV", 3):
        pq = p.at(q)
        _assert_same_state(heun_eigenstate(pq, "IV", 3),
                           _reference_heun(pq, "IV", 3))
    # che_eigenstate keeps the nu stored in p, however it was rounded
    p = _che_params(rng, "5", 3, False)
    for mu in che_accessory(p, "5", 3):
        pm = CheParams(p.alpha, p.beta, p.gamma, mu, (3 * p.coupling - 3 * mu) / 3)
        _assert_same_state(che_eigenstate(pm, "5", 3),
                           _reference_che(pm, "5", 3))


def test_exact_accessory_roots():
    # rational accessory roots, found by factoring the exact degree-2
    # termination conditions
    rc = RationalComplex
    p = heun_params_for_class("V", 1, rc(3), rc(F(13, 2)), rc(F(-2, 3)),
                              rc(F(-8, 3)))
    values = [rc(F(-112, 3)), rc(-39)]
    new = heun_eigenstates(p, "V", 1, values)
    for got, v in zip(new, values):
        assert isinstance(got.poly.coeffs[0], RationalComplex)
        _assert_same_state(got, _reference_heun(p.at(v), "V", 1))
    p = che_params_for_class("6", 1, rc(F(17, 6)), rc(F(17, 4)), rc(F(7, 3)))
    values = [rc(F(595, 24)), rc(F(131, 8))]
    new = che_eigenstates(p, "6", 1, values)
    for got, v in zip(new, values):
        assert isinstance(got.poly.coeffs[0], RationalComplex)
        ref = _reference_che(p.at(v), "6", 1)
        _assert_same_state(got, ref)


def test_wrong_accessory_raises_at_its_own_state():
    p = heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)
    q0, q1, q2 = heun_accessory(p, "I", 2)
    bad = q1 + 1e-3
    with pytest.raises(NoBranchError) as ref_err:
        _reference_heun(p.at(bad), "I", 2)
    with pytest.raises(NoBranchError) as err:
        heun_eigenstates(p, "I", 2, [q0, bad, q2])
    assert str(err.value) == str(ref_err.value)
    # the shared loop stops at the bad value: it has asked for the states
    # up to and including it, and none after
    eq = heun_to_nu(p)
    asked = []

    def shifts():
        for q in (q0, bad, q2):
            asked.append(q)
            yield q, heun_to_nu(p.at(q)).sigma_tilde

    with pytest.raises(NoBranchError) as err:
        BranchSetup(eq, heun_class("I").pi(p)).states(2, shifts())
    assert str(err.value) == str(ref_err.value)
    assert asked == [q0, bad]


def test_no_values_no_states():
    p = heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)
    assert heun_eigenstates(p, "I", 2, []) == []
    assert che_eigenstates(che_params_for_class("2", 1, 1.5, 0.3, 0.4),
                           "2", 1, []) == []


def test_collapsed_branch_follows_branch_from_pi():
    # With gamma = delta = epsilon = 1, (sigma' - tau~)/2 is zero and a pi
    # within 1e-14 of it collapses onto it (branch_from_pi's sign-0
    # branch). The accessory value moves only h, so the collapse is
    # decided once, on the equation at q = 0, and every state gets the
    # collapsed branch pi = 0, whatever the last bits of its q. The q are
    # frozen as they were resolved by the series-truncation solver; a
    # per-state decision used to keep pi = 1e-15 for the middle one.
    p = heun_params_for_class("I", 2, 2, 1, 1, 1)
    roots = [complex(-2.708497377870827, -1.4432899320127035e-15),
             complex(-13.29150262212919, -1.722905672296715e-15),
             complex(-7.999999999999996, 5.915834907436654e-15)]
    pi = Poly([1e-15], FLOAT)
    shifts = [(q, heun_to_nu(p.at(q)).sigma_tilde) for q in roots]
    got = BranchSetup(heun_to_nu(p), pi).states(2, shifts)
    assert got[0].phi == got[1].phi == got[2].phi
    for state, q in zip(got, roots):
        ref = _reference_state(heun_to_nu(p.at(q)), Poly.zero(FLOAT),
                               2, q)
        _assert_same_state(state, ref)


def _bits(state):
    """float.hex of both parts of the poly, residual, accessory,
    constant_offset and phi of a state."""
    def parts(c):
        c = complex(c)
        return c.real.hex(), c.imag.hex()

    return (tuple(map(parts, state.poly.coeffs)), state.residual.hex(),
            parts(state.accessory), parts(state.quantization.constant_offset),
            tuple(map(parts, state.phi.exp_part.coeffs)),
            tuple((parts(r), parts(e)) for r, e in state.phi.powers))



def _heun_reference(p, label, n, v):
    return _reference_heun(p.at(v), label, n)


def _che_reference(p, label, n, v):
    return _reference_che(p.at(v), label, n)


_HEUN = (heun_accessory, heun_eigenstates, _heun_reference)
_CHE = (che_accessory, che_eigenstates, _che_reference)


def _kept_setup_cases():
    rc = RationalComplex
    # (family, label, n, [make, ...]): each make() builds a new record, and
    # the records are solved one after the other, as the CLI solves them
    yield "heun-after-accessory", _HEUN, "II", 3, [
        lambda: heun_params_for_class("II", 3, 1.9, 0.6, 0.8, 0.7)]
    yield "che-after-accessory", _CHE, "5", 3, [
        lambda: che_params_for_class("5", 3, 1.5, F(1, 3), 0.4)]
    # == records that differ in a signed zero
    yield "heun-signed-zero", _HEUN, "I", 2, [
        lambda: heun_params_for_class("I", 2, 1.9, 0.5, -0.0, 0.75),
        lambda: heun_params_for_class("I", 2, 1.9, 0.5, 0.0, 0.75)]
    yield "che-signed-zero", _CHE, "3", 2, [
        lambda: che_params_for_class("3", 2, 1.5, -0.0, 0.4),
        lambda: che_params_for_class("3", 2, 1.5, 0.0, 0.4)]
    # an exact record: its float values are assembled on its float copy
    yield "heun-float-copy", _HEUN, "V", 1, [lambda: heun_params_for_class(
        "V", 1, rc(3), rc(F(13, 2)), rc(F(-2, 3)), rc(F(-8, 3)))]
    yield "che-float-copy", _CHE, "6", 1, [lambda: che_params_for_class(
        "6", 1, rc(F(17, 6)), rc(F(17, 4)), rc(F(7, 3)))]
    # a record whose stored accessory value is not 0
    yield "heun-stored-q", _HEUN, "IV", 2, [
        lambda: heun_params_for_class("IV", 2, 1.9, 0.6, 0.8, 0.7, q=0.37)]
    yield "che-stored-mu", _CHE, "8", 2, [
        lambda: che_params_for_class("8", 2, 1.5, F(1, 3), 0.4, mu=-0.25)]


def _as_cli(p, values):
    """The record the states of these values run on (family.states)."""
    if p.backend == FLOAT or all(isinstance(v, RationalComplex) for v in values):
        return p
    return p.to_float()


@pytest.mark.parametrize("case", list(_kept_setup_cases()), ids=lambda c: c[0])
def test_kept_setup_belongs_to_one_record(case):
    # a record keeps the class setup its accessory call builds, and its
    # states are those of a fresh record with the same fields, and those
    # assembled state by state from scratch
    _, (resolve, assemble, reference), label, n, makes = case
    solved = []
    for make in makes:
        p = make()
        values = resolve(p, label, n)
        if p.backend == EXACT:
            assert class_setup(p, label).eq.backend == EXACT
        p = _as_cli(p, values)
        solved.append((p, values, assemble(p, label, n, values)))
    for (p, values, states), make in zip(solved, makes):
        fresh = _as_cli(make(), values)
        assert fresh is not p and fresh == p
        bits = [_bits(s) for s in states]
        assert bits == [_bits(s) for s in assemble(fresh, label, n, values)]
        assert bits == [_bits(reference(p, label, n, v)) for v in values]
    setups = [class_setup(p, label) for p, _, _ in solved]
    assert len({id(s) for s in setups}) == len(setups)


# (family, its solve functions, two classes, the options of a CLI request)
_README_IDIOM = (
    ("heun", heun_params_for_class, heun_accessory, heun_eigenstates, ("I", "VI"),
     {"a": "19/10", "gamma": "3/5", "delta": "4/5", "epsilon": "7/10"}),
    ("che", che_params_for_class, che_accessory, che_eigenstates, ("2", "8"),
     {"alpha": "3/2", "beta": "1/3", "gamma": "2/5"}),
)


@pytest.mark.parametrize("case", _README_IDIOM, ids=lambda c: c[0])
def test_readme_idiom_runs_an_exact_record_on_its_float_copy(capsys, case):
    # the resolved accessory values are floats: the states of an exact
    # record at them are those of its float copy, and the CLI prints them
    family, make, resolve, assemble, labels, options = case
    for label in labels:
        p = make(label, 2, *(parse_scalar(v, EXACT) for v in options.values()))
        values = resolve(p, label, 2)
        states = assemble(p, label, 2, values)
        assert p.backend == EXACT and len(states) == 3
        assert [_bits(s) for s in states] == \
            [_bits(s) for s in assemble(p.to_float(), label, 2, values)]
        argv = ["solve", family, "--class", label, "-n", "2", "--backend", "exact",
                "--format", "json"]
        for name, text in options.items():
            argv += ["--" + name, text]
        assert cli.main(argv) == 0
        printed = json.loads(capsys.readouterr().out)["states"]
        keys = ("accessory", "poly", "residual")
        want = [{key: getattr(s, key) for key in keys} for s in states]
        assert [{key: e[key] for key in keys} for e in printed] == \
            json.loads(json.dumps(want, default=cli._json_form))
