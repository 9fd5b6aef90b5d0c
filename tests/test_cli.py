"""Command-line interface: formats, exit codes, backend selection."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import heunforge
from heunforge import cli
from heunforge import (
    CHE_CLASSES,
    EXACT,
    FLOAT,
    HEUN_CLASSES,
    NuEquation,
    PiBranch,
    Poly,
    RationalComplex,
    enumerate_branches,
    heun_accessory,
    heun_eigenstate,
    heun_params_for_class,
    heun_to_nu,
    ode_residual,
    parse_poly,
)
from heunforge.cli import (
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    TOLERANCES,
    _branch_label,
    build_parser,
    main,
)
from heunforge.che import che_match
from heunforge.family import class_catalog
from heunforge.heun import heun_match
from heunforge.scalars import parse_scalar

SRC = Path(heunforge.__file__).resolve().parents[1]

CLASSIFY_ARGS = [
    "classify",
    "--sigma", "z^3 - 3*z^2 + 2*z",
    "--tau", "1 - 35/12*z + 19/12*z^2",
    "--sigma-tilde", "-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(token):
    """json.loads' parse_constant: refuse the NaN and Infinity tokens that
    strict JSON has no place for."""
    raise ValueError("non-finite JSON token %s" % token)


def _scalar_from_json(form):
    if not isinstance(form, dict):
        return form
    if "num" in form:
        return Fraction(form["num"], form["den"])
    re, im = _scalar_from_json(form["re"]), _scalar_from_json(form["im"])
    return RationalComplex(re, im) if isinstance(re, Fraction) else complex(re, im)


def _poly_from_json(form, backend):
    """The Poly of a JSON {"coeffs": [...]} form."""
    return Poly([_scalar_from_json(c) for c in form["coeffs"]], backend)


def test_classify_exact_json(capsys):
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--backend", "exact",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["family"] == "heun"
    assert doc["mode"] == "extended"
    assert len(doc["branches"]) == 8
    labels = {b["class"] for b in doc["branches"]}
    assert labels == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
    # a Poly is its coefficients alone, and exact scalars serialize as
    # {num, den} pairs
    assert set(doc["branches"][0]["g"]) == {"coeffs"}
    g0 = doc["branches"][0]["g"]["coeffs"][0]
    assert set(g0["re"]) == {"num", "den"}


def test_classify_exact_roundtrip_deterministic(capsys):
    code1, out1, _ = run(capsys, *CLASSIFY_ARGS, "--backend", "exact",
                         "--format", "json")
    code2, out2, _ = run(capsys, *CLASSIFY_ARGS, "--backend", "exact",
                         "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_classify_table_and_csv(capsys):
    code, out, _ = run(capsys, *CLASSIFY_ARGS)
    assert code == EXIT_OK
    assert "class" in out and "VIII" in out
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--format", "csv")
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 9  # header plus eight branches


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_classify_divides_no_branch(capsys, monkeypatch, backend):
    # a candidate's remainder test is its certificate, and tau and h come
    # from the branch (tau~ + 2 pi, g + pi'), so nothing is reduced by
    # division; sigma's roots 0, 1 and 2 are exact, so no exact branch is
    # recovered from a rationalized pi
    import sys

    from heunforge import engine

    calls = {"reduce_branch": [], "branch_from_pi": []}
    for fname, calls_of in calls.items():
        original = getattr(engine, fname)

        def counted(*args, original=original, calls_of=calls_of):
            calls_of.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("heunforge") and \
                    getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--backend", backend,
                       "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["branches"]) == 8
    assert calls == {"reduce_branch": [], "branch_from_pi": []}


def test_classify_keeps_a_near_collapse(capsys):
    # sigma~ = ((sigma' - tau~)/2)^2 + 2 sigma + delta: the radicand is
    # the constant -delta at g = 2. A candidate flagged as a collapse
    # gives pi = (sigma' - tau~)/2, which reduce_branch tests at
    # DIVIDE_REL_TOL, so the flag takes that tolerance too: every offset
    # prints the collapse branch or a +- pair, none prints no branch
    deltas = [sign * 10 ** (-12 + k / 12) for k in range(61) for sign in (1, -1)]
    for delta in deltas:
        code, out, _ = run(
            capsys, "classify", "--mode", "classic", "--sigma", "z^2 - 1",
            "--tau", "0.3 - 0.5*z",
            "--sigma-tilde=%r - 0.375*z + 3.5625*z^2" % (-1.9775 + delta),
            "--format", "json")
        assert code == EXIT_OK, delta
        assert json.loads(out)["branches"], delta


def test_classify_past_a_float_pi_lost_to_cancellation(capsys):
    # sigma~ = (3/10) sigma plants pi = 0 where (sigma' - tau~)/2 is 1e4 in
    # size. Its float pi, (sigma' - tau~)/2 + s, is accurate to about 1e-12
    # only, a remainder a second division of sigma_bar would reject; the
    # certificate keeps it. So each of the four float branches matches its
    # own exact branch in g, pi, tau and h within 1e-8 of max(1, the exact
    # value's largest coefficient), and the exact run certifies pi = 0
    # exactly. Signs may differ: an exact s leads with the principal root.
    argv = ["classify", "--mode", "classic", "--sigma", "z^2 - 1",
            "--tau", "10000 - 6000*z", "--sigma-tilde", "-3/10 + 3/10*z^2",
            "--format", "json"]
    branches = {}
    for backend in (EXACT, FLOAT):
        code, out, _ = run(capsys, *argv, "--backend", backend)
        assert code == EXIT_OK
        branches[backend] = [
            [_poly_from_json(b[k], backend) for k in ("g", "pi", "tau", "h")]
            for b in json.loads(out)["branches"]]
    assert parse_poly("0", EXACT) in [pi for _, pi, _, _ in branches[EXACT]]
    assert len(branches[EXACT]) == len(branches[FLOAT]) == 4
    unmatched = list(branches[FLOAT])
    for want in branches[EXACT]:
        match = [got for got in unmatched if all(
            (g - w.to_float()).max_abs() <= 1e-8 * max(w.max_abs(), 1.0)
            for g, w in zip(got, want))]
        assert len(match) == 1, want
        unmatched.remove(match[0])


def test_solve_heun_three_states(capsys):
    code, out, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "2",
                       "--a", "2", "--gamma", "0.5", "--delta", "1/3",
                       "--epsilon", "0.75", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["states"]) == 3
    for st in doc["states"]:
        assert st["check"]["passed"] is True
        assert st["residual"] < 1e-8


def test_solve_che_exact_backend(capsys):
    code, out, _ = run(capsys, "solve", "che", "--backend", "exact",
                       "--class", "1", "-n", "1", "--alpha", "3/2",
                       "--beta", "1/3", "--gamma", "2/5", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["states"]) == 2
    assert all(st["check"]["passed"] for st in doc["states"])


def test_solve_samples_residual_matches_public_api(capsys):
    code, out, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "1",
                       "--a", "1.9", "--gamma", "0.6", "--delta", "0.8",
                       "--epsilon", "0.7", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    p = heun_params_for_class("I", 1, 1.9, 0.6, 0.8, 0.7)
    roots = heun_accessory(p, "I", 1)
    assert len(doc["states"]) == len(roots) == 2
    for st, q in zip(doc["states"], roots):
        pq = p.at(q)
        state = heun_eigenstate(pq, "I", 1)
        assert st["residual"] == ode_residual(state, heun_to_nu(pq).psi_ode())
        assert st["residual"] == state.residual


def test_solve_tight_tolerance_fails_verification(capsys, monkeypatch):
    monkeypatch.setitem(TOLERANCES, "residual", 1e-20)
    code, out, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "2",
                       "--a", "2", "--gamma", "0.5", "--delta", "1/3",
                       "--epsilon", "0.75", "--format", "json")
    assert code == EXIT_VERIFICATION
    checks = [st["check"] for st in json.loads(out)["states"]]
    assert checks and all(c["tolerance"] == 1e-20 and not c["passed"] for c in checks)


def test_solve_wrong_accessory_no_solution(capsys):
    code, _, err = run(capsys, "solve", "che", "--backend", "exact",
                       "--class", "2", "-n", "1", "--alpha", "3/2",
                       "--beta", "1/3", "--gamma", "2/5",
                       "--accessory", "37/60")
    assert code == EXIT_NO_SOLUTION
    assert "no solution" in err


def test_usage_errors(capsys):
    # missing required family parameters
    code, _, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "1",
                     "--gamma", "0.6", "--delta", "0.8", "--epsilon", "0.7")
    assert code == EXIT_USAGE
    # argparse-level failure (unknown subcommand)
    code = main(["frobnicate"])
    assert code == EXIT_USAGE


def test_contour_size_and_tolerances_are_not_options(capsys):
    # every check runs on the one contour at its one tolerance
    for argv in (["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5", "--tol", "relation=1"],
                 ["solve", "che", "--class", "1", "-n", "1", "--alpha", "3/2", "--beta", "1/3",
                  "--gamma", "2/5", "--samples", "32"],
                 [*CLASSIFY_ARGS, "--tol", "residual=1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("heunforge: error: unrecognized arguments: %s\n" % " ".join(argv[-2:]))


def test_app_coulomb(capsys):
    code, out, _ = run(capsys, "app", "coulomb3s", "--n", "2", "--m", "1",
                       "--gamma", "0.5", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["report"]["energy"] - 14.99609375) < 1e-12
    assert all(c["passed"] for c in doc["checks"])


def test_app_electrons(capsys):
    code, out, _ = run(capsys, "app", "electrons-sphere", "--n", "1",
                       "--gamma", "1", "--delta", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["report"]["radius"] - 0.7071067811865476) < 1e-12
    assert abs(doc["report"]["energy"] - 1.0) < 1e-9
    assert all(c["passed"] for c in doc["checks"])


def test_app_doublewell(capsys):
    code, out, _ = run(capsys, "app", "double-well", "--n", "1", "--d", "1",
                       "--u0", "100", "--parity", "antisymmetric",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["report"]["epsilon"] + 0.25) < 1e-12
    assert doc["report"]["matched_class"] in ("3", "5")
    assert all(c["passed"] for c in doc["checks"])


# per app float option: a run that is valid once the option is finite
APP_FLOAT_OPTIONS = {
    "gamma": ["coulomb3s", "--n", "1", "--m", "0"],
    "delta": ["electrons-sphere", "--n", "2", "--gamma", "1"],
    "d": ["double-well", "--n", "1", "--u0", "100"],
    "u0": ["double-well", "--n", "1", "--d", "1"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", sorted(APP_FLOAT_OPTIONS))
def test_app_float_option_must_be_finite(capsys, option, value):
    # "--opt=-inf": as a separate word, argparse would read -inf as an option
    code, out, err = run(capsys, "app", *APP_FLOAT_OPTIONS[option],
                         "--%s=%s" % (option, value), "--format", "json")
    assert code == EXIT_USAGE
    assert out == ""
    assert "invalid finite value" in err


def test_app_table_output(capsys):
    code, out, _ = run(capsys, "app", "double-well", "--n", "0", "--d", "1",
                       "--u0", "49")
    assert code == EXIT_OK
    assert "PASS" in out


RECORDED_CRASH_EQUATION = (
    "--sigma=29/11*z - 40/11*z^2 + 1*z^3",
    "--tau=145/88 - 25847/4840*z + 14/5*z^2",
    "--sigma-tilde=116/99*z + 244/495*z^2 - 244/99*z^3 + 4/5*z^4",
)


def test_classify_exact_keeps_unrationalized_branch(capsys):
    # once crashed the exact run, when branches 0 and 1 stayed in float;
    # every branch of this equation now rationalizes, and
    # test_float_branch_label_against_exact_catalog covers a float branch
    code, out, _ = run(
        capsys, "classify",
        "--sigma=29/11*z - 40/11*z^2 + 1*z^3",
        "--tau=145/88 - 25847/4840*z + 14/5*z^2",
        "--sigma-tilde=116/99*z + 244/495*z^2 - 244/99*z^3 + 4/5*z^4",
        "--backend", "exact", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["family"] == "heun"
    labels = {b["class"] for b in doc["branches"]}
    assert labels == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}


def test_classify_decides_the_family_in_the_run_backend(capsys):
    # sigma = z^3 - 3 z^2 + (2 + 1e-13) z has singular points 0 and about
    # 1 + 1e-13 and 2 - 1e-13: z(z - 1)(z - a) only to float tolerance
    sigma = "z^3 - 3*z^2 + 20000000000001/10000000000000*z"
    argv = ["classify", "--sigma", sigma, *CLASSIFY_ARGS[3:], "--format", "json"]
    for backend, family in ((EXACT, ""), (FLOAT, "heun")):
        code, out, _ = run(capsys, *argv, "--backend", backend)
        assert code == EXIT_OK
        assert json.loads(out)["family"] == family


def test_classify_exact_branches_at_a_degenerate_exponent(capsys):
    # a four-point equation with a = 8/5 and epsilon = 1: B vanishes at
    # the singular point 8/5, the classes pair up, and each pair's one pi
    # is exact; float roots of sigma gave 8 float branches, 4 unlabelled
    code, out, _ = run(
        capsys, "classify",
        "--sigma", "8/5*z - 13/5*z^2 + 1*z^3",
        "--tau", "176/35 + 687/35*z - 97/7*z^2",
        "--sigma-tilde", "32/3*z - 68/15*z^2 - 212/15*z^3 + 8*z^4",
        "--backend", "exact", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["family"] == "heun"
    assert [b["class"] for b in doc["branches"]] == ["I", "IV", "II", "III"]
    for b in doc["branches"]:
        for key in ("g", "pi", "tau", "h"):
            assert all(set(c["re"]) == {"num", "den"}
                       for c in b[key]["coeffs"])


def test_float_branch_label_against_exact_catalog():
    # an exact run keeps a branch in float when its pi does not
    # rationalize; each exact branch, taken to float, must get its own
    # label from the catalog of the exact matched parameters
    sigma, tau, sigma_tilde = (arg.split("=", 1)[1]
                               for arg in RECORDED_CRASH_EQUATION)
    eq = NuEquation(parse_poly(tau, EXACT), parse_poly(sigma, EXACT),
                    parse_poly(sigma_tilde, EXACT))
    catalog = class_catalog(heun_match(eq))
    labels = []
    for b in enumerate_branches(eq):
        assert b.backend == EXACT
        float_b = PiBranch(b.g.to_float(), b.s.to_float(), b.pi.to_float(),
                           b.sign)
        label = _branch_label(b, catalog)
        assert _branch_label(float_b, catalog) == label
        labels.append(label)
    assert sorted(labels) == sorted(c.label for c in HEUN_CLASSES)


def test_exact_family_match_takes_no_float_bound(monkeypatch):
    # sigma~ factors through sigma when the remainder is zero, for an
    # exact equation, so the match reads no float size of an exact Poly
    real = Poly.max_abs

    def float_only(self):
        assert self.backend != EXACT, "max_abs of an exact Poly"
        return real(self)

    monkeypatch.setattr(Poly, "max_abs", float_only)
    heun = NuEquation(parse_poly("1 - 35/12*z + 19/12*z^2", EXACT),
                      parse_poly("z^3 - 3*z^2 + 2*z", EXACT),
                      parse_poly("-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4", EXACT))
    che = NuEquation(parse_poly("1/2 - 3/2*z + 2*z^2", EXACT), parse_poly("z^2 - z", EXACT),
                     parse_poly("-1/3*z + 2/15*z^2 + 1/5*z^3", EXACT))
    assert heun_match(heun).a == 2
    assert che_match(che).alpha == 2


SOLVE_ARGS = ["solve", "heun", "--class", "I", "-n", "2", "--a", "19/10",
              "--gamma", "3/5", "--delta", "4/5", "--epsilon", "7/10"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("first, first_code", [
    (["solve", "heun", "--class", "I"], EXIT_USAGE),
    (["classify", "--help"], EXIT_OK),
])
def test_reused_parser_after_exit_inside_argparse(capsys, first, first_code):
    assert run(capsys, *first)[0] == first_code
    golden = Path(__file__).parent / "golden" / "classify_exact.json.txt"
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--backend", "exact",
                       "--format", "json")
    assert code == EXIT_OK
    assert out == golden.read_bytes().decode()


def test_classify_csv_without_branches(capsys):
    argv = ["classify", "--sigma", "z^2", "--tau", "2*z", "--sigma-tilde=-z"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.startswith("0 branches")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["index,class,sign,g,pi,tau,h"]


def _degree_zero_argv(family, label):
    if family == "heun":
        params = ["--a", "2", "--gamma", "1/3", "--delta", "1/5",
                  "--epsilon", "1/7"]
    else:
        params = ["--alpha", "3/2", "--beta", "1/3", "--gamma", "2/5"]
    return ["solve", family, "--class", label, "-n", "0", *params]


DEGREE_ZERO_CASES = [("heun", c.label) for c in HEUN_CLASSES] + [
    ("che", c.label) for c in CHE_CLASSES]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("family, label", DEGREE_ZERO_CASES)
def test_solve_degree_zero(capsys, family, label, backend):
    code, out, _ = run(capsys, *_degree_zero_argv(family, label),
                       "--backend", backend, "--format", "json")
    assert code == EXIT_OK
    (state,) = json.loads(out)["states"]
    assert state["poly"] == {"coeffs": [1.0]}
    assert state["residual"] <= 1e-8


@pytest.mark.parametrize("family, label", DEGREE_ZERO_CASES)
def test_solve_degree_zero_detuned_accessory(capsys, family, label):
    argv = _degree_zero_argv(family, label)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    accessory = json.loads(out)["states"][0]["accessory"]
    accessory = accessory["re"] if isinstance(accessory, dict) else accessory
    code, _, err = run(capsys, *argv, "--accessory", repr(accessory + 1e-3))
    assert code == EXIT_NO_SOLUTION
    assert "no solution" in err


def test_solve_rejects_eigenpolynomial_that_loses_its_degree(capsys):
    # a null vector whose top coefficient the monic polynomial trims away
    # would be reported with degree n - 1
    code, _, err = run(capsys, "solve", "che", "--class", "2", "-n", "12",
                       "--alpha=1/2", "--beta=1/3", "--gamma=13/9")
    assert code == EXIT_NO_SOLUTION
    assert "degree below 12" in err


CONTINUUM = "no solution: perfect-square set is not finite (the radicand vanishes at %s)\n"


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("sigma, tau, sigma_tilde, point", [
    # sigma = z has one simple root; infinity has multiplicity 2 in
    # extended mode, and B = -1 + g0 z + g1 z^2 = (a + b z)^2 leaves b free
    ("z", "1", "1", "infinity (deg sigma below the mode's degree budget)"),
    # B = -z^2 vanishes to order 2 at the double root 0
    ("z^2", "2*z", "z^2", "a repeated root of sigma"),
], ids=["infinity", "repeated-root"])
def test_continuum_error_names_its_point(capsys, sigma, tau, sigma_tilde, point, backend):
    code, out, err = run(capsys, "classify", "--sigma", sigma, "--tau", tau,
                         "--sigma-tilde", sigma_tilde, "--backend", backend)
    assert (code, out, err) == (EXIT_NO_SOLUTION, "", CONTINUUM % point)


def test_solve_exact_state_with_vanishing_terms_verifies(capsys):
    # at beta = 1 the mu = 0 state of class 7 is psi = 1: every ODE term
    # is rounding noise at every contour point, which the residual skips
    code, out, _ = run(capsys, "solve", "che", "--class", "7", "-n", "1",
                       "--alpha", "1.5", "--beta", "1", "--gamma=-1/2",
                       "--format", "json")
    assert code == EXIT_OK
    states = json.loads(out)["states"]
    assert [complex(s["accessory"]) for s in states] == [0, 1]
    assert states[0]["residual"] <= 1e-8
    assert all(s["residual"] <= 1e-8 for s in states)


@pytest.mark.parametrize("argv", [
    ["classify", "--sigma", "z^2 - z", "--tau", "1 - 2*z",
     "--sigma-tilde", "1e400*z"],
    ["solve", "heun", "--class", "I", "-n", "1", "--a", "2", "--gamma", "1/2",
     "--delta", "1/3", "--epsilon", "3/4", "--accessory", "1e400"],
])
def test_float_literal_beyond_float_range_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--backend", "float")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "beyond float range" in err
    # the exact backend keeps the literal as it is
    assert parse_scalar("1e400", EXACT) == RationalComplex(10**400, 0)


SOLVE_HEUN_ARGS = ["solve", "heun", "--class", "I", "-n", "1", "--a", "2",
                   "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4"]


def test_float_sum_beyond_float_range_is_a_usage_error(capsys):
    # each term fits a float, their sum does not; the relative trim floor
    # of an infinite coefficient once trimmed the polynomial to zero
    code, out, err = run(capsys, "classify", "--sigma", "z^2 - z",
                         "--tau", "1 - 2*z", "--sigma-tilde", "1e308*z + 1e308*z",
                         "--backend", "float")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: polynomial coefficient overflows the float range\n"


# a numpy overflow warning on the way must not leak next to the error line
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["float", "exact"])
def test_parameter_whose_products_overflow_is_a_usage_error(capsys, backend):
    argv = SOLVE_HEUN_ARGS[:7] + ["1e200"] + SOLVE_HEUN_ARGS[8:]
    code, out, err = run(capsys, *argv, "--backend", backend)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: polynomial coefficient overflows the float range\n"


# a class relation that overflows to NaN is no verdict on the class
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("argv", [
    ["solve", "che", "--class", "1", "-n", "1", "--alpha", "1e308",
     "--beta", "1/3", "--gamma", "2/5", "--backend", "float"],
    ["app", "double-well", "--n", "1", "--d", "1e200", "--u0", "100"],
], ids=["solve-che", "app-double-well"])
def test_class_relation_that_overflows_is_a_usage_error(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: class relation overflows the float range\n"


# a float alpha*beta, or its split into alpha and beta, beyond float range
# once reached the exponent-sum check as NaN, "gap (nan+nanj)"
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("label, gamma, delta, epsilon", [
    ("II", "1e200", "1e200", "1/5"),
    ("I", "1e300", "1e300", "1e300"),
    ("VIII", "1e308", "1e308", "1e308"),
])
def test_heun_split_that_overflows_is_a_usage_error(capsys, label, gamma, delta,
                                                    epsilon, fmt):
    argv = ["solve", "heun", "--class", label, "-n", "1", "--a", "19/10", "--gamma", gamma,
            "--delta", delta, "--epsilon", epsilon, "--backend", "float", "--format", fmt]
    assert run(capsys, *argv) == (
        EXIT_USAGE, "", "error: class product alpha*beta or its split overflows the float range\n")


ELECTRONS_OVERFLOWS = {
    # -n(n + delta - 1) overflows: no verdict on the branch
    "degree-condition": (
        ["app", "electrons-sphere", "--n", "2", "--gamma", "1", "--delta", "1e308"],
        "electrons degree condition overflows the float range"),
    # 1/gamma = 1e308 makes the coefficient map non-finite
    "coefficient-map": (
        ["app", "electrons-sphere", "--n", "2", "--gamma", "1e-308", "--delta", "2"],
        "coefficient map overflows the float range"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("case", sorted(ELECTRONS_OVERFLOWS))
def test_electrons_value_that_overflows_is_a_usage_error(capsys, case, fmt):
    argv, message = ELECTRONS_OVERFLOWS[case]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (EXIT_USAGE, "", "error: %s\n" % message)


@pytest.mark.parametrize("case", sorted(ELECTRONS_OVERFLOWS))
def test_electrons_overflow_warns_nothing_under_w_error(case):
    # a fresh interpreter that turns every warning into an exception: a
    # numpy RuntimeWarning on the way would escape main as a traceback
    argv, message = ELECTRONS_OVERFLOWS[case]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "heunforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_USAGE, "", "error: %s\n" % message)


def test_noise_bound_beyond_float_range_is_a_usage_error(capsys):
    # sigma's irrational roots near +-1e150 i put |centre|^k of the bound on
    # B's rounding noise past float range; the bare OverflowError of ** once
    # printed "(34, 'Numerical result out of range')"
    argv = ["classify", "--sigma", "1e-300*z^3 + z - 1", "--tau", "1 - 2*z + z^2",
            "--sigma-tilde", "3 - z + 2*z^2", "--backend", "exact"]
    expected = (EXIT_USAGE, "", "error: noise bound at a root of sigma overflows the float range\n")
    assert run(capsys, *argv) == expected
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "heunforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_exact_value_beyond_float_range_is_a_usage_error(capsys):
    # each coefficient of sigma fits a float, but the bound on its roots
    # takes abs() of an exact value whose float is out of range; int true
    # division once printed "integer division result too large for a float"
    argv = ["classify", "--sigma", "1e308*z^3 - 1e308*z", "--tau", "1 + z",
            "--sigma-tilde", "1 + z^2", "--backend", "exact"]
    assert run(capsys, *argv) == (
        EXIT_USAGE, "", "error: exact value overflows the float range\n")


@pytest.mark.parametrize("argv, option", [
    (["classify", "--sigma", "z^2", "--tau", "z", "--sigma-tilde", "1e400*z"],
     "--sigma-tilde"),
    # each term fits a float, their sum does not
    (["classify", "--sigma", "z^2 - z", "--tau", "1 - 2*z",
      "--sigma-tilde", "1e308*z + 1e308*z"], "--sigma-tilde"),
    (SOLVE_HEUN_ARGS + ["--accessory", "1e400"], "--accessory"),
    (SOLVE_HEUN_ARGS[:7] + ["1e400"] + SOLVE_HEUN_ARGS[8:], "--a"),
], ids=["classify", "classify-summed", "solve-accessory", "solve-parameter"])
def test_exact_literal_without_float_image_is_a_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv, "--backend", "exact")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: %s has a value beyond float range\n" % option


@pytest.mark.parametrize("literal", ["1e-400", "%d/%d" % (10**400, 10**399)],
                         ids=["1e-400", "10^400/10^399"])
def test_exact_literal_with_float_image_runs(capsys, literal):
    code, out, err = run(capsys, "classify", "--sigma", "z^2 - z",
                         "--tau", "1 - 2*z", "--sigma-tilde", literal + "*z",
                         "--backend", "exact", "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["branches"]
    code, _, err = run(capsys, *SOLVE_HEUN_ARGS, "--accessory", literal,
                       "--backend", "exact")
    # parsed and solved: no state admits this accessory value
    assert code == EXIT_NO_SOLUTION, err


def _readme_commands():
    """Every `heunforge ...` command of README's sh blocks, as argv lists
    without the program name."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for command in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(command)
            if argv and argv[0] == "heunforge":
                commands.append(argv[1:])
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_eight_commands():
    assert len(README_COMMANDS) == 8


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    "%d-%s" % (k, argv[0]) for k, argv in enumerate(README_COMMANDS)])
def test_readme_command_runs(capsys, argv, fmt):
    # a later --format overrides the one a README command gives
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_OK, err
    assert out and not err
    if fmt == "json":
        # one line, as json.dumps(sort_keys=True) writes it, and strict
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert json.dumps(doc, sort_keys=True) + "\n" == out


SOLVE_CHE_ARGS = ["solve", "che", "--class", "1", "-n", "2", "--alpha", "3/2",
                  "--beta", "1/3", "--gamma", "2/5"]


# per case: an argv with an option its command does not read, and the
# end of argparse's refusal
FOREIGN_OPTIONS = {
    "che-delta": (SOLVE_CHE_ARGS + ["--delta", "1/3"],
                  "heunforge: error: unrecognized arguments: --delta 1/3\n"),
    "heun-alpha": (SOLVE_HEUN_ARGS + ["--alpha", "1"],
                   "heunforge: error: unrecognized arguments: --alpha 1\n"),
    "che-a": (SOLVE_CHE_ARGS + ["--a", "7"],
              "heunforge: error: unrecognized arguments: --a 7\n"),
    "coulomb3s-d": (["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5", "--d", "1"],
                    "heunforge: error: unrecognized arguments: --d 1\n"),
    "electrons-sphere-parity": (
        ["app", "electrons-sphere", "--n", "1", "--gamma", "1", "--delta", "2",
         "--parity", "antisymmetric"],
        "heunforge: error: unrecognized arguments: --parity antisymmetric\n"),
    # no abbreviation: double-well's --d is not read as --delta
    "electrons-sphere-d": (
        ["app", "electrons-sphere", "--n", "1", "--gamma", "1", "--delta", "2", "--d", "5"],
        "heunforge: error: unrecognized arguments: --d 5\n"),
    # every app computes in floats
    "coulomb3s-backend": (["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5",
                           "--backend", "exact"],
                          "heunforge: error: unrecognized arguments: --backend exact\n"),
}


@pytest.mark.parametrize("case", list(FOREIGN_OPTIONS))
def test_each_command_refuses_an_option_it_does_not_read(capsys, case):
    # each was once parsed into a shared namespace and ignored, exit 0
    argv, refusal = FOREIGN_OPTIONS[case]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(refusal)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_class_label_prints_as_the_class_table_spells_it(capsys, fmt):
    argv = ["solve", "heun", "-n", "1", "--a", "2", "--gamma", "1/2", "--delta", "1/3",
            "--epsilon", "3/4", "--format", fmt]
    lower = run(capsys, *argv, "--class", "ii")
    assert lower == run(capsys, *argv, "--class", "II")
    assert lower[0] == EXIT_OK
    if fmt == "json":
        assert json.loads(lower[1])["class"] == "II"
    elif fmt == "table":
        assert lower[1].startswith("heun class II, degree 1:")


@pytest.mark.parametrize("argv, builds", [
    (SOLVE_HEUN_ARGS, 1),
    (SOLVE_CHE_ARGS, 1),
    # an exact setup for the values, a float one for the states on the
    # float copy of the parameters
    (SOLVE_HEUN_ARGS + ["--backend", "exact"], 2),
    (SOLVE_CHE_ARGS + ["--backend", "exact"], 2),
], ids=["heun-float", "che-float", "heun-exact", "che-exact"])
def test_one_class_build_per_solve(monkeypatch, capsys, argv, builds):
    # the accessory call and the eigenstates of one record share its
    # class setup, so the class branch is recovered from its pi once
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
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["states"]
    assert len(calls) == builds


@pytest.mark.parametrize("argv", [
    ["solve", "heun", "--class", "I", "-n", "100000", "--a", "19/10",
     "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4"],
    ["app", "electrons-sphere", "--n", "100000", "--gamma", "1", "--delta", "1"],
    ["app", "double-well", "--n", "100000", "--d", "1", "--u0", "25"],
], ids=["solve", "electrons-sphere", "double-well"])
def test_refused_allocation_is_a_usage_error(monkeypatch, capsys, argv):
    # a degree-100000 coefficient map asks numpy for 149 GiB; where the
    # allocation is refused, numpy raises MemoryError. It is simulated:
    # a host that overcommits kills the process instead of refusing.
    from heunforge import floatkernel

    def refuse(shape, zero):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape %s" % (shape,))

    monkeypatch.setattr(floatkernel, "full", refuse)
    expected = "error: out of memory (Unable to allocate 149. GiB for an " \
        "array with shape (100002, 100001))\n"
    assert run(capsys, *argv) == (EXIT_USAGE, "", expected)


def _top_level_parse(parser, argv):
    """The reference parse: the top-level parser's own pass, which hands
    a command's words to that command's parser."""
    return parser.parse_args(argv)


def _outcome(parse, argv):
    """vars of the namespace parse gives for argv, or the (exit code,
    stdout, stderr) it exits with."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(build_parser(), argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


APP_ARGS = ["app", "coulomb3s", "--n", "1", "--m", "0", "--gamma", "1"]

@pytest.mark.parametrize("argv", [CLASSIFY_ARGS, SOLVE_ARGS, APP_ARGS],
                         ids=["classify", "solve", "app"])
def test_backend_comes_from_the_option_alone(capsys, monkeypatch, argv):
    monkeypatch.delenv("HEUNFORGE_BACKEND", raising=False)
    unset = run(capsys, *argv, "--format", "json")
    monkeypatch.setenv("HEUNFORGE_BACKEND", "exact")
    assert run(capsys, *argv, "--format", "json") == unset
    assert unset[0] == EXIT_OK
    assert json.loads(unset[1])["backend"] == "float"


PARSE_CORPUS = README_COMMANDS + [
    ["-h"], ["--help"], ["classify", "-h"], ["solve", "-h"], ["app", "-h"],
    [],
    ["frobnicate", "--n", "1"],
    CLASSIFY_ARGS + ["--bogus", "1"],
    APP_ARGS + ["junk"],
    APP_ARGS + ["junk", "--more", "words"],
    ["classify", "--sig", "z^2 - z", "--tau", "1", "--sigma-tilde", "z"],
    ["solve", "heun", "--cla", "I", "-n", "1", "--a", "2", "--gamma", "1/2",
     "--delta", "1/3", "--epsilon", "3/4"],
    ["--", *APP_ARGS],
    ["app", "--", "coulomb3s", "--n", "1"],
    ["solve", "che", "--class", "1", "-n", "two", "--gamma", "1"],
    ["solve", "che", "-n", "1", "--gamma", "1"],
    ["--backend", "exact", *CLASSIFY_ARGS],
    ["solve", "heun", "-h"],
    ["app", "double-well", "--help"],
    SOLVE_CHE_ARGS + ["--delta", "1/3"],
    APP_ARGS + ["--backend", "exact"],
    ["app", "coulomb3s", "--n", "1", "--gamma", "1"],
    ["solve", "--class", "I", "heun", *SOLVE_ARGS[4:]],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS,
                         ids=["%d" % k for k in range(len(PARSE_CORPUS))])
def test_one_pass_parse_is_the_top_level_parse(capsys, monkeypatch, argv):
    # parsed: the same namespace; refused or helped: the same exit
    assert _outcome(cli._parse, argv) == _outcome(_top_level_parse, argv)
    # and main prints and returns the same, byte for byte
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", _top_level_parse)
    assert got == run(capsys, *argv)


def test_command_argv_skips_the_top_level_pass(capsys, monkeypatch):
    parser = build_parser()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return type(parser).parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    for argv in (CLASSIFY_ARGS, SOLVE_ARGS, APP_ARGS):
        assert run(capsys, *argv)[0] == EXIT_OK
    assert calls == []
    # an argv no command leads still takes it
    assert run(capsys, "-h")[0] == EXIT_OK
    assert len(calls) == 1


def test_family_and_app_argv_skip_the_command_pass(capsys, monkeypatch):
    # `solve heun` and `app coulomb3s` go straight to their leaf parsers
    parser = build_parser()
    calls = []
    for name in ("solve", "app"):
        sub = parser.command_parsers[name]

        def counted(*args, sub=sub, **kwargs):
            calls.append(args)
            return type(sub).parse_known_args(sub, *args, **kwargs)

        monkeypatch.setattr(sub, "parse_known_args", counted)
    for argv in (SOLVE_ARGS, SOLVE_CHE_ARGS, APP_ARGS):
        assert run(capsys, *argv)[0] == EXIT_OK
    assert calls == []
    # a family that does not follow `solve` directly is refused there
    code, out, err = run(capsys, "solve", "--class", "I", "heun", *SOLVE_ARGS[4:])
    assert (code, out) == (EXIT_USAGE, "")
    assert "heunforge solve: error: argument family: invalid choice: 'I'" in err
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [APP_ARGS, ["-h"]], ids=["app", "help"])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["heunforge", *argv])
    code = main()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected


@pytest.mark.parametrize("argv", [
    ["solve", "heun", "--class", "I", "-n", "3", "--a", "19/10", "--gamma", "1/2",
     "--delta", "1/3", "--epsilon", "3/4", "--format", "json"],
    ["classify", "--sigma", "z^3 - 3*z^2 + 2*z", "--tau", "1 - 35/12*z + 19/12*z^2",
     "--sigma-tilde", "-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4"],
], ids=["solve", "classify"])
def test_closed_stdout_exits_1_quietly(argv):
    # stdout is a pipe whose reader is gone before the first byte: the
    # write fails with EPIPE every time, where `| head` races the writer
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "heunforge.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE == 1
