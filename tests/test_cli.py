"""Command-line interface: formats, exit codes, backend selection."""

import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import heunforge
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
    _branch_label,
    _class_catalog,
    _match_heun,
    build_parser,
    main,
)
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


def test_classify_float_backend_env(capsys, monkeypatch):
    monkeypatch.setenv("HEUNFORGE_BACKEND", "exact")
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["backend"] == "exact"


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


def test_solve_custom_samples(capsys):
    code, out, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "1",
                       "--a", "1.9", "--gamma", "0.6", "--delta", "0.8",
                       "--epsilon", "0.7", "--samples", "32",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(st["residual"] < 1e-8 for st in doc["states"])


def test_solve_samples_residual_matches_public_api(capsys):
    code, out, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "1",
                       "--a", "1.9", "--gamma", "0.6", "--delta", "0.8",
                       "--epsilon", "0.7", "--samples", "32",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    p = heun_params_for_class("I", 1, 1.9, 0.6, 0.8, 0.7)
    roots = heun_accessory(p, "I", 1)
    assert len(doc["states"]) == len(roots) == 2
    for st, q in zip(doc["states"], roots):
        pq = replace(p, q=q)
        state = heun_eigenstate(pq, "I", 1)
        assert st["residual"] == ode_residual(
            state, heun_to_nu(pq).psi_ode(), 32)
        assert st["residual"] != state.residual  # 50 points give another


def test_solve_tight_tolerance_fails_verification(capsys):
    code, _, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "2",
                     "--a", "2", "--gamma", "0.5", "--delta", "1/3",
                     "--epsilon", "0.75", "--tol", "residual=1e-20")
    assert code == EXIT_VERIFICATION


def test_solve_wrong_accessory_no_solution(capsys):
    code, _, err = run(capsys, "solve", "che", "--backend", "exact",
                       "--class", "2", "-n", "1", "--alpha", "3/2",
                       "--beta", "1/3", "--gamma", "2/5",
                       "--accessory", "37/60")
    assert code == EXIT_NO_SOLUTION
    assert "no solution" in err


def test_usage_errors(capsys):
    # unknown tolerance name
    code, _, _ = run(capsys, *CLASSIFY_ARGS, "--tol", "bogus=1e-8")
    assert code == EXIT_USAGE
    # sample floor
    code, _, _ = run(capsys, *CLASSIFY_ARGS, "--samples", "4")
    assert code == EXIT_USAGE
    # missing required family parameters
    code, _, _ = run(capsys, "solve", "heun", "--class", "I", "-n", "1",
                     "--gamma", "0.6", "--delta", "0.8", "--epsilon", "0.7")
    assert code == EXIT_USAGE
    # argparse-level failure (unknown subcommand)
    code = main(["frobnicate"])
    assert code == EXIT_USAGE


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
    catalog = _class_catalog(_match_heun(eq), None)
    labels = []
    for b in enumerate_branches(eq):
        assert b.backend == EXACT
        float_b = PiBranch(b.g.to_float(), b.s.to_float(), b.pi.to_float(),
                           b.sign)
        label = _branch_label(b, catalog)
        assert _branch_label(float_b, catalog) == label
        labels.append(label)
    assert sorted(labels) == sorted(c.label for c in HEUN_CLASSES)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_tolerance_must_be_finite_and_positive(capsys, value):
    code, _, err = run(capsys, *CLASSIFY_ARGS, "--tol", "residual=" + value)
    assert code == EXIT_USAGE
    assert "finite and positive" in err


SOLVE_ARGS = ["solve", "heun", "--class", "I", "-n", "2", "--a", "19/10",
              "--gamma", "3/5", "--delta", "4/5", "--epsilon", "7/10"]


@pytest.mark.parametrize("argv", [
    CLASSIFY_ARGS,
    SOLVE_ARGS,
    ["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "1.5"],
])
def test_unknown_backend_env_rejected(capsys, monkeypatch, argv):
    monkeypatch.setenv("HEUNFORGE_BACKEND", "foo")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_USAGE
    assert out == ""
    assert "HEUNFORGE_BACKEND" in err and "'foo'" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_reads_backend_env_per_call(capsys, monkeypatch):
    monkeypatch.setenv("HEUNFORGE_BACKEND", "exact")
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["backend"] == "exact"
    monkeypatch.delenv("HEUNFORGE_BACKEND")
    code, out, _ = run(capsys, *CLASSIFY_ARGS, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["backend"] == "float"


def test_reused_parser_forgets_tolerances(capsys):
    # --tol appends: a shared list default would keep the first call's entry
    code, _, _ = run(capsys, *SOLVE_ARGS, "--tol", "residual=1e-30")
    assert code == EXIT_VERIFICATION
    code, _, _ = run(capsys, *SOLVE_ARGS)
    assert code == EXIT_OK


def test_reused_parser_forgets_samples(capsys):
    code, _, _ = run(capsys, *SOLVE_ARGS, "--samples", "32")
    assert code == EXIT_OK
    code, out, _ = run(capsys, *SOLVE_ARGS, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    p = heun_params_for_class("I", 2, 1.9, 0.6, 0.8, 0.7)
    roots = heun_accessory(p, "I", 2)
    assert len(doc["states"]) == len(roots) == 3
    for st, q in zip(doc["states"], roots):
        pq = replace(p, q=q)
        state = heun_eigenstate(pq, "I", 2)
        assert st["residual"] == ode_residual(
            state, heun_to_nu(pq).psi_ode(), 50)


@pytest.mark.parametrize("first, first_code", [
    (["solve", "heun", "--class", "I"], EXIT_USAGE),
    (["classify", "--help"], EXIT_OK),
])
def test_reused_parser_after_exit_inside_argparse(capsys, monkeypatch,
                                                  first, first_code):
    monkeypatch.delenv("HEUNFORGE_BACKEND", raising=False)
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
     "--beta", "1/3", "--gamma", "2/5"],
    ["app", "double-well", "--n", "1", "--d", "1e200", "--u0", "100"],
], ids=["solve-che", "app-double-well"])
def test_class_relation_that_overflows_is_a_usage_error(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--backend", "float", "--format", fmt)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: class relation overflows the float range\n"


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
    env.pop("HEUNFORGE_BACKEND", None)
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
    env.pop("HEUNFORGE_BACKEND", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "heunforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


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
def test_readme_command_runs(capsys, monkeypatch, argv, fmt):
    monkeypatch.delenv("HEUNFORGE_BACKEND", raising=False)
    # a later --format overrides the one a README command gives
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_OK, err
    assert out and not err
    if fmt == "json":
        # one line, as json.dumps(sort_keys=True) writes it, and strict
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert json.dumps(doc, sort_keys=True) + "\n" == out
