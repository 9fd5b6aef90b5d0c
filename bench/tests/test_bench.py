"""Self-tests of the benchmark: deterministic workloads and a checker that
rejects incomplete answers. Run with `python -m pytest bench/tests`."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from polys import branch_lhs, pdivmod, pmul  # noqa: E402


def _argvs(workload, seed, count):
    return [r.argv for r in islice(workloads.requests(workload, seed), count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv_lists(workload):
    first = _argvs(workload, 7, 250)
    assert first == _argvs(workload, 7, 250)
    assert first != _argvs(workload, 8, 250)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_serves_the_same_pool_in_its_own_order(workload):
    pool = workloads.pool(workload, 20)
    recorded = 1 if workload == "classify" else 0
    assert len(pool) == round(20 / workloads.BLOCK_SECONDS[workload]) + recorded
    first = workloads.ordered(pool, 7)
    assert first == workloads.ordered(workloads.pool(workload, 20), 7)
    other = workloads.ordered(pool, 8)
    assert other != first
    assert sorted(r.argv for r in other) == sorted(r.argv for r in first)


def test_recorded_crash_equation_is_a_heun_family_equation():
    """sigma = z (z - 1) (z - a) and sigma~ = (alpha beta z - q) sigma, as
    heun_equation builds them."""
    eq = workloads.RECORDED_CRASH
    assert eq["sigma"] == pmul(pmul([0, 1], [-1, 1]), [Fraction(-29, 11), 1])
    quotient, rest = pdivmod(eq["sigma_tilde"], eq["sigma"])
    assert not any(rest) and quotient == [Fraction(4, 9), Fraction(4, 5)]


def test_exact_workload_sends_the_float_solves():
    solves = [a for a in _argvs("eigen-float", 3, 460) if a[0] == "solve"]
    exact = _argvs("eigen-exact", 3, len(solves))
    as_float = [a[:-4] + ("--backend", "float") + a[-2:] for a in exact]
    assert as_float == solves


def test_solve_block_covers_every_class_and_degree_once():
    block = next(workloads.blocks("eigen-exact", 5))
    cells = {(r.label, r.n) for r in block}
    assert len(block) == len(cells) == 2 * 8 * len(workloads.DEGREES)


def test_planted_branch_satisfies_its_equation():
    rng = workloads.random.Random(11)
    for shape in workloads.PLANTED_SHAPES:
        tau, sigma, sigma_tilde, pi0 = workloads.planted_equation(rng, shape)
        g, rem = pdivmod(branch_lhs(pi0, tau, sigma, sigma_tilde), sigma)
        assert all(c == 0 for c in rem), shape
        assert all(c == 0 for c in g[2:]), shape
        assert len(tau) <= 3 and len(sigma) <= 4 and len(sigma_tilde) <= 5


def _solve_request(n=3):
    return workloads.Request(("solve", "heun"), "solve", "float", "heun/I", n)


def _state(accessory, n, residual=1e-12):
    return {"accessory": accessory, "residual": residual,
            "check": {"name": "residual", "value": residual,
                      "tolerance": 1e-8, "passed": residual <= 1e-8},
            "poly": {"coeffs": [1.0] * (n + 1), "text": ""}}


def test_checker_accepts_a_complete_solve():
    out = {"states": [_state(float(k), 3) for k in range(4)]}
    verdict = checks.check(_solve_request(3), 0, json.dumps(out))
    assert verdict.ok and verdict.results == 4


def test_checker_rejects_a_partial_solve_that_exits_zero():
    out = {"states": [_state(float(k), 3) for k in range(2)]}
    verdict = checks.check(_solve_request(3), 0, json.dumps(out))
    assert not verdict.ok and not verdict.wrong
    assert verdict.reason == "2 of 4 states"


def test_checker_rejects_repeated_accessory_values():
    out = {"states": [_state(1.5, 3) for _ in range(4)]}
    assert not checks.check(_solve_request(3), 0, json.dumps(out)).ok


def test_checker_flags_exit_zero_with_a_failing_residual_as_wrong():
    out = {"states": [_state(float(k), 3, residual=1e-3) for k in range(4)]}
    verdict = checks.check(_solve_request(3), 0, json.dumps(out))
    assert verdict.wrong


def _exact_json(value):
    value = Fraction(value)
    return {"re": {"num": value.numerator, "den": value.denominator},
            "im": {"num": 0, "den": 1}}


def _planted_request():
    rng = workloads.random.Random(5)
    tau, sigma, sigma_tilde, pi0 = workloads.planted_equation(rng, "cube")
    expect = {"tau": tau, "sigma": sigma, "sigma_tilde": sigma_tilde, "pi0": pi0}
    return workloads.Request(("classify",), "classify-planted", "exact", "cube",
                             -1, expect)


def _branch_json(pi, request):
    """The branch pi with the g its identity implies."""
    e = request.expect
    g, _ = pdivmod(branch_lhs(pi, e["tau"], e["sigma"], e["sigma_tilde"]), e["sigma"])
    return {"sign": 1, "class": "",
            "pi": {"coeffs": [_exact_json(c) for c in pi]},
            "g": {"coeffs": [_exact_json(c) for c in g[:2]]}}


def test_checker_accepts_classify_output_with_the_planted_branch():
    request = _planted_request()
    out = {"family": "", "branches": [_branch_json(request.expect["pi0"], request)]}
    verdict = checks.check(request, 0, json.dumps(out))
    assert verdict.ok, verdict


def test_checker_rejects_classify_output_with_the_planted_branch_missing():
    request = _planted_request()
    verdict = checks.check(request, 0, json.dumps({"family": "", "branches": []}))
    assert not verdict.ok and not verdict.wrong
    assert verdict.reason == "planted branch missing"


def test_checker_flags_a_branch_that_violates_the_equation_as_wrong():
    request = _planted_request()
    branch = _branch_json(request.expect["pi0"], request)
    branch["g"]["coeffs"][0] = _exact_json(12345)
    verdict = checks.check(request, 0, json.dumps({"family": "", "branches": [branch]}))
    assert verdict.wrong


def _serve(argv):
    from heunforge import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_reads_real_cli_output(workload):
    """The first low-degree request of each kind and backend goes through
    the CLI, so the checker and the CLI agree on the output format. Family
    classify, degree-1/2 solves and low apps verify at the seed; planted
    equations may miss their branch, but must not read as wrong."""
    seen = set()
    for request in islice(workloads.requests(workload, 1), 250):
        key = (request.kind, request.backend)
        if key in seen or request.n > 2 or request.label == "square-linear":
            continue
        seen.add(key)
        code, stdout = _serve(request.argv)
        verdict = checks.check(request, code, stdout)
        assert not verdict.wrong, (request.argv, verdict)
        if request.kind != "classify-planted":
            assert verdict.ok, (request.argv, verdict)
    assert seen
