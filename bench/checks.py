"""Independent checks of `heunforge` CLI output.

`check(request, exit_code, stdout)` returns a `Verdict`:

- `ok`: the request is fully verified;
- `results`: verified results it contributes (one per classify request or
  app report, one per eigenstate of a solve);
- `wrong`: the program claimed success for content that is false, such as
  a branch that does not satisfy its own equation, or a solve that exits 0
  with a residual above tolerance. Any wrong output makes a run incorrect;
- `reason`: why a request is not verified.

A request that fails without claiming anything false (a nonzero exit, a
missing branch, fewer than n+1 accessory values) is not verified but not
wrong: these are the failures the benchmark counts in `ok_share`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from polys import Gaussian, branch_lhs, is_exact, pmul, psub

HEUN_LABELS = {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
CHE_LABELS = {"1", "2", "3", "4", "5", "6", "7", "8"}
FLOAT_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-8  # the CLI's default "residual" tolerance
DISTINCT_REL_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    ok: bool
    results: int = 0
    wrong: bool = False
    reason: str = ""


def _fail(reason: str) -> Verdict:
    return Verdict(False, 0, False, reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(False, 0, True, reason)


# -- scalars --------------------------------------------------------------------
#
# Exact values are `Gaussian` rationals; float values are Python complex
# numbers. Polynomials are coefficient lists, lowest degree first (polys.py).


def _real(value):
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return value


def scalar(value):
    """A JSON scalar from the CLI as a Gaussian or a complex."""
    if isinstance(value, dict) and "re" in value:
        re, im = _real(value["re"]), _real(value["im"])
        if isinstance(re, (Fraction, int)) and isinstance(im, (Fraction, int)):
            return Gaussian(re, im)
        return complex(float(re), float(im))
    value = _real(value)
    if isinstance(value, Fraction):
        return Gaussian(value)
    return complex(value)


def poly(coeffs):
    """Coefficient list of JSON scalars from the CLI."""
    return [scalar(c) for c in coeffs] or [0]


def _max_abs(p) -> float:
    return max(abs(complex(c)) for c in p)


def identity_holds(pi, g, tau, sigma, sigma_tilde) -> bool:
    """pi^2 + pi (tau~ - sigma') + sigma~ = g sigma, exactly when every
    value is exact, else to a relative FLOAT_REL_TOL of the largest term."""
    lhs = branch_lhs(pi, tau, sigma, sigma_tilde)
    rhs = pmul(g, sigma)
    defect = psub(lhs, rhs)
    if all(is_exact(c) for c in defect):
        return all(c == 0 for c in defect)
    scale = max(1.0, _max_abs(lhs), _max_abs(rhs))
    return _max_abs(defect) <= FLOAT_REL_TOL * scale


def same_poly(p, q) -> bool:
    """Equal exactly when both are exact, else to FLOAT_REL_TOL."""
    diff = psub(p, q)
    if all(is_exact(c) for c in diff):
        return all(c == 0 for c in diff)
    return _max_abs(diff) <= FLOAT_REL_TOL * max(1.0, _max_abs(p), _max_abs(q))


# -- per-kind checks -----------------------------------------------------------------


def _check_classify(request, out) -> Verdict:
    tau, sigma, sigma_tilde = (request.expect[key]
                               for key in ("tau", "sigma", "sigma_tilde"))
    branches = out.get("branches")
    if not isinstance(branches, list):
        return _wrong("classify output has no branch list")
    pis = []
    for b in branches:
        pi = poly(b["pi"]["coeffs"])
        g = poly(b["g"]["coeffs"])
        if not identity_holds(pi, g, tau, sigma, sigma_tilde):
            return _wrong("returned branch violates pi^2 + pi(tau~ - sigma') "
                          "+ sigma~ = g sigma")
        pis.append(pi)
    if request.kind == "classify-family":
        labels = {b["class"] for b in branches if b["class"]}
        catalog = HEUN_LABELS if request.label == "heun" else CHE_LABELS
        if out.get("family") != request.label:
            return _fail("family not detected (%r)" % out.get("family"))
        if labels - catalog:
            return _wrong("labels outside the %s catalog: %s"
                          % (request.label, sorted(labels - catalog)))
        if labels != catalog:
            return _fail("missing class labels %s" % sorted(catalog - labels))
        return Verdict(True, 1)
    pi0 = request.expect["pi0"]
    if not any(same_poly(pi, pi0) for pi in pis):
        return _fail("planted branch missing")
    return Verdict(True, 1)


def _distinct(values) -> bool:
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            if is_exact(x) and is_exact(y):
                if x == y:
                    return False
                continue
            x_c, y_c = complex(x), complex(y)
            if abs(x_c - y_c) <= DISTINCT_REL_TOL * max(1.0, abs(x_c), abs(y_c)):
                return False
    return True


def _check_solve(request, out) -> Verdict:
    n = request.n
    states = out.get("states")
    if not isinstance(states, list) or not states:
        return _wrong("solve exited 0 without states")
    for s in states:
        chk = s["check"]
        if not chk["passed"] or not s["residual"] <= RESIDUAL_TOL:
            return _wrong("solve exited 0 with residual %r above tolerance"
                          % s["residual"])
        if len(s["poly"]["coeffs"]) != n + 1:
            return _wrong("state polynomial has degree %d, not %d"
                          % (len(s["poly"]["coeffs"]) - 1, n))
    if len(states) != n + 1:
        return _fail("%d of %d states" % (len(states), n + 1))
    if not _distinct([scalar(s["accessory"]) for s in states]):
        return _fail("repeated accessory values")
    return Verdict(True, n + 1)


def _check_app(request, out) -> Verdict:
    checks = out.get("checks") or []
    if not checks or not all(c["passed"] and c["value"] <= c["tolerance"]
                             for c in checks):
        return _wrong("app exited 0 with a failing check")
    report = out["report"]
    if request.label == "double-well":
        count, want = len(report["resolved_mu"]), request.n + 1
    elif request.label == "electrons-sphere":
        count, want = len(report["roots"]), request.n
    else:
        count = want = 0
    if count != want:
        return _fail("%d of %d %s" % (count, want,
                     "mu values" if request.label == "double-well" else "roots"))
    return Verdict(True, 1)


_CHECKERS = {
    "classify-family": _check_classify,
    "classify-planted": _check_classify,
    "solve": _check_solve,
    "app": _check_app,
}


def check(request, exit_code: int, stdout: str) -> Verdict:
    """Judge one request from its exit code and captured stdout."""
    if exit_code != 0:
        return _fail("exit %d" % exit_code)
    try:
        out = json.loads(stdout)
    except ValueError:
        return _wrong("exit 0 without JSON output")
    try:
        return _CHECKERS[request.kind](request, out)
    except (KeyError, TypeError, ValueError) as exc:
        return _wrong("malformed output (%s: %s)" % (type(exc).__name__, exc))
