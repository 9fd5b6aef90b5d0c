"""Command-line front end.

Three subcommands: `classify` enumerates the polynomial-reduction
branches of an equation given by its three coefficient polynomials and
labels the ones matching a known family class; `solve` resolves the
accessory parameter for a (family, class, degree) request and assembles
the eigenfunctions with their contour residuals; `app` runs one of the
bundled model problems and reports closed-form values next to their
verification residuals.

Each `cmd_*` formats nothing itself: it returns a record
(top, items, checks) of raw values. `top` holds the top-level
fields, `items` the branches, the states or the app report, and
`checks` the named verification checks. One dispatch, `_render`, prints
the record. JSON is written in one pass, `_json_text`, that puts each
Poly and scalar in its JSON form as it meets it and writes the bytes
json.dumps(indent=2, sort_keys=True) would. CSV and table output come
from the command's own row and line functions over the same record. The exit code follows from the
checks alone: 4 if any failed, else 0.

Exit codes: 0 all checks passed, 2 usage or parse error, 3 no solution
exists (no branch / no accessory root / class relation violated),
4 a verification residual exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .apps import (
    ANTISYMMETRIC,
    SYMMETRIC,
    coulomb3s_verify,
    doublewell_verify,
    electrons_sphere_state,
)
from .che import (
    CHE_CLASSES,
    CheParams,
    che_accessory,
    che_eigenstates,
    che_params_for_class,
)
from .engine import (
    CLASSIC,
    EXTENDED,
    NoBranchError,
    NuEquation,
    enumerate_branches,
    reduce_branch,
)
from .heun import (
    HEUN_CLASSES,
    heun_accessory,
    heun_eigenstates,
    heun_params_for_class,
)
from .poly import Poly, format_poly, parse_poly
from .scalars import (
    EXACT,
    FLOAT,
    RationalComplex,
    format_scalar,
    parse_scalar,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3
EXIT_VERIFICATION = 4

DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "relation": 1e-9,
    "termination": 1e-8,
    "bethe": 1e-8,
}

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings shared by all subcommands."""

    backend: str = FLOAT
    tolerances: dict = None
    fmt: str = "table"
    samples: int = 50

    def __post_init__(self):
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances or {})
        if not all(math.isfinite(v) and v > 0 for v in tols.values()):
            raise ValueError("tolerances must be finite and positive")
        if self.samples < 8:
            raise ValueError("sample count must be at least 8")
        object.__setattr__(self, "tolerances", tols)


# -- serialization ------------------------------------------------------------


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x, nl):
    text = float.__repr__(x)  # numpy 2's repr(np.float64(x)) is "np.float64(x)"
    return _NONFINITE.get(text, text)


def _complex_text(z, nl):
    if z.imag == 0:
        return _float_text(z.real, nl)
    return '{%s"im": %s,%s"re": %s%s}' % (
        nl + "  ", _float_text(z.imag, nl), nl + "  ", _float_text(z.real, nl), nl)


def _list_text(items, nl):
    inner = nl + "  "
    return "[%s%s%s]" % (inner, ("," + inner).join(
        [_JSON_WRITERS[type(v)](v, inner) for v in items]), nl) if items else "[]"


def _dict_text(d, nl):
    inner = nl + "  "
    return "{%s%s%s}" % (inner, ("," + inner).join([
        encode_basestring_ascii(key) + ": " + _JSON_WRITERS[type(v)](v, inner)
        for key, v in sorted(d.items())]), nl) if d else "{}"


class _Writers(dict):
    """JSON writer per type; a subclass (numpy's float64) takes its base's."""

    def __missing__(self, kind):
        for base in kind.__mro__:
            if base in self:
                return self[base]
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


_JSON_WRITERS = _Writers({
    str: lambda s, nl: encode_basestring_ascii(s),
    int: lambda i, nl: int.__repr__(i),
    bool: lambda b, nl: "true" if b else "false",
    type(None): lambda _, nl: "null",
    float: _float_text,
    complex: _complex_text,
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
    Poly: lambda p, nl: _dict_text({"coeffs": p.coeffs, "text": format_poly(p)}, nl),
    RationalComplex: lambda v, nl: _dict_text({"im": v.im, "re": v.re}, nl),
    Fraction: lambda v, nl: _dict_text({"den": v.denominator, "num": v.numerator}, nl),
})


def _json_text(value) -> str:
    """value's JSON form, byte for byte as json.dumps(indent=2, sort_keys=True)
    writes it: a Poly as {"coeffs", "text"}, a RationalComplex as {"im", "re"},
    a Fraction as {"den", "num"}, a complex with imaginary part 0 as a real."""
    return _JSON_WRITERS[type(value)](value, "\n")


def _check(name: str, value: float, tolerance: float):
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": bool(value <= tolerance),
    }


def _verdict(check) -> str:
    verdict = "PASS" if check["passed"] else "FAIL"
    return "[%s <= %g]" % (verdict, check["tolerance"])


def _cell(value) -> str:
    if isinstance(value, Poly):
        return format_poly(value)
    if isinstance(value, (RationalComplex, complex)):
        return format_scalar(value)
    return str(value)


# -- family detection ---------------------------------------------------------


def _accessory_quotient(eq: NuEquation):
    """sigma~ / sigma when the division is exact and affine, else None."""
    quot, rem = eq.sigma_tilde.divrem(eq.sigma)
    scale = max(eq.sigma_tilde.max_abs(), 1.0)
    if rem.to_float().max_abs() > 1e-10 * scale or quot.degree > 1:
        return None
    return quot


def _match_heun(eq: NuEquation):
    """Exponent parameters when sigma = z(z-1)(z-a) and sigma~ factors
    through sigma, else None."""
    sig = eq.sigma
    if eq.mode != EXTENDED or sig.degree != 3:
        return None
    if abs(complex(sig.coeff(3)) - 1) > 1e-12 or abs(complex(sig.coeff(0))) > 1e-12:
        return None
    a = sig.coeff(1)
    if abs(complex(sig.coeff(2)) + complex(a) + 1) > 1e-10 * max(
        1.0, abs(complex(a))
    ):
        return None
    if min(abs(complex(a)), abs(complex(a) - 1)) < 1e-12:
        return None
    if _accessory_quotient(eq) is None:
        return None
    tt = eq.tau_tilde
    return SimpleNamespace(
        a=a,
        gamma=tt(0) / a,
        delta=tt(1) / (1 - a),
        epsilon=tt(a) / (a * (a - 1)),
        backend=eq.backend,
    )


def _match_che(eq: NuEquation):
    """CheParams when sigma = z(z-1) and sigma~ factors through sigma,
    else None."""
    sig = eq.sigma
    if eq.mode != EXTENDED or sig.degree != 2:
        return None
    shape = Poly([0, -1, 1], eq.backend) - sig
    if shape.to_float().max_abs() > 1e-12:
        return None
    quot = _accessory_quotient(eq)
    if quot is None:
        return None
    tt = eq.tau_tilde
    alpha = tt.coeff(2)
    beta = -1 - tt(0)
    gamma = tt(1) - 1
    mu = -quot.coeff(0)
    nu = quot.coeff(1) - mu
    return CheParams(alpha, beta, gamma, mu, nu)


def _class_catalog(heun_p, che_p):
    """(label, float catalog pi) of every class of the matched family.

    In float: an exact equation can keep a branch whose pi did not
    rationalize, and its float pi meets the exact catalog pi here."""
    if heun_p is not None:
        return [(cls.label, cls.pi(heun_p).to_float()) for cls in HEUN_CLASSES]
    if che_p is not None:
        return [(cls.label, cls.pi(che_p).to_float()) for cls in CHE_CLASSES]
    return []


def _branch_label(branch, catalog) -> str:
    """Label of the first catalog class whose pi matches the branch, or ''."""
    pi = branch.pi.to_float()
    scale = max(pi.max_abs(), 1.0)
    for label, cls_pi in catalog:
        if (pi - cls_pi).max_abs() <= 1e-8 * scale:
            return label
    return ""


# -- classify -----------------------------------------------------------------


def cmd_classify(args, config: RunConfig):
    backend = config.backend
    eq = NuEquation(
        _arg(args, "tau", backend, parse_poly),
        _arg(args, "sigma", backend, parse_poly),
        _arg(args, "sigma_tilde", backend, parse_poly),
        mode=args.mode,
    )
    branches = enumerate_branches(eq)
    heun_p = _match_heun(eq) if args.mode == EXTENDED else None
    che_p = _match_che(eq) if args.mode == EXTENDED else None
    family = "heun" if heun_p is not None else "che" if che_p is not None else ""
    catalog = _class_catalog(heun_p, che_p)
    entries = []
    for branch in branches:
        reduced = reduce_branch(eq, branch)
        entries.append({
            "sign": branch.sign,
            "class": _branch_label(branch, catalog),
            "g": branch.g,
            "pi": branch.pi,
            "tau": reduced.tau,
            "h": reduced.h,
        })
    return {"backend": backend, "mode": args.mode, "family": family}, entries, []


_BRANCH_POLYS = ("g", "pi", "tau", "h")


def _classify_csv(top, branches, checks):
    return ["index", "class", "sign", *_BRANCH_POLYS], [
        [k, b["class"], b["sign"], *(_cell(b[key]) for key in _BRANCH_POLYS)]
        for k, b in enumerate(branches)
    ]


def _classify_table(top, branches, checks):
    family = top["family"]
    yield "%d branches (%s mode)%s" % (
        len(branches), top["mode"], " family: " + family if family else "")
    for k, b in enumerate(branches):
        tag = " class %s" % b["class"] if b["class"] else ""
        yield "branch %d  sign %+d%s" % (k, b["sign"], tag)
        for key in _BRANCH_POLYS:
            yield "  %-4s %s" % (key, _cell(b[key]))


# -- solve --------------------------------------------------------------------


def _arg(args, name: str, backend: str, parse=parse_scalar):
    """Option `name` in the backend; exact runs still compute in float."""
    value = parse(getattr(args, name), backend)
    try:
        for c in value.coeffs if isinstance(value, Poly) else (value,):
            complex(c)
    except OverflowError:
        raise UsageError("--%s has a value beyond float range" % name.replace("_", "-"))
    return value


class UsageError(Exception):
    pass


def _float_params(p):
    """The same family parameters as complex floats."""
    return type(p)(*(complex(getattr(p, f.name)) for f in fields(p)))


# per family: the options its *_params_for_class takes after class and degree
_SOLVE_PARAMS = {
    "heun": ("a", "gamma", "delta", "epsilon"),
    "che": ("alpha", "beta", "gamma"),
}


def _solve_states(args, config: RunConfig):
    """One assembled eigenstate per accessory value, all from one setup.

    Resolved accessory roots are always floats, so exact-backend runs
    assemble the eigenstates on the float copy of the parameters."""
    backend = config.backend
    # entry points are looked up per call, so a wrapper installed on the
    # module attribute (bench/tracing.py) is the one that runs
    make, resolve, assemble = (
        (heun_params_for_class, heun_accessory, heun_eigenstates)
        if args.family == "heun"
        else (che_params_for_class, che_accessory, che_eigenstates)
    )
    p = make(args.label, args.n, *(
        _arg(args, name, backend) for name in _SOLVE_PARAMS[args.family]))
    if args.accessory is not None:
        values = [_arg(args, "accessory", backend)]
    else:
        values = resolve(p, args.label, args.n)
    if not all(isinstance(v, RationalComplex) for v in values):
        p = _float_params(p)
    return assemble(p, args.label, args.n, values, config.samples)


def cmd_solve(args, config: RunConfig):
    missing = [f for f in _SOLVE_PARAMS[args.family] if getattr(args, f) is None]
    if missing:
        raise UsageError(
            "%s solve requires %s"
            % (args.family, ", ".join("--" + f for f in missing))
        )
    states = _solve_states(args, config)
    if not states:
        raise NoBranchError("no accessory value admits a terminating solution")
    tol = config.tolerances["residual"]
    entries = [
        {
            "accessory": s.accessory,
            "slope_residual": s.quantization.slope_residual,
            "constant_offset": s.quantization.constant_offset,
            "poly": s.poly,
            "phi_exp": s.phi.exp_part,
            "phi_powers": [{"root": r, "exponent": e} for r, e in s.phi.powers],
            "residual": s.residual,
            "check": _check("residual", s.residual, tol),
        }
        for s in states
    ]
    top = {"backend": config.backend, "family": args.family,
           "class": args.label, "n": args.n}
    return top, entries, [e["check"] for e in entries]


def _solve_csv(top, states, checks):
    return ["accessory", "residual", "slope_residual", "poly", "passed"], [
        [_cell(s["accessory"]), s["residual"], _cell(s["slope_residual"]),
         _cell(s["poly"]), s["check"]["passed"]]
        for s in states
    ]


def _solve_table(top, states, checks):
    yield "%s class %s, degree %d: %d state(s)" % (
        top["family"], top["class"], top["n"], len(states))
    for s in states:
        yield "accessory %s" % _cell(s["accessory"])
        yield "  poly     %s" % _cell(s["poly"])
        yield "  phi exp  %s" % _cell(s["phi_exp"])
        for power in s["phi_powers"]:
            yield "  phi power (z - %s)^%s" % (
                _cell(power["root"]), _cell(power["exponent"]))
        yield "  residual %.3e  %s" % (s["residual"], _verdict(s["check"]))


# -- app ----------------------------------------------------------------------


def _app_coulomb(args, tols):
    report = coulomb3s_verify(args.n, args.m, float(args.gamma))
    checks = [
        _check("relation_direct", report.residual_direct, tols["relation"]),
        _check("relation_flipped", report.residual_flipped, tols["relation"]),
    ]
    return asdict(report), checks


def _app_electrons(args, tols):
    state = electrons_sphere_state(args.n, float(args.gamma), float(args.delta))
    payload = {
        "n": state.n,
        "gamma": state.gamma_param,
        "delta": state.delta_param,
        "radius": state.radius,
        "energy": state.energy,
        "accessory": state.accessory,
        "roots": state.roots,
        "bethe": state.bethe,
    }
    return payload, [_check("bethe", state.bethe, tols["bethe"])]


def _app_doublewell(args, tols):
    parity = {"symmetric": SYMMETRIC, "antisymmetric": ANTISYMMETRIC}[
        args.parity
    ]
    report = doublewell_verify(args.n, float(args.d), float(args.u0), parity)
    checks = [
        _check("relation", report.relation_residual, tols["relation"]),
        _check("termination", report.termination_residual, tols["termination"]),
    ]
    payload = {
        "N": report.N,
        "parity": report.parity,
        "d": args.d,
        "u0": args.u0,
        "epsilon": report.epsilon,
        "matched_class": report.matched_class,
        "relation_residual": report.relation_residual,
        "resolved_mu": report.resolved_mu,
        "termination_residual": report.termination_residual,
    }
    return payload, checks


# per app: its report function and the options it requires
_APPS = {
    "coulomb3s": (_app_coulomb, ("n", "m", "gamma")),
    "electrons-sphere": (_app_electrons, ("n", "gamma", "delta")),
    "double-well": (_app_doublewell, ("n", "d", "u0")),
}


def cmd_app(args, config: RunConfig):
    run, required = _APPS[args.name]
    if any(getattr(args, name) is None for name in required):
        raise UsageError("%s requires %s" % (
            args.name, ", ".join("--" + name for name in required)))
    report, checks = run(args, config.tolerances)
    return {"app": args.name, "backend": config.backend}, report, checks


def _report_json(value):
    """An app report in the JSON form its CSV and table cells show: tuples
    as lists, a complex value as {"re", "im"} or, if it is real, a float."""
    if isinstance(value, dict):
        return {key: _report_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_report_json(v) for v in value]
    if not isinstance(value, complex):
        return value
    return value.real if value.imag == 0 else {"re": value.real, "im": value.imag}


def _app_csv(top, report, checks):
    row = {
        key: json.dumps(v) if isinstance(v, (list, dict)) else str(v)
        for key, v in _report_json(report).items()
    }
    for check in checks:
        row[check["name"] + "_passed"] = check["passed"]
    return list(row), [list(row.values())]


def _app_table(top, report, checks):
    yield "%s report" % top["app"]
    for key, value in _report_json(report).items():
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        yield "  %-20s %s" % (key, value)
    for check in checks:
        yield "  check %-14s %.3e  %s" % (
            check["name"], check["value"], _verdict(check))


# -- output -------------------------------------------------------------------

# per command: the JSON key of its items, whether its checks get a JSON
# key of their own (solve puts each state's check in the state), and its
# CSV (header, rows) and table lines functions
_RENDERERS = {
    "classify": ("branches", False, _classify_csv, _classify_table),
    "solve": ("states", False, _solve_csv, _solve_table),
    "app": ("report", True, _app_csv, _app_table),
}


def _render(command: str, fmt: str, record):
    top, items, checks = record
    items_key, own_checks, csv_rows, table_lines = _RENDERERS[command]
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command, **top,
               items_key: items}
        if own_checks:
            doc["checks"] = checks
        print(_json_text(doc))
    elif fmt == "csv":
        # no rows writes the header alone
        header, rows = csv_rows(*record)
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in table_lines(*record):
            print(line)


# -- parser -------------------------------------------------------------------


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or name not in DEFAULT_TOLERANCES:
            raise UsageError(
                "tolerance must be name=value with name in %s"
                % sorted(DEFAULT_TOLERANCES)
            )
        out[name] = float(value)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every default in it is
    constant, and main reads the environment on each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend",
        choices=(EXACT, FLOAT),
        help="scalar arithmetic backend (env HEUNFORGE_BACKEND)",
    )
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "table"),
        default="table",
    )
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (%s)" % ", ".join(DEFAULT_TOLERANCES),
    )
    common.add_argument(
        "--samples", type=int, default=50, help="residual contour sample count"
    )
    parser = argparse.ArgumentParser(
        prog="heunforge",
        description="Polynomial-solution branches, eigenvalue relations, "
        "and model problems for equations with up to four singular points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser(
        "classify", parents=[common], help="enumerate reduction branches"
    )
    cls.add_argument("--sigma", required=True, help="leading polynomial")
    cls.add_argument("--tau", required=True, help="first-order polynomial")
    cls.add_argument(
        "--sigma-tilde", dest="sigma_tilde", required=True,
        help="zeroth-order polynomial (times sigma)",
    )
    cls.add_argument("--mode", choices=(CLASSIC, EXTENDED), default=EXTENDED)
    cls.set_defaults(func=cmd_classify)

    slv = sub.add_parser(
        "solve", parents=[common], help="resolve accessory values and "
        "assemble eigenfunctions"
    )
    slv.add_argument("family", choices=tuple(_SOLVE_PARAMS))
    slv.add_argument("--class", dest="label", required=True)
    slv.add_argument("-n", type=int, required=True, help="polynomial degree")
    slv.add_argument("--a", help="third finite singular point (heun)")
    slv.add_argument("--alpha", help="exponential scale (che)")
    slv.add_argument("--beta", help="exponent parameter at 0 (che)")
    slv.add_argument("--gamma", required=True)
    slv.add_argument("--delta", help="exponent parameter at 1 (heun)")
    slv.add_argument("--epsilon", help="exponent parameter at a (heun)")
    slv.add_argument(
        "--accessory", help="explicit accessory value (skips resolution)"
    )
    slv.set_defaults(func=cmd_solve)

    app = sub.add_parser(
        "app", parents=[common], help="run a bundled model problem"
    )
    app.add_argument("name", choices=sorted(_APPS))
    app.add_argument("--n", type=int, help="level / degree")
    app.add_argument("--m", type=int, help="angular index (coulomb3s)")
    app.add_argument("--gamma", type=float, help="coupling")
    app.add_argument("--delta", type=float, help="exponent parameter")
    app.add_argument("--d", type=float, help="well width (double-well)")
    app.add_argument("--u0", type=float, help="well depth (double-well)")
    app.add_argument(
        "--parity",
        choices=("symmetric", "antisymmetric"),
        default="symmetric",
    )
    app.set_defaults(func=cmd_app)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        # read on every call: the cached parser must not freeze it
        backend = args.backend or os.environ.get("HEUNFORGE_BACKEND", FLOAT)
        if backend not in (EXACT, FLOAT):
            raise UsageError(
                "HEUNFORGE_BACKEND must be %r or %r, not %r"
                % (EXACT, FLOAT, backend)
            )
        config = RunConfig(
            backend=backend,
            tolerances=_parse_tolerances(args.tol),
            fmt=args.fmt,
            samples=args.samples,
        )
        record = args.func(args, config)
        _render(args.command, config.fmt, record)
        failed = any(not check["passed"] for check in record[2])
        return EXIT_VERIFICATION if failed else EXIT_OK
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NoBranchError as exc:
        print("no solution: %s" % exc, file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as exc:
        print("error: division by zero (%s)" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
