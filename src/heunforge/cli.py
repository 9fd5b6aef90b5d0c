"""Command-line front end: it parses, calls the library and renders.

Three subcommands: `classify` enumerates the polynomial-reduction
branches of an equation given by its three coefficient polynomials and
labels the ones matching a class of the family that heun_match or
che_match recognises; `solve` resolves the accessory parameter for a
(family, class, degree) request and assembles the eigenfunctions with
their contour residuals; `app` runs one of the bundled model problems
and reports closed-form values next to their verification residuals.
Each of `classify`, `solve heun`, `solve che` and the three apps has a
parser of its own that takes only the options its function reads, so an
option of another family or app exits 2. The backend is `--backend`
(default float) of classify and solve; the apps compute in floats.

The modules `heun`, `che` and `apps` stand in sys.modules unexecuted
until one of their names is read (the package registers them), so
every function of theirs is read off its module when it is called. A
launch runs none of them; classify runs `heun`, and `che` when
heun_match recognises nothing, a solve its family's module alone, and
an app all three.

Each `cmd_*` formats nothing itself: it returns a record
(top, items, checks) of raw values. `top` holds the top-level
fields, `items` the branches, the states or the app report, and
`checks` the named verification checks. One dispatch, `_render`, prints
the record. JSON is one line, json.dumps(sort_keys=True, allow_nan=False)
of the record, with `_json_form` giving each Poly and scalar its JSON
form. CSV and table output come from the command's own row and line
functions, with `_cell` giving each value its text. Each check holds
its value against the fixed tolerance TOLERANCES gives its kind, and
the exit code follows from the checks alone: 4 if any failed, else 0.

Exit codes: 0 all checks passed, 1 stdout closed early (broken pipe), 2
usage error, parse error or a value beyond float range, 3 no solution
(no branch / no accessory root / class relation violated), 4 a failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import zip_longest

from . import apps, che, heun
from .engine import (
    CLASSIC,
    EXTENDED,
    NoBranchError,
    NuEquation,
    enumerate_branches,
)
from .family import class_catalog
from .poly import Poly, format_poly, parse_poly
from .scalars import (
    EXACT,
    FLOAT,
    RationalComplex,
    format_scalar,
    parse_scalar,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3
EXIT_VERIFICATION = 4

# each named check passes when its value is at most this; solve's
# residual is on oracle's fixed contour
TOLERANCES = {
    "residual": 1e-8,
    "relation": 1e-9,
    "termination": 1e-8,
    "bethe": 1e-8,
}

SCHEMA_VERSION = 2


# -- serialization ------------------------------------------------------------


def _complex_forms(values):
    """JSON forms of complex values: a real when the imaginary part is 0, else {"im", "re"}."""
    return [c.real if c.imag == 0 else {"im": c.imag, "re": c.real} for c in values]


def _exact_forms(values):
    """JSON forms of RationalComplex values, {"im", "re"} of {"den", "num"} from their ints."""
    forms = []
    for value in values:
        a, b, d = value._abd
        g, h = math.gcd(a, d), math.gcd(b, d)
        forms.append({"im": {"den": d // h, "num": b // h}, "re": {"den": d // g, "num": a // g}})
    return forms


def _json_form(value):
    """The JSON form json.dumps is given for a value it cannot write: a Poly
    as {"coeffs"}, a RationalComplex as {"im", "re"}, a Fraction as
    {"den", "num"}, and a complex as a real when its imaginary part is 0,
    else as {"im", "re"}. A Poly's coefficients get their forms in the
    same call, all at once by its backend's forms."""
    if isinstance(value, complex):
        return _complex_forms((value,))[0]
    if isinstance(value, Poly):
        forms = _exact_forms if value.backend == EXACT else _complex_forms
        return {"coeffs": forms(value.coeffs)}
    if isinstance(value, RationalComplex):
        return _exact_forms((value,))[0]
    if isinstance(value, Fraction):
        return {"den": value.denominator, "num": value.numerator}
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


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
    """The CSV and table text of a value: a Poly and a scalar as they are
    parsed, a list or tuple as its cells joined by ", "."""
    if isinstance(value, Poly):
        return format_poly(value)
    if isinstance(value, (RationalComplex, complex)):
        return format_scalar(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_cell, value))
    return str(value)


# -- family detection ---------------------------------------------------------


# classify's families, each with its module and the name of its
# recogniser there (parameters or None), read per call
_FAMILIES = (("heun", heun, "heun_match"), ("che", che, "che_match"))


def _branch_label(branch, catalog) -> str:
    """Label of the first catalog class whose pi matches the branch, or ''.
    The largest coefficient gap is max_abs of the difference Poly, whose
    trimming spares the largest; an infinite one overflows as it would."""
    pi = branch.pi.to_float()
    scale = max(pi.max_abs(), 1.0)
    for label, cls_coeffs in catalog:
        gap = max((abs(a - c) for a, c in zip_longest(pi.coeffs, cls_coeffs, fillvalue=0j)),
                  default=0.0)
        if gap == math.inf:
            raise OverflowError("polynomial coefficient overflows the float range")
        if gap <= 1e-8 * scale:
            return label
    return ""


# -- classify -----------------------------------------------------------------


def cmd_classify(args, backend: str):
    eq = NuEquation(
        _arg(args, "tau", backend, parse_poly),
        _arg(args, "sigma", backend, parse_poly),
        _arg(args, "sigma_tilde", backend, parse_poly),
        mode=args.mode,
    )
    branches = enumerate_branches(eq)
    family, catalog = "", []
    for name, module, match in _FAMILIES:
        p = getattr(module, match)(eq)
        if p is not None:
            family, catalog = name, class_catalog(p)
            break
    entries = []
    for b in branches:
        rf = b.reduced(eq)
        entries.append({"sign": b.sign, "class": _branch_label(b, catalog),
                        "g": b.g, "pi": b.pi, "tau": rf.tau, "h": rf.h})
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


class UsageError(ValueError):
    pass


# per family: the options its *_params_for_class takes after class and degree
_SOLVE_PARAMS = {
    "heun": ("a", "gamma", "delta", "epsilon"),
    "che": ("alpha", "beta", "gamma"),
}


def _solve_states(args, backend: str):
    """The class's label as its family's class table spells it, and one
    assembled eigenstate per accessory value, all from one setup."""
    # entry points are read off the family's module per call: only that
    # module runs, on its first solve, and a wrapper installed on the
    # module attribute (bench/tracing.py) is the one that runs
    find, make, resolve, assemble = (
        (heun.heun_class, heun.heun_params_for_class, heun.heun_accessory,
         heun.heun_eigenstates)
        if args.family == "heun"
        else (che.che_class, che.che_params_for_class, che.che_accessory,
              che.che_eigenstates)
    )
    p = make(args.label, args.n, *(
        _arg(args, name, backend) for name in _SOLVE_PARAMS[args.family]))
    label = find(args.label).label
    if args.accessory is not None:
        values = [_arg(args, "accessory", backend)]
    else:
        values = resolve(p, label, args.n)
    return label, assemble(p, label, args.n, values)


def cmd_solve(args, backend: str):
    label, states = _solve_states(args, backend)
    if not states:
        raise NoBranchError("no accessory value admits a terminating solution")
    entries = [
        {
            "accessory": s.accessory,
            "slope_residual": s.quantization.slope_residual,
            "constant_offset": s.quantization.constant_offset,
            "poly": s.poly,
            "phi_exp": s.phi.exp_part,
            "phi_powers": [{"root": r, "exponent": e} for r, e in s.phi.powers],
            "residual": s.residual,
            "check": _check("residual", s.residual, TOLERANCES["residual"]),
        }
        for s in states
    ]
    top = {"backend": backend, "family": args.family, "class": label, "n": args.n}
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


def _app_coulomb(args):
    report = apps.coulomb3s_verify(args.n, args.m, float(args.gamma))
    checks = [
        _check("relation_direct", report.residual_direct, TOLERANCES["relation"]),
        _check("relation_flipped", report.residual_flipped, TOLERANCES["relation"]),
    ]
    return report._asdict(), checks


def _app_electrons(args):
    state = apps.electrons_sphere_state(args.n, float(args.gamma), float(args.delta))
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
    return payload, [_check("bethe", state.bethe, TOLERANCES["bethe"])]


def _app_doublewell(args):
    parity = {"symmetric": apps.SYMMETRIC, "antisymmetric": apps.ANTISYMMETRIC}[
        args.parity
    ]
    report = apps.doublewell_verify(args.n, float(args.d), float(args.u0), parity)
    checks = [
        _check("relation", report.relation_residual, TOLERANCES["relation"]),
        _check("termination", report.termination_residual, TOLERANCES["termination"]),
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


def finite(text: str) -> float:
    """An app option's float. argparse exits 2 on any other text, NaN and
    the infinities included, with "invalid finite value"."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# per app: its report function and the options it requires, each with
# its type; double-well also takes --parity
_APPS = {
    "coulomb3s": (_app_coulomb, (("n", int), ("m", int), ("gamma", finite))),
    "electrons-sphere": (_app_electrons, (("n", int), ("gamma", finite), ("delta", finite))),
    "double-well": (_app_doublewell, (("n", int), ("d", finite), ("u0", finite))),
}


def cmd_app(args, backend: str):
    report, checks = _APPS[args.name][0](args)
    return {"app": args.name, "backend": backend}, report, checks


def _app_csv(top, report, checks):
    row = {key: _cell(v) for key, v in report.items()}
    for check in checks:
        row[check["name"] + "_passed"] = check["passed"]
    return list(row), [list(row.values())]


def _app_table(top, report, checks):
    yield "%s report" % top["app"]
    for key, value in report.items():
        yield "  %-20s %s" % (key, _cell(value))
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
        # each record is a tree built per call, so nothing can be circular
        print(json.dumps(doc, sort_keys=True, default=_json_form,
                         allow_nan=False, check_circular=False))
    elif fmt == "csv":
        import csv  # only a CSV run loads it

        # no rows writes the header alone
        header, rows = csv_rows(*record)
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in table_lines(*record):
            print(line)


# -- parser -------------------------------------------------------------------


def _commands(parser, dest: str):
    """parser's subparsers action, which stores the command's name in
    dest; parser.command_parsers maps each name to its parser."""
    commands = parser.add_subparsers(dest=dest, required=True)
    parser.command_parsers = commands.choices
    return commands


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every default in it is
    constant. Its leaves, `classify`, `solve heun`, `solve che` and
    each app, take only the options their functions read, and set
    their command words (command, and family or name) as defaults. No
    leaf takes an abbreviated option, so an option of another app, such
    as double-well's --d, is never read as a prefix of its own --delta."""
    backends = argparse.ArgumentParser(add_help=False)
    backends.add_argument("--backend", choices=(EXACT, FLOAT), default=FLOAT,
                          help="scalar arithmetic backend")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", dest="fmt", choices=("json", "csv", "table"),
                         default="table")
    parser = argparse.ArgumentParser(
        prog="heunforge",
        description="Polynomial-solution branches, eigenvalue relations, "
        "and model problems for equations with up to four singular points.",
    )
    commands = _commands(parser, "command")

    cls = commands.add_parser(
        "classify", parents=[backends, formats], allow_abbrev=False,
        help="enumerate reduction branches",
    )
    cls.add_argument("--sigma", required=True, help="leading polynomial")
    cls.add_argument("--tau", required=True, help="first-order polynomial")
    cls.add_argument(
        "--sigma-tilde", dest="sigma_tilde", required=True,
        help="zeroth-order polynomial (times sigma)",
    )
    cls.add_argument("--mode", choices=(CLASSIC, EXTENDED), default=EXTENDED)
    cls.set_defaults(func=cmd_classify, command="classify")

    families = _commands(commands.add_parser(
        "solve", help="resolve accessory values and assemble eigenfunctions"), "family")
    for family, params in _SOLVE_PARAMS.items():
        slv = families.add_parser(family, parents=[backends, formats], allow_abbrev=False)
        slv.add_argument("--class", dest="label", required=True)
        slv.add_argument("-n", type=int, required=True, help="polynomial degree")
        for name in params:
            slv.add_argument("--" + name, required=True)
        slv.add_argument(
            "--accessory", help="explicit accessory value (skips resolution)"
        )
        slv.set_defaults(func=cmd_solve, command="solve", family=family)

    app_commands = _commands(
        commands.add_parser("app", help="run a bundled model problem"), "name")
    for name, (_, options) in _APPS.items():
        app = app_commands.add_parser(name, parents=[formats], allow_abbrev=False)
        for option, kind in options:
            app.add_argument("--" + option, type=kind, required=True)
        # every app computes in floats
        app.set_defaults(func=cmd_app, command="app", name=name, backend=FLOAT)
    app_commands.choices["double-well"].add_argument(
        "--parity", choices=("symmetric", "antisymmetric"), default="symmetric"
    )
    return parser


def _parse(parser, argv):
    """The namespace parser.parse_args(argv) gives, or its SystemExit. The
    command words that lead argv (`classify`, or `solve` or `app` and the
    family or app after it) pick a parser, and the rest of argv goes to
    it alone, as the subparsers actions hand it over: each pass above it
    would only match each word against -h and pass them all on."""
    sub, rest = parser, argv
    while rest and rest[0] in getattr(sub, "command_parsers", ()):
        sub, rest = sub.command_parsers[rest[0]], rest[1:]
    if sub is parser:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(rest, None)
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        record = args.func(args, args.backend)
        _render(args.command, args.fmt, record)
        # a closed stdout raises here, not in the interpreter's last flush
        sys.stdout.flush()
        failed = any(not check["passed"] for check in record[2])
        return EXIT_VERIFICATION if failed else EXIT_OK
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so that the output still
        # buffered is dropped quietly at exit (SIGPIPE in Python's signal docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NoBranchError as exc:
        print("no solution: %s" % exc, file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as exc:
        print("error: division by zero (%s)" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an array refused for its size, as at -n 100000
        print("error: out of memory (%s)" % (str(exc) or "allocation refused"), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
