"""The CLI's JSON output against a two-pass reference.

`cli._render` writes json.dumps(doc, sort_keys=True, default=_json_form,
allow_nan=False): the stdlib encoder asks `_json_form` for each Poly and
scalar it cannot write. The reference below turns every Poly and scalar
into its JSON form first, then calls json.dumps(sort_keys=True,
allow_nan=False). Both must give the same text on seeded random nested
documents, and both must refuse a document that holds NaN or an infinity
with ValueError.
"""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heunforge import EXACT, FLOAT, Poly, RationalComplex, cli, heun, heun_to_nu
from heunforge.cli import _json_form
from heunforge.engine import NoBranchError
from heunforge.heun import heun_params_for_class
from heunforge.poly import format_poly


def _real_json(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def _scalar_json(value):
    if isinstance(value, RationalComplex):
        return {"re": _real_json(value.re), "im": _real_json(value.im)}
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        return _real_json(value)
    return value


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Poly):
        return {"coeffs": [_scalar_json(c) for c in value.coeffs]}
    return _scalar_json(value)


def reference(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, allow_nan=False)


def written(value) -> str:
    return json.dumps(value, sort_keys=True, default=_json_form,
                      allow_nan=False)


def outcome(encode, value):
    """The text encode gives for value, or ValueError if it refuses it."""
    try:
        return encode(value)
    except ValueError:
        return ValueError


# ASCII, control characters, quotes, backslash, Latin-1, BMP and astral
CHARS = "az_ \"\\/\x00\x01\x1f\x7f\t\n\réÿ σ\U0001d4b5"
FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1e-7, 0.1,
          1.8999999999999977, math.nan, math.inf, -math.inf)


def _text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def _float(rng):
    x = rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
    return np.float64(x) if rng.random() < 0.25 else x


def _fraction(rng):
    return Fraction(rng.randint(-10**30, 10**30), rng.choice((1, 1, 3, 10**25)))


def _scalar(rng):
    kind = rng.randrange(11)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice((0, -1, 7, 2**64, -(2**64) - 1, 3**90))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return _float(rng)
    if kind == 4:
        return _fraction(rng)
    if kind == 5:
        im = Fraction(0) if rng.random() < 0.5 else _fraction(rng)
        return RationalComplex(_fraction(rng), im)
    if kind == 6:
        # a zero imaginary part of either sign prints the bare real
        return complex(_float(rng), rng.choice((0.0, -0.0, _float(rng))))
    if kind == 7:
        return np.complex128(complex(_float(rng), rng.choice((0.0, -0.0, _float(rng)))))
    if kind == 8:
        coeffs = [RationalComplex(_fraction(rng), _fraction(rng))
                  for _ in range(rng.randint(0, 4))]
        return Poly(coeffs, EXACT)
    if kind == 9:
        coeffs = [complex(rng.uniform(-9, 9), rng.choice((0.0, rng.uniform(-1, 1))))
                  for _ in range(rng.randint(0, 4))]
        return Poly(coeffs, FLOAT)
    return rng.choice(({}, [], (), {"": {}}, [[]], {"x": [{}]}))


def _document(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randint(0, 5)
    kind = rng.randrange(3)
    if kind == 0:
        return {_text(rng): _document(rng, depth - 1) for _ in range(size)}
    items = [_document(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


@pytest.mark.parametrize("seed", range(40))
def test_emitter_matches_json_dumps_on_random_documents(seed):
    rng = random.Random(seed)
    texts = []
    for _ in range(25):
        doc = _document(rng, 4)
        texts.append(outcome(written, doc))
        assert texts[-1] == outcome(reference, doc)
    # NaN and the infinities are 3 of the 13 FLOATS, so a refusal on every
    # document would be an encoder fault: at least 10 of the 25 are written
    assert texts.count(ValueError) <= 15


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[]]],
    -0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf,
    np.float64(0.1), np.float64(math.nan), 2**64 + 1, -(3**80), True, False,
    None, Fraction(7), Fraction(-3, 4), RationalComplex(Fraction(1, 3), 0),
    complex(2.5, 0.0), complex(2.5, -0.0), complex(-0.0, 1.0),
    np.complex128(1.5), Poly([], FLOAT), Poly([1, 2j], FLOAT),
    Poly([Fraction(1, 2), RationalComplex(0, 3)], EXACT),
    {"é\x00\"": " \U0001d4b5\\", "b": [1, "x"], "a": 0.5},
    np.complex128(complex(1.5, -2.0)), np.complex128(complex(math.nan, 0.0)),
    np.complex128(complex(0.0, math.inf)),
    # exact Polys with 30-digit, zero and negative parts, alone and nested
    Poly([RationalComplex(Fraction(-(10**29) - 7, 3 * 10**29 + 1)), 0,
          RationalComplex(0, Fraction(-123456789012345678901234567890, 7)),
          RationalComplex(Fraction(10**30 - 1, 10**30), Fraction(-1, 10**30 + 3))], EXACT),
    [Poly([RationalComplex(-(10**30), Fraction(2, 10**30))], EXACT),
     [Poly([0, RationalComplex(Fraction(-5, 6), -(10**29))], EXACT), ()]],
])
def test_emitter_matches_json_dumps_on_edge_values(value):
    got = outcome(written, value)
    assert got == outcome(reference, value)
    # strict JSON has no token for NaN or an infinity
    non_finite = isinstance(value, (float, complex)) and not cmath.isfinite(value)
    assert (got is ValueError) == non_finite


def _exact_part(rng):
    """0, or a signed rational with a 1- or 30-digit numerator."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(0)
    num = rng.randint(10**29, 10**30 - 1) if kind == 1 else rng.randint(1, 9)
    den = rng.choice((1, 2, 3, 10**25, rng.randint(10**29, 10**30 - 1)))
    return Fraction(rng.choice((-1, 1)) * num, den)


@pytest.mark.parametrize("seed", range(10))
def test_exact_polys_match_the_fraction_forms(seed):
    # each part of an exact coefficient is written as its Fraction, at the
    # top level and nested in lists and objects
    rng = random.Random(2900 + seed)
    for _ in range(40):
        polys = [Poly([RationalComplex(_exact_part(rng), _exact_part(rng))
                       for _ in range(rng.randint(0, 5))], EXACT) for _ in range(3)]
        for doc in (polys[0], polys, [polys[0], [polys[1], {"pi": polys[2]}]],
                    {"g": polys[1], "s": [[polys[2]]]}):
            assert written(doc) == reference(doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3),
                                   np.bool_(True), b"bytes"])
def test_unknown_type_raises_type_error(value):
    with pytest.raises(TypeError):
        reference({"k": [value]})
    with pytest.raises(TypeError, match="not JSON serializable"):
        written({"k": [value]})


# -- cli._render, pinned to the encoder that called back per coefficient -------


def _per_coefficient_form(value):
    """_json_form as it was when json.dumps called back once for a float
    Poly and once for each of its coefficients."""
    if isinstance(value, Poly):
        return {"coeffs": value.coeffs}
    if isinstance(value, RationalComplex):
        return {"im": value.im, "re": value.re}
    if isinstance(value, Fraction):
        return {"den": value.denominator, "num": value.numerator}
    if isinstance(value, complex):
        return value.real if value.imag == 0 else {"im": value.imag, "re": value.real}
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def _per_coefficient_render(command, record):
    top, items, checks = record
    items_key, own_checks = cli._RENDERERS[command][:2]
    doc = {"schema": cli.SCHEMA_VERSION, "command": command, **top,
           items_key: items}
    if own_checks:
        doc["checks"] = checks
    return json.dumps(doc, sort_keys=True, default=_per_coefficient_form,
                      allow_nan=False) + "\n"


def _ratio(rng, low, high):
    return "%d/%d" % (rng.randint(low, high), rng.randint(1, 9))


def _seeded_argvs(rng):
    """Seeded solve, classify and app command lines."""
    for _ in range(10):
        label = rng.choice(("I", "II", "III", "IV", "V", "VI", "VII", "VIII"))
        a = rng.choice(("19/10", "3/2", "5/2", "-1/2"))
        params = [_ratio(rng, -9, 15) for _ in range(3)]
        n = rng.randint(0, 4)
        # --name=value, since a value may start with a minus sign
        yield ["solve", "heun", "--class", label, "-n", str(n), "--a=" + a,
               "--gamma=" + params[0], "--delta=" + params[1],
               "--epsilon=" + params[2]]
        yield ["solve", "che", "--class", str(rng.randint(1, 8)), "-n", str(n),
               "--alpha=" + params[0], "--beta=" + params[1],
               "--gamma=" + _ratio(rng, 1, 15)]
        # classify a four-point equation, exact text, on one class's
        # coupling, or with sigma~ moved off it
        eq = heun_to_nu(heun_params_for_class(
            label, n, Fraction(a), *map(Fraction, params)))
        sigma_tilde = eq.sigma_tilde
        if rng.random() < 0.5:
            sigma_tilde = sigma_tilde + eq.sigma * RationalComplex(Fraction(1, 7))
        yield ["classify", "--sigma", format_poly(eq.sigma),
               "--tau", format_poly(eq.tau_tilde),
               "--sigma-tilde", format_poly(sigma_tilde)]
        yield ["app", "coulomb3s", "--n", str(rng.randint(1, 3)),
               "--m", str(rng.randint(0, 2)), "--gamma", str(rng.uniform(0.1, 2))]
        yield ["app", "electrons-sphere", "--n", str(rng.randint(1, 4)),
               "--gamma", str(rng.uniform(0.2, 3)), "--delta", "2"]
        yield ["app", "double-well", "--n", str(rng.randint(1, 3)),
               "--d", str(rng.uniform(0.5, 2)), "--u0", str(rng.uniform(10, 200)),
               "--parity", rng.choice(("symmetric", "antisymmetric"))]


def _signed_zero_record():
    """A solve record holding +-0.0 parts, imaginary parts of exactly 0
    and -0.0, Fractions and RationalComplex values."""
    entry = {
        "accessory": complex(2.5, -0.0),
        "slope_residual": complex(-0.0, 0.0),
        "constant_offset": RationalComplex(Fraction(1, 3), Fraction(-2, 7)),
        "poly": Poly([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-1.5, -0.0),
                      complex(-0.0, -2.0), complex(0.0, 0.0), 1 + 0j], FLOAT),
        "phi_exp": Poly([RationalComplex(Fraction(-7, 3), Fraction(1, 9)),
                         RationalComplex(0, 1)], EXACT),
        "phi_powers": [{"root": Fraction(19, 10), "exponent": complex(0.0, -0.0)},
                       {"root": -0.0, "exponent": RationalComplex(Fraction(2, 5))}],
        "residual": -0.0,
        "check": {"name": "residual", "value": -0.0, "tolerance": 1e-8,
                  "passed": True},
    }
    top = {"backend": FLOAT, "family": "heun", "class": "I", "n": 5}
    return top, [entry], [entry["check"]]


def test_render_is_the_per_coefficient_encoder_byte_for_byte(capsys):
    rng = random.Random(2606)
    records = [("solve", _signed_zero_record())]
    for argv in _seeded_argvs(rng):
        for backend in (FLOAT, EXACT):
            args = cli.build_parser().parse_args(argv)
            try:
                records.append((argv[0], args.func(args, backend)))
            except (NoBranchError, ValueError, OverflowError, ZeroDivisionError,
                    cli.UsageError):
                pass
    made = [command for command, _ in records]
    assert min(made.count(command) for command in ("solve", "classify", "app")) >= 10
    for command, record in records:
        cli._render(command, "json", record)
        assert capsys.readouterr().out == _per_coefficient_render(command, record)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.nan)])
@pytest.mark.parametrize("field", ["poly", "accessory"])
def test_json_with_a_nan_exits_2(capsys, monkeypatch, field, bad):
    real = heun.heun_eigenstates

    def with_nan(*args):
        value = Poly([0.5, bad, 1.0], FLOAT) if field == "poly" else bad
        return [state._replace(**{field: value}) for state in real(*args)]

    # cli reads the entry point off the heun module per call
    monkeypatch.setattr(heun, "heun_eigenstates", with_nan)
    code = cli.main(["solve", "heun", "--class", "I", "-n", "2", "--a", "19/10",
                     "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4",
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert err.count("\n") == 1
