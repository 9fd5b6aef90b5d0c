"""The literal grammar: parse_scalar and parse_poly against reference copies
of the two hand-written splitters they replaced, on a seeded corpus and
on every polynomial text of the benchmark's classify pool, plus the
literal semantics a rewrite could silently change, as named cases.

The readers must give the same value as the reference (== in the exact
backend, equal bits in float) or refuse the same text. A refusal may
differ in its class: the readers evaluate a term such as '1/0' as they
reach it, so '1/0/' raises ZeroDivisionError where the reference's
splitter raised ValueError first; the CLI exits 2 on either. The one allowed
difference is a widening: the readers may accept a text the reference
refuses only when the reference accepts the text with its whitespace
deleted, with the same value. The classes of such texts are pinned in
test_whitespace_widening.
"""

import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heunforge import scalars
from heunforge.cli import main
from heunforge.poly import Poly, parse_poly
from heunforge.scalars import EXACT, FLOAT, RationalComplex, as_scalar, parse_scalar

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFUSED = (ValueError, ZeroDivisionError, OverflowError)


# -- the reference: the splitters the literal grammar replaced ------------------

_FLOAT_RE = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = r"(?:%s(?:/\d+)?)" % _FLOAT_RE
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<num>%s)\s*(?P<imag>[ij]?)|(?P<lone>[ij]))$" % _NUM_RE
)


def _split_terms(text):
    terms, start = [], 0
    for k, ch in enumerate(text):
        if ch in "+-" and k > start and text[k - 1] not in "eE+-":
            terms.append(text[start:k])
            start = k
    terms.append(text[start:])
    return [t for t in terms if t.strip()]


def _parse_part(part):
    m = _TERM_RE.match(part.strip().replace(" ", ""))
    if not m:
        raise ValueError("bad numeric literal %r" % (part,))
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("lone"):
        return sign, "1", True
    return sign, m.group("num"), bool(m.group("imag"))


def _ref_parse_scalar(text, backend):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        raise ValueError("empty numeric literal")
    re_part, im_part = Fraction(0), Fraction(0)
    for part in _split_terms(text):
        sign, lit, is_imag = _parse_part(part)
        value = sign * Fraction(lit)
        if is_imag:
            im_part += value
        else:
            re_part += value
    if backend == EXACT:
        return RationalComplex(re_part, im_part)
    try:
        return complex(float(re_part), float(im_part))
    except OverflowError:
        raise ValueError("numeric literal %r is beyond float range" % text) from None


def _split_top_level(text):
    terms, start, depth = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start and text[k - 1] not in "eE(*^":
            terms.append(text[start:k])
            start = k
    terms.append(text[start:])
    return [t.strip() for t in terms if t.strip()]


def _ref_parse_poly(text, backend):
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return Poly.zero(backend)
    coeffs = {}
    for term in _split_top_level(text.replace(" ", "")):
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError("dangling sign in polynomial text")
        if "z" in term:
            head, _, tail = term.partition("z")
            head = head.rstrip("*")
            if tail.startswith("^"):
                if not tail[1:].isdigit():
                    raise ValueError("bad exponent in %r" % (term,))
                power = int(tail[1:])
            elif tail:
                raise ValueError("unexpected text after z in %r" % (term,))
            else:
                power = 1
            coeff = _ref_parse_scalar(head, backend) if head else as_scalar(1, backend)
        else:
            power = 0
            coeff = _ref_parse_scalar(term, backend)
        if sign < 0:
            coeff = -coeff
        coeffs[power] = coeffs.get(power, as_scalar(0, backend)) + coeff
    top = max(coeffs)
    return Poly([coeffs.get(k, 0) for k in range(top + 1)], backend)


# -- comparison -------------------------------------------------------------------


def _key(value):
    """A value as a comparable key: exact scalars as they are, floats by
    their bits (float.hex tells -0.0 from 0.0)."""
    if isinstance(value, Poly):
        return value.backend, tuple(_key(c) for c in value.coeffs)
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value


def _outcome(parse, text, backend):
    """The key of the parsed value, or the class of the refusal."""
    try:
        return True, _key(parse(text, backend))
    except REFUSED as exc:
        return False, type(exc)


def _no_space(text):
    return "".join(text.split())


def _classify(new, ref, text, backend):
    """'same', 'widened' or a description of a forbidden difference."""
    got, want = _outcome(new, text, backend), _outcome(ref, text, backend)
    if got == want or not (got[0] or want[0]):
        return "same"
    if got[0] and _outcome(ref, _no_space(text), backend) == got:
        return "widened"
    return "got %r, reference %r" % (got, want)


# -- the seeded corpus --------------------------------------------------------------

NUMBERS = ("0", "7", "12", "007", "3/4", "1/0", "0/5", "12/8", ".5", "2.", "1.25",
           "1e5", "2.5E-3", "1e+2", "1e400", ".5e-1", "1.5/2", "1e3/2", "1/2e3")
ATOMS = NUMBERS + ("i", "j", "z", "z^2", "z^02", "z^10", "z^", "z^-1", "zz", "*", "**",
                   "(", ")", "()", "(1+2i)", "(-1/2-3j)", "((1))", "( )", "+", "-",
                   " ", "\t", "e", "E", "/", ".", "^", "2")
SPACE = (" ", "\t", "")
HUGE = re.compile(r"[eE][+-]?\d{5}|\^\d{5}")


def _soup(rng):
    """A short run of atoms, mostly invalid."""
    return "".join(rng.choice(ATOMS) for _ in range(rng.randint(1, 7)))


def _unit(rng):
    """A unit term, sometimes with whitespace inside."""
    if rng.random() < 0.15:
        return rng.choice("ij")
    num = rng.choice(NUMBERS)
    if rng.random() < 0.1:
        k = rng.randrange(len(num) + 1)
        num = num[:k] + rng.choice(SPACE) + num[k:]
    if rng.random() < 0.3:
        num += rng.choice(SPACE) + rng.choice("ij")
    return num


def _sum(rng):
    """A signed run of unit terms."""
    text = rng.choice(("", "", "-", "+")) + _unit(rng)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice(SPACE) + rng.choice("+-") + rng.choice(SPACE) + _unit(rng)
    return text


def _term(rng):
    """A polynomial term: a coefficient, stars, z or z^k, either part alone."""
    coeff = rng.choice(("", _unit(rng), "(%s)" % _sum(rng), "(%s)" % _sum(rng)))
    if rng.random() < 0.3 and coeff:
        return coeff
    stars = rng.choice(("", "", "*", "*", "**"))
    power = rng.choice(("z", "z", "z^2", "z^3", "z^02", "z^10", "z^0"))
    return coeff + rng.choice(SPACE) + stars + rng.choice(SPACE) + power


def _poly_text(rng):
    text = rng.choice(("", "", "-", "+")) + _term(rng)
    for _ in range(rng.randint(0, 4)):
        text += rng.choice(SPACE) + rng.choice("+-") + rng.choice(SPACE) + _term(rng)
    return text


def _mutate(rng, text):
    """Splice in an atom, or delete or replace one character."""
    k = rng.randrange(len(text) + 1)
    move = rng.randrange(3)
    if move == 0:
        return text[:k] + rng.choice(ATOMS) + text[k:]
    if move == 1:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice("+-*()^ze.i/ \t0") + text[k + 1:]


def _corpus(count, seed):
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        kind = rng.random()
        if kind < 0.25:
            text = _soup(rng)
        elif kind < 0.45:
            text = _sum(rng)
            if rng.random() < 0.3:
                text = "(%s)" % text
        else:
            text = _poly_text(rng)
        if rng.random() < 0.3:
            text = _mutate(rng, text)
        if rng.random() < 0.1:
            text = rng.choice(SPACE) + text + rng.choice(SPACE)
        # the reference readers build 10**k exactly for an exponent k and
        # a dense list for a power z^k, so glued atoms such as '1e5' '007'
        # '12' would spend seconds and gigabytes on one text; the readers
        # refuse a k of five digits or more (test_huge_exponent_is_refused)
        if not HUGE.search(_no_space(text)):
            texts.append(text)
    return texts


def _differences(texts, seen):
    """Forbidden differences over texts, both readers and backends, with
    the widened texts collected in seen."""
    bad = []
    for text in texts:
        for new, ref in ((parse_scalar, _ref_parse_scalar), (parse_poly, _ref_parse_poly)):
            for backend in (EXACT, FLOAT):
                verdict = _classify(new, ref, text, backend)
                if verdict == "widened":
                    seen.add((new.__name__, text))
                elif verdict != "same":
                    bad.append((new.__name__, backend, text, verdict))
    return bad


def test_readers_match_the_reference_on_a_seeded_corpus():
    texts = _corpus(50_000, seed=23)
    widened = set()
    assert _differences(texts, widened)[:5] == []
    # the corpus reaches both outcomes of both readers
    for parse in (parse_scalar, parse_poly):
        ok = sum(_outcome(parse, t, EXACT)[0] for t in texts[::10])
        assert 500 < ok < 4500, parse.__name__
    assert widened


def test_readers_match_the_reference_on_the_classify_pool(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    texts = {arg.split("=", 1)[1] for block in workloads.pool("classify", 100)
             for request in block for arg in request.argv if arg.startswith("--")
             and "=" in arg}
    assert len(texts) > 1000
    widened = set()
    assert _differences(sorted(texts), widened) == []
    assert not widened


# -- named cases ---------------------------------------------------------------------


@pytest.mark.parametrize("reader, text", [
    (parse_scalar, "1e -5"),        # whitespace before an exponent's sign
    (parse_scalar, "-\t2"),         # a tab after a sign
    (parse_scalar, "1\t2"),         # a tab between digits, as a space was
    (parse_poly, "-\tz"),           # a tab alone before z
    (parse_poly, "2*\tz"),          # a tab between '*' and z
    (parse_poly, "z\t^2"),          # a tab around '^'
    (parse_poly, "z^\t2"),
    (parse_poly, "1e\t-5*z"),       # a tab before an exponent's sign
    (parse_poly, "1\t2*z"),         # a tab between digits
])
def test_whitespace_widening(reader, text):
    ref = _ref_parse_scalar if reader is parse_scalar else _ref_parse_poly
    for backend in (EXACT, FLOAT):
        with pytest.raises(ValueError):
            ref(text, backend)
        assert _classify(reader, ref, text, backend) == "widened"


def test_float_terms_round_before_their_sum():
    # each polynomial term is rounded to float, then the terms are added
    assert parse_poly("0.1*z + 0.2*z", FLOAT).coeffs[1] == 0.30000000000000004 + 0j
    # a scalar's parts are summed exactly and rounded once
    assert parse_scalar("0.1+0.2", FLOAT) == 0.3 + 0j
    assert parse_poly("0.1*z + 0.2*z", EXACT).coeffs[1] == RationalComplex(Fraction(3, 10))


@pytest.mark.parametrize("text, coeffs", [
    ("*z", [0, 1]),
    ("2**z", [0, 2]),
    ("2z", [0, 2]),
    ("iz", [0, 1j]),
    ("-*z", [0, -1]),
    ("z^02", [0, 0, 1]),
    ("(1+2i)*z^2", [0, 0, 1 + 2j]),
    ("-(1/2-i)z + 3", [3, -0.5 + 1j]),
    ("0", []),
])
def test_polynomial_term_forms(text, coeffs):
    assert parse_poly(text, FLOAT).coeffs == tuple(complex(c) for c in coeffs)
    assert parse_poly(text, EXACT) == _ref_parse_poly(text, EXACT)


@pytest.mark.parametrize("text", ["*", "2*", "**", "z*2", "zz", "z^", "z^-1", "+", "2+",
                                  "--z", "2*-z", "()", "()*z", "(z)", "((1))"])
def test_polynomial_texts_refused(text):
    with pytest.raises(ValueError):
        parse_poly(text, EXACT)


@pytest.mark.parametrize("text", ["z", "1 + 2*z", "-1/2", "(1-i)*z^2"])
def test_unknown_backend_is_a_value_error(text):
    with pytest.raises(ValueError, match="unknown backend"):
        parse_poly(text, "bogus")


@pytest.mark.parametrize("text", ["1/2", "3", "-2/5", "(1+2i)", "1.5e-3", "1e400"])
def test_unknown_backend_is_a_value_error_for_scalars(text):
    # as parse_poly and as_scalar refuse it, not read as float
    for backend in ("bogus", "Float", ""):
        with pytest.raises(ValueError, match="^unknown backend %r$" % backend):
            parse_scalar(text, backend)


def test_huge_literal_is_exact_but_beyond_float_range():
    assert parse_scalar("1e400", EXACT) == RationalComplex(10**400)
    assert parse_poly("1e400*z", EXACT).coeffs[1] == RationalComplex(10**400)
    for reader in (parse_scalar, parse_poly):
        with pytest.raises(ValueError, match="beyond float range"):
            reader("1e400", FLOAT)


def test_zero_denominator_is_a_usage_error(capsys):
    code = main(["classify", "--sigma", "1/0", "--tau", "1", "--sigma-tilde", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "z^999999999"])
def test_huge_exponent_is_refused(capsys, backend, text):
    # an exponent or a power of z of five digits or more is refused before
    # 10**k or a dense list of k coefficients is built: exit 2 at once,
    # with the reader's own error, for a polynomial and for a scalar option
    runs = [["classify", "--sigma", "%s*z" % text if "z" not in text else text,
             "--tau", "1", "--sigma-tilde", "1"]]
    if "z" not in text:
        runs.append(["solve", "heun", "--class", "I", "-n", "1", "--a", "2",
                     "--gamma", text, "--delta", "1/3", "--epsilon", "3/4"])
    for argv in runs:
        start = time.perf_counter()
        code = main(argv + ["--backend", backend])
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: bad polynomial text" if argv[0] == "classify"
                              else "error: bad numeric literal")


# -- unit terms read as Fraction reads them -------------------------------------------
#
# An integer unit is read with int() and a p/q unit as Fraction(int(p), int(q)),
# skipping Fraction's string parser. The reference reads every unit with
# Fraction(sign + unit): values, float bits and error texts must all agree.


def _unit_corpus(seed=37):
    rng = random.Random(seed)
    units = ["0", "-0", "+0", "007", "-007/010", "007/010", "0/5", "-0/5", "٣/٤", "-٣",
             "1/0", "-7/0", "0/0", "1" * 5000, "-" + "1" * 5000, "2/" + "3" * 5000,
             "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 400 + "/3", "1/1" + "0" * 400,
             "i", "-j", "3i", "-2/7j", "1.5", "-.5e-3", "2.e2i", "1e400"]
    for _ in range(300):
        sign = rng.choice(("", "-", "+"))
        num = str(rng.randint(0, 10**rng.randint(1, 30))).zfill(rng.randint(1, 4))
        if rng.random() < 0.5:
            num += "/" + str(rng.randint(0, 10**rng.randint(1, 20))).zfill(rng.randint(1, 3))
        units.append(sign + num + rng.choice(("", "", "i", "j")))
    # two-unit sums of the short units: ints, ratios, i/j and decimals
    short = units[20:]
    sums = [rng.choice(short) + rng.choice("+-") + rng.choice(short).lstrip("+-")
            for _ in range(100)]
    return units + sums


def _fraction_unit(sign, unit):
    return Fraction(sign + unit)


def _unit_outcome(read, text, backend):
    """Exact values by their stored ints, floats by the bits of both parts,
    a refusal by its type and text."""
    try:
        value = read(text, backend)
    except REFUSED as exc:
        return type(exc), str(exc)
    coeffs = value.coeffs if isinstance(value, Poly) else (value,)
    return tuple(c._abd if backend == EXACT else (c.real.hex(), c.imag.hex())
                 for c in coeffs)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_unit_terms_read_as_fraction_reads_them(monkeypatch, backend):
    corpus = _unit_corpus()
    texts = [(parse_scalar, text) for text in corpus]
    texts += [(parse_poly, "%s*z^2 - (%s)*z + 1" % (text, text)) for text in corpus]
    got = [_unit_outcome(read, text, backend) for read, text in texts]
    monkeypatch.setattr(scalars, "_read_unit", _fraction_unit)
    want = [_unit_outcome(read, text, backend) for read, text in texts]
    assert [(text[:40], g, w) for (_, text), g, w in zip(texts, got, want) if g != w] == []
    # every refusal the corpus was built to reach
    refusals = [w[1] for w in want if isinstance(w[0], type)]
    assert "Fraction(1, 0)" in refusals and "Fraction(-7, 0)" in refusals
    if hasattr(sys, "get_int_max_str_digits"):  # Python's int-string limit
        assert any(r.startswith("Exceeds the limit") for r in refusals)
    assert any("beyond float range" in r for r in refusals) == (backend == FLOAT)
