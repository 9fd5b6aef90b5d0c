"""Golden CLI outputs: the README commands, run through cli.main, must
print exactly what tests/golden/<name>.<format>.txt records.

The JSON, table and CSV outputs of the eight README commands are frozen
byte for byte, and so is the JSON of two exact solves. The comparison is of
bytes, so every value counts, floats included (a change that moves a
float in its last bit shows here), and so do the text formats' own
number forms, the JSON separators, key order and escaping. JSON is
schema 2: one line, in the form json.dumps(sort_keys=True) writes, a
Poly as its coefficients alone, and no NaN or Infinity token, which the
strict parse below would refuse.
"""

import json
from pathlib import Path

import pytest

from heunforge.cli import main
from heunforge.engine import NuEquation

GOLDEN = Path(__file__).parent / "golden"


def _refuse_constant(token):
    """json.loads' parse_constant: refuse the NaN and Infinity tokens that
    strict JSON has no place for."""
    raise ValueError("non-finite JSON token %s" % token)


TEXT_CASES = {
    "classify_exact": [
        "classify",
        "--sigma", "z^3 - 3*z^2 + 2*z",
        "--tau", "1 - 35/12*z + 19/12*z^2",
        "--sigma-tilde", "-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4",
        "--backend", "exact",
    ],
    # classic mode's zero tests, which an exact equation passes exactly
    "classify_classic": [
        "classify", "--mode", "classic",
        "--sigma", "z^2 - 1/3*z", "--tau", "-4/3 - 2/3*z",
        "--sigma-tilde", "1/4 - 1/3*z - 5/4*z^2", "--backend", "exact",
    ],
    # the Start-up command: eight float branches of an exact equation,
    # certified by float zero tests on its float copy
    "classify_startup": [
        "classify", "--sigma", "z^3 - 3*z^2 + 2*z", "--tau", "1 + z",
        "--sigma-tilde", "1 + z^2", "--backend", "exact",
    ],
    "solve_heun_float": [
        "solve", "heun", "--class", "I", "-n", "2",
        "--a", "2", "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4",
    ],
    "solve_che_float": [
        "solve", "che", "--class", "1", "-n", "1", "--alpha", "3/2",
        "--beta", "1/3", "--gamma", "2/5",
    ],
    "app_coulomb3s": ["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5"],
    "app_electrons_sphere": [
        "app", "electrons-sphere", "--n", "1", "--gamma", "1", "--delta", "2",
    ],
    "app_double_well": [
        "app", "double-well", "--n", "1", "--d", "1", "--u0", "100",
        "--parity", "antisymmetric",
    ],
    "solve_heun_exact": [
        "solve", "heun", "--class", "I", "-n", "2", "--a", "2",
        "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4",
        "--backend", "exact",
    ],
    "solve_che_exact": [
        "solve", "che", "--class", "1", "-n", "1", "--alpha", "3/2",
        "--beta", "1/3", "--gamma", "2/5", "--backend", "exact",
    ],
}
FORMATS = ("json", "table", "csv")
# the cases frozen in JSON alone
TEXT_FORMATS = {"solve_heun_exact": ("json",), "solve_che_exact": ("json",)}
TEXT_FILES = [(name, fmt) for name in sorted(TEXT_CASES)
              for fmt in TEXT_FORMATS.get(name, FORMATS)]


def test_every_golden_text_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        "%s.%s.txt" % case for case in TEXT_FILES)


@pytest.mark.parametrize("name, fmt", TEXT_FILES)
def test_golden_text_output(name, fmt, capsys):
    assert main(TEXT_CASES[name] + ["--format", fmt]) == 0
    # bytes, so that CSV's \r\n line ends are compared too
    golden = (GOLDEN / ("%s.%s.txt" % (name, fmt))).read_bytes().decode()
    assert capsys.readouterr().out == golden
    if fmt == "json":
        assert json.loads(golden, parse_constant=_refuse_constant)["schema"] == 2


@pytest.mark.parametrize("fmt", FORMATS)
def test_overflowing_app_value_is_a_usage_error(fmt, capsys):
    # gamma^2 overflows, so the energy is not finite: no output, exit 2
    argv = ["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "1e308"]
    assert main(argv + ["--format", fmt]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "overflows the float range" in out.err


# Exact classify paths no benchmark pool reaches: sigma with irrational
# roots (Aberth's roots, then branches refined by Newton from float
# candidates), a singular Newton Jacobian, a candidate entry that starts
# at float noise, and a cube whose roots lie near 10**53. Frozen in JSON,
# in tests/golden/exact_classify/<name>.json.txt.
EXACT_CLASSIFY_CASES = {
    "cubic_two_irrational_roots": ("z^3 - 2*z", "1 + z", "1 + z^2"),
    "cubic_three_irrational_roots": ("z^3 - 2*z + 1/3", "1 + z", "1 + z^2"),
    "square_root_of_two_singular_jacobian": (
        "z^2 - 2", "2 + 5/4*z + 2*z^2",
        "-10/7 - 6/11*z + 19/7*z^2 - 21/44*z^3 + z^4"),
    "float_noise_start": (
        "119/6 + 323/27*z + 17/3*z^2", "-1/5 + 15/2*z - 13/10*z^2",
        "-21776/135 - 14467/2970*z + 695713/49005*z^2 + 6077/495*z^3"),
    "huge_constant_cube": ("z^3 + 1" + "0" * 160, "1 + z", "1 + z^2"),
    "square_root_of_two": ("z^2 - 2", "1 + z", "1 + z^2"),
}


def test_every_exact_classify_golden_is_a_case():
    assert sorted(p.name for p in (GOLDEN / "exact_classify").glob("*")) == sorted(
        "%s.json.txt" % name for name in EXACT_CLASSIFY_CASES)


@pytest.mark.parametrize("name", sorted(EXACT_CLASSIFY_CASES))
def test_exact_classify_golden(name, capsys):
    sigma, tau, sigma_tilde = EXACT_CLASSIFY_CASES[name]
    argv = ["classify", "--sigma", sigma, "--tau", tau, "--sigma-tilde", sigma_tilde,
            "--backend", "exact", "--format", "json"]
    assert main(argv) == 0
    golden = (GOLDEN / "exact_classify" / ("%s.json.txt" % name)).read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", ["cubic_two_irrational_roots", "square_root_of_two",
                                  "classify_startup"])
def test_exact_classify_builds_one_float_copy(name, capsys, monkeypatch):
    # every float branch of an exact equation, and its float half gap, run
    # on one float copy of the equation; one per branch made 9, 5 and 9
    copies, build = [], NuEquation.to_float
    monkeypatch.setattr(NuEquation, "to_float", lambda eq: copies.append(eq) or build(eq))
    if name in EXACT_CLASSIFY_CASES:
        sigma, tau, sigma_tilde = EXACT_CLASSIFY_CASES[name]
        argv = ["classify", "--sigma", sigma, "--tau", tau, "--sigma-tilde", sigma_tilde,
                "--backend", "exact"]
        golden = GOLDEN / "exact_classify" / ("%s.json.txt" % name)
    else:
        argv, golden = TEXT_CASES[name], GOLDEN / ("%s.json.txt" % name)
    assert main(argv + ["--format", "json"]) == 0
    assert len(copies) == 1
    assert capsys.readouterr().out == golden.read_text()
