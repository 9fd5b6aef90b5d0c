"""Golden CLI outputs: the README commands, run through cli.main with
--format json, must print exactly what tests/golden/*.json records.

Each golden file holds the argv (without --format json), the exit code
and the parsed JSON output. Outputs are compared as parsed JSON, so key
order and whitespace do not matter but every value does, floats
included, so a change that moves a float in its last bit shows here.

The JSON, table and CSV outputs of five README commands and of one app
run with non-finite values are frozen byte for byte in
tests/golden/<name>.<format>.txt, and so is the JSON of the two exact
solves above: the text formats print the residual and other floats in
their own text form, and the JSON text pins indentation, key order,
escaping and json.dumps' NaN/Infinity tokens as well as values.
"""

import json
from pathlib import Path

import pytest

from heunforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    "classify_exact",
    "solve_heun_exact",
    "solve_che_exact",
    "app_coulomb3s",
    "app_electrons_sphere",
    "app_double_well",
)


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.delenv("HEUNFORGE_BACKEND", raising=False)
    golden = json.loads((GOLDEN / (name + ".json")).read_text())
    code = main(golden["argv"] + ["--format", "json"])
    assert code == golden["exit"]
    assert json.loads(capsys.readouterr().out) == golden["output"]


TEXT_CASES = {
    "classify_exact": [
        "classify",
        "--sigma", "z^3 - 3*z^2 + 2*z",
        "--tau", "1 - 35/12*z + 19/12*z^2",
        "--sigma-tilde", "-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4",
        "--backend", "exact",
    ],
    "solve_heun_float": [
        "solve", "heun", "--class", "I", "-n", "2",
        "--a", "2", "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4",
    ],
    "app_coulomb3s": ["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5"],
    "app_electrons_sphere": [
        "app", "electrons-sphere", "--n", "1", "--gamma", "1", "--delta", "2",
    ],
    "app_double_well": [
        "app", "double-well", "--n", "1", "--d", "1", "--u0", "100",
        "--parity", "antisymmetric",
    ],
    # overflows to inf and nan: exit 4, with NaN and Infinity in the JSON
    # until the schema decides how to print non-finite values
    "app_coulomb3s_nonfinite": [
        "app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "1e308",
    ],
    **{name: json.loads((GOLDEN / (name + ".json")).read_text())["argv"]
       for name in ("solve_heun_exact", "solve_che_exact")},
}
FORMATS = ("json", "table", "csv")
# the cases frozen in JSON alone, and the exit codes other than 0
TEXT_FORMATS = {"solve_heun_exact": ("json",), "solve_che_exact": ("json",)}
TEXT_EXIT = {"app_coulomb3s_nonfinite": 4}
TEXT_FILES = [(name, fmt) for name in sorted(TEXT_CASES)
              for fmt in TEXT_FORMATS.get(name, FORMATS)]


def test_every_golden_text_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        "%s.%s.txt" % case for case in TEXT_FILES)


@pytest.mark.parametrize("name, fmt", TEXT_FILES)
def test_golden_text_output(name, fmt, capsys, monkeypatch):
    monkeypatch.delenv("HEUNFORGE_BACKEND", raising=False)
    assert main(TEXT_CASES[name] + ["--format", fmt]) == TEXT_EXIT.get(name, 0)
    # bytes, so that CSV's \r\n line ends are compared too
    golden = (GOLDEN / ("%s.%s.txt" % (name, fmt))).read_bytes().decode()
    assert capsys.readouterr().out == golden
