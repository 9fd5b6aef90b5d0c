"""Golden CLI outputs: the README commands, run through cli.main with
--format json, must print exactly what tests/golden/*.json records.

Each golden file holds the argv (without --format json), the exit code
and the parsed JSON output. Outputs are compared as parsed JSON, so key
order and whitespace do not matter but every value does, floats
included, so a change that moves a float in its last bit shows here.
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
