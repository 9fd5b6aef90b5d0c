"""A CLI launch loads no `dataclasses`, and a launch that needs no numpy
no `inspect` either: the records are namedtuple subclasses, and
`dataclasses` was the one reason a launch loaded `inspect`, `ast`, `dis`,
`tokenize` and `copy`.

Each README command runs with `--format json` through cli.main in a fresh
interpreter where sys.modules holds None for the blocked modules, so any
import of them raises, and must print what it prints in process. numpy
imports `inspect` itself, so only the commands that need no numpy (exact
`classify` and `app coulomb3s`) run with `inspect` blocked too.

A launch also leaves out what only some commands read: branch
enumeration (`heunforge.branches`), which only `classify` runs, and
`csv`, which only `--format csv` writes. The README's `solve` and `app`
commands print their JSON with both blocked."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import README_COMMANDS

import heunforge
from heunforge.cli import main

SRC = Path(heunforge.__file__).resolve().parents[1]

SOLVES_AND_APPS = [argv for argv in README_COMMANDS if argv[0] in ("solve", "app")]

BLOCKED = ("import sys\n"
           "for name in sys.argv[1].split(','): sys.modules[name] = None\n"
           "from heunforge.cli import main; raise SystemExit(main(sys.argv[2:]))")


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _numpy_free(argv):
    return "exact" in argv or argv[:2] == ["app", "coulomb3s"]


def test_four_readme_commands_need_no_numpy():
    assert sum(map(_numpy_free, README_COMMANDS)) == 4


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    "%d-%s" % (k, argv[0]) for k, argv in enumerate(README_COMMANDS)])
def test_readme_command_runs_without_dataclasses(capsys, monkeypatch, argv):
    argv = argv + ["--format", "json"]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    out = capsys.readouterr().out
    blocked = "dataclasses,inspect" if _numpy_free(argv) else "dataclasses"
    assert _fresh(BLOCKED, blocked, *argv) == (0, out, "")


def test_import_adds_neither_module():
    probe = "import sys\n%s\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    code, bare, err = _fresh(probe % "")
    assert (code, err) == (0, "")
    assert _fresh(probe % "import heunforge.cli") == (0, bare, "")


def test_import_loads_neither_enumeration_nor_csv():
    probe = ("import sys, heunforge.cli\n"
             "print(sorted({'heunforge.branches', 'csv'} & set(sys.modules)))")
    assert _fresh(probe) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", SOLVES_AND_APPS, ids=lambda argv: "-".join(argv[:2]))
def test_readme_solve_or_app_runs_without_enumeration_or_csv(capsys, monkeypatch, argv):
    argv = argv + ["--format", "json"]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _fresh(BLOCKED, "heunforge.branches,csv", *argv) == (0, out, "")


def test_readme_classify_loads_enumeration():
    probe = ("import contextlib, io, sys\n"
             "from heunforge.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
             "print(code, 'heunforge.branches' in sys.modules)")
    argv = next(argv for argv in README_COMMANDS if argv[0] == "classify")
    assert _fresh(probe, *argv) == (0, "0 True\n", "")
