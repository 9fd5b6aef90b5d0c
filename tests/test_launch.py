"""A CLI launch loads no `dataclasses`, and a launch that needs no numpy
no `inspect` either: the records are namedtuple subclasses, and
`dataclasses` was the one reason a launch loaded `inspect`, `ast`, `dis`,
`tokenize` and `copy`.

Each README command runs with `--format json` through cli.main in a fresh
interpreter where sys.modules holds None for the blocked modules, so any
import of them raises, and must print what it prints in process. numpy
imports `inspect` itself, so only the commands that need no numpy (exact
`classify` and `app coulomb3s`) run with `inspect` blocked too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import README_COMMANDS

import heunforge
from heunforge.cli import main

SRC = Path(heunforge.__file__).resolve().parents[1]

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
