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
commands print their JSON with both blocked.

The package registers `heunforge.heun`, `heunforge.che` and
`heunforge.apps` unexecuted, and each runs on the first read of a name
it lacks. A module has run once its type is types.ModuleType, which the
launch tests read in place of any name. A launch runs none of them; `classify` runs
`heun`, and `che` when heun_match recognises no equation, a solve runs
its family's module alone and an app runs all three."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import README_COMMANDS

import heunforge
from heunforge.cli import main

SRC = Path(heunforge.__file__).resolve().parents[1]
TRACING = SRC.parent / "bench" / "tracing.py"

LAZY = ("heun", "che", "apps")

# the names of the lazily registered modules that have run, space-separated
RAN = ("' '.join(m for m in %r if type(sys.modules['heunforge.' + m]) is types.ModuleType)"
       % (LAZY,))

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


def test_import_runs_no_family_or_app_module():
    # all three stand in sys.modules (a missing one raises KeyError), unexecuted
    probe = "import sys, types, heunforge.cli\nprint(repr(%s))" % RAN
    assert _fresh(probe) == (0, "''\n", "")


def _modules_run(argv, out):
    """The lazily registered modules a README command is to run: a solve
    its family's, an app all three, and classify heun, and che unless
    heun_match recognised the equation."""
    if argv[0] == "solve":
        return argv[1]
    if argv[0] == "app":
        return " ".join(LAZY)
    return "heun" if json.loads(out)["family"] == "heun" else "heun che"


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    "%d-%s" % (k, argv[0]) for k, argv in enumerate(README_COMMANDS)])
def test_readme_command_runs_only_its_modules(capsys, monkeypatch, argv):
    argv = argv + ["--format", "json"]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    out = capsys.readouterr().out
    probe = ("import sys, types\n"
             "from heunforge.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(%s, file=sys.stderr)\n"
             "raise SystemExit(code)" % RAN)
    assert _fresh(probe, *argv) == (0, out, _modules_run(argv, out) + "\n")


def test_tracer_installs_after_a_classify_that_ran_no_app():
    # the benchmark's traced classify run installs the tracer once
    # classify requests have run and apps has not: the tracer resolves
    # its names through sys.modules, where apps then stands unexecuted
    classify = next(argv for argv in README_COMMANDS if argv[0] == "classify")
    probe = ("import contextlib, importlib.util, io, sys, types\n"
             "from heunforge.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[2:])\n"
             "print(code, %s)\n"
             "spec = importlib.util.spec_from_file_location('bench_tracing', sys.argv[1])\n"
             "tracing = importlib.util.module_from_spec(spec)\n"
             "spec.loader.exec_module(tracing)\n"
             "tracer = tracing.Tracer()\n"
             "tracer.install()\n"
             "tracer.uninstall()\n"
             "print(%s)" % (RAN, RAN))
    assert _fresh(probe, str(TRACING), *classify) == (0, "0 heun\nheun che apps\n", "")


def test_threads_reading_an_unrun_module_each_get_the_whole_module():
    # more threads than cores make the first reads of apps' names at once,
    # with a short switch interval: none may see apps half run
    probe = ("import sys, threading\n"
             "sys.setswitchinterval(1e-6)\n"
             "import heunforge\n"
             "names = ['electrons_sphere_state', 'doublewell_verify', 'SYMMETRIC', 'bethe_residual']\n"
             "barrier = threading.Barrier(8)\n"
             "errors = []\n"
             "def read(name):\n"
             "    barrier.wait(timeout=30)\n"
             "    try:\n"
             "        getattr(heunforge.apps, name)\n"
             "    except AttributeError as exc:\n"
             "        errors.append(repr(exc))\n"
             "threads = [threading.Thread(target=read, args=(names[k % 4],)) for k in range(8)]\n"
             "for thread in threads: thread.start()\n"
             "for thread in threads: thread.join(timeout=60)\n"
             "print(sum(thread.is_alive() for thread in threads), errors)")
    assert _fresh(probe) == (0, "0 []\n", "")
