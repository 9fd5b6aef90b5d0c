"""Commands that compute nothing in float linear algebra run without numpy.

Each run is cli.main in a fresh interpreter where sys.modules["numpy"]
is None, so any import of numpy raises. The README's exact `classify`
runs, both modes and the one that prints float branches, exact
`classify` runs whose sigma has irrational roots, and `app coulomb3s` must
print what they print with numpy present, and so must `--help`. A float `solve` must fail there, which shows that the block
holds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heunforge
from heunforge.cli import main

SRC = Path(heunforge.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

BLOCKED = ("import sys; sys.modules['numpy'] = None; "
           "from heunforge.cli import main; raise SystemExit(main(sys.argv[1:]))")

README_EXACT = [
    "classify", "--sigma", "z^3 - 3*z^2 + 2*z",
    "--tau", "1 - 35/12*z + 19/12*z^2",
    "--sigma-tilde", "-2/5*z - 1/15*z^2 + 4/5*z^3 - 1/3*z^4",
    "--backend", "exact",
]
README_CLASSIC = [
    "classify", "--mode", "classic", "--sigma", "z^2 - 1/3*z",
    "--tau", "-4/3 - 2/3*z", "--sigma-tilde", "1/4 - 1/3*z - 5/4*z^2",
    "--backend", "exact",
]
# sigma has rational roots, but B has no Gaussian-rational square root at
# them, so the branches are built in floats, by the Hermite solve
README_FLOAT_BRANCHES = [
    "classify", "--sigma", "z^3 - 3*z^2 + 2*z", "--tau", "1 + z",
    "--sigma-tilde", "1 + z^2", "--backend", "exact",
]
# sigma = z^3 - 2 has irrational roots, which _exact_roots refines by
# Aberth's step from Newton-polygon starts without eigvals; a planted
# branch (pi = 1/3 - 2/5 z + 1/7 z^2) comes out exact and the others float
IRRATIONAL_SIGMA = [
    "classify", "--sigma", "z^3 - 2", "--tau", "1 - 35/12*z + 19/12*z^2",
    "--sigma-tilde", "-13/9 + 83/36*z - 6883/6300*z^2 + 13/28*z^3 - 89/588*z^4",
    "--backend", "exact",
]
# the root kernel on three real irrational roots, on roots 165 orders of
# magnitude apart, and on Gaussian coefficients; the second has tau~ =
# sigma', so that B = -sigma~ stays in float range at its roots
KERNEL_SIGMAS = [
    ["classify", "--sigma", sigma, "--tau", tau, "--sigma-tilde", "1 + z^2", "--backend", "exact"]
    for sigma, tau in (("z^3 - 3*z + 1", "1 + z"), ("z^3 + 1e110*z^2 + 1", "3*z^2 + 2e110*z"),
                       ("(1+2i)*z^3 - 3i*z + 7/3", "1 + z"))]
COULOMB = ["app", "coulomb3s", "--n", "2", "--m", "1", "--gamma", "0.5"]
FORMATS = ("json", "csv", "table")


def _blocked(argv):
    """(exit code, stdout, stderr) of main(argv) in an interpreter that
    cannot import numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", BLOCKED, *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name, argv", [("classify_exact", README_EXACT),
                                        ("app_coulomb3s", COULOMB)])
def test_golden_run_without_numpy(name, argv, fmt):
    golden = (GOLDEN / ("%s.%s.txt" % (name, fmt))).read_bytes().decode()
    assert _blocked(argv + ["--format", fmt]) == (0, golden, "")


@pytest.mark.parametrize("argv", [
    *(README_CLASSIC + ["--format", fmt] for fmt in FORMATS),
    *(README_FLOAT_BRANCHES + ["--format", fmt] for fmt in FORMATS), ["--help"],
    *(IRRATIONAL_SIGMA + ["--format", fmt] for fmt in FORMATS), *KERNEL_SIGMAS],
    ids=["classic-%s" % fmt for fmt in FORMATS]
    + ["float-branches-%s" % fmt for fmt in FORMATS] + ["help"]
    + ["irrational-sigma-%s" % fmt for fmt in FORMATS]
    + ["kernel-%d" % i for i in range(len(KERNEL_SIGMAS))])
def test_run_without_numpy_prints_what_it_prints_with_numpy(capsys, monkeypatch, argv):
    code, out = _in_process(capsys, monkeypatch, argv)
    assert code == 0 and out
    assert _blocked(argv) == (0, out, "")


def test_float_solve_needs_numpy():
    code, out, err = _blocked(["solve", "heun", "--class", "I", "-n", "2", "--a", "2",
                               "--gamma", "1/2", "--delta", "1/3", "--epsilon", "3/4"])
    assert code == 1 and out == ""
    assert "import of numpy halted" in err
