"""The README's library quick start runs, and prints what it printed when
it was written, to the bit. Its python block is taken from the README as
CI's "README library quick start runs" step takes it, and run in a fresh
interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import heunforge

SRC = Path(heunforge.__file__).resolve().parents[1]
README = Path(__file__).parents[1] / "README.md"

# the block's three states (q, poly, residual) as it printed them when the
# records were dataclasses and the loop read replace(p, q=q)
PRINTED = (
    "(-10.050991051565271-4.3358431717099954e-16j) "
    "(0.10149879335055693-7.080948737097428e-18i) "
    "+ (-0.8948802313255442+7.072291470088482e-17i)*z "
    "+ (1-8.293984014044197e-33i)*z^2 4.322118945547526e-14",
    "(-6.0286284673246024+7.69207771818812e-16j) "
    "(0.3547368172595443+1.235226606809501e-16i) "
    "+ (-1.8759442762622924-2.27452022518598e-16i)*z + 1*z^2 1.5243561570697916e-13",
    "(-1.6003804811101299-3.400058012914542e-16j) "
    "(2.105652666337183-2.07348629202423e-16i) "
    "+ (-2.956004760704848+6.833656383736834e-17i)*z + 1*z^2 3.1632764839429377e-14",
)


def quickstart():
    text = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_quickstart_prints_what_it_printed():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", quickstart()], capture_output=True,
                          env=env, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == list(PRINTED)
