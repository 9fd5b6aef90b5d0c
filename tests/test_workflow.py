"""The CI workflow's shell steps parse: `bash -n` accepts every `run:`
block of .github/workflows/tests.yml, and compile() every inline
`python -c '...'` program in them. CI cannot run offline, and a quote in
an inline program's comment closes the step's single-quoted Python, so
bash runs the rest of the program as shell. The workflow is read as text,
since the tests import only numpy and pytest."""

import re
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
RUN_KEY = re.compile(r"^( *)(?:- )?run: *(.*)$")
# GitHub substitutes ${{ ... }} before the shell sees the script
EXPRESSION = re.compile(r"\$\{\{[^}]*\}\}")
# a single-quoted shell word holds no quote, so the first one closes it
PROGRAM = re.compile(r"\bpython3? -c '([^']*)'")


def run_blocks(text):
    """(line, script) of each `run:` key: its inline value, or for `run: |`
    the lines indented past the key, dedented as YAML does."""
    lines = text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        m = RUN_KEY.match(line)
        if m is None:
            continue
        if not m[2].startswith("|"):
            blocks.append((i + 1, m[2]))
            continue
        body = []
        for rest in lines[i + 1:]:
            if rest.strip() and len(rest) - len(rest.lstrip(" ")) <= len(m[1]):
                break
            body.append(rest)
        blocks.append((i + 1, textwrap.dedent("\n".join(body)).strip("\n") + "\n"))
    return [(n, EXPRESSION.sub("expr", script)) for n, script in blocks]


BLOCKS = run_blocks(WORKFLOW.read_text())
PROGRAMS = [(n, k, program) for n, script in BLOCKS
            for k, program in enumerate(PROGRAM.findall(script))]


def test_workflow_has_run_blocks_and_programs():
    assert len(BLOCKS) == WORKFLOW.read_text().count("run:")
    assert PROGRAMS


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is absent")
@pytest.mark.parametrize("line, script", BLOCKS, ids=["line%d" % n for n, _ in BLOCKS])
def test_run_block_parses_in_bash(line, script):
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("line, index, program", PROGRAMS,
                         ids=["line%d-%d" % (n, k) for n, k, _ in PROGRAMS])
def test_inline_python_compiles(line, index, program):
    compile(program, "%s:%d (program %d)" % (WORKFLOW.name, line, index), "exec")
