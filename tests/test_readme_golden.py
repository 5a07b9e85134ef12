"""The README's command-line examples, run from the repository root, against
golden exit codes, stdout and DOT files in `fixtures/golden/cli/`.

Each golden `NN.txt` holds the command line, the exit code and the stdout of
the NN-th README command; `NN.dot` holds the DOT file a `--dot` command
writes (redirected into a temporary directory here).
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1]
GOLDEN = PKG / "fixtures" / "golden" / "cli"


def readme_commands() -> list[str]:
    text = (PKG / "README.md").read_text()
    block = re.search(r"## Command line\s+```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cohext ")]


def run_readme_command(line: str, tmp: Path) -> tuple[str, str | None]:
    """Run one README command; return its golden text and its DOT output."""
    args = shlex.split(line)[1:]
    dot = None
    if "--dot" in args:
        i = args.index("--dot") + 1
        dot = tmp / Path(args[i]).name
        args[i] = str(dot)
    # only the import path, so no variable of the caller's changes a golden
    r = subprocess.run(
        [sys.executable, "-m", "cohext.cli", *args],
        capture_output=True, text=True, cwd=PKG,
        env={"PYTHONPATH": str(PKG / "src")},
    )
    text = f"$ {line}\nexit {r.returncode}\n{r.stdout}"
    return text, dot.read_text() if dot else None


def test_readme_lists_fifteen_commands():
    assert len(readme_commands()) == 15


@pytest.mark.parametrize("index", range(1, 16))
def test_readme_command_matches_golden(index, tmp_path):
    line = readme_commands()[index - 1]
    text, dot = run_readme_command(line, tmp_path)
    assert text == (GOLDEN / f"{index:02d}.txt").read_text()
    dot_golden = GOLDEN / f"{index:02d}.dot"
    assert (dot is None) == (not dot_golden.exists())
    if dot is not None:
        assert dot == dot_golden.read_text()
