"""The repository's own scripts."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    sample = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    return os.path.join(\n"
        "        x, x)\n"
    )
    (tmp_path / "sample.py").write_text(sample, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # import, def and the two lines of the call
    assert lines[0].split()[0] == "4" and lines[0].endswith("sample.py")
    assert lines[-1].split() == ["4", "total"]
