"""README examples: every fenced python block runs against the package,
and the experiment example prints exactly the CSV block shown after it."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
BLOCKS = [(m.group(1), m.group(2)) for m in FENCE.finditer(README.read_text())]
PYTHON = [i for i, (lang, _) in enumerate(BLOCKS) if lang == "python"]


def run_block(index: int) -> str:
    """Execute one fenced block in a fresh namespace; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[index][1], f"README.md block {index}", "exec"), {})
    return out.getvalue()


@pytest.mark.parametrize("index", PYTHON)
def test_python_block_runs(index):
    run_block(index)


def test_experiment_block_prints_the_csv_shown():
    index = PYTHON[1]
    lang, expected = BLOCKS[index + 1]
    assert lang == ""
    assert run_block(index) == expected
