"""Every script under tools/ starts and prints its usage."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


def test_tools_are_found():
    assert {"bench_ab.py", "bench_query_memory.py", "bench_train_memory.py"} <= {
        tool.name for tool in TOOLS}


@pytest.mark.parametrize("tool", TOOLS, ids=lambda tool: tool.name)
def test_help_exits_zero(tool):
    done = subprocess.run([sys.executable, str(tool), "--help"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
