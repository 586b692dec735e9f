"""Every probe script in tools/ starts and prints its usage.

The tools import conekit from the checkout's src directory, and
descent_probe also the test oracles, so a name a tool still imports after
it moved or went away fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def test_tools_found():
    assert {p.name for p in TOOLS} >= {"descent_probe.py", "comass_probe.py"}


@pytest.mark.parametrize("script", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_help_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "usage" in proc.stdout
