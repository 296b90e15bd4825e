"""The scripts under ``scripts/`` start: each imports the package internals
and test oracles it uses, so a rename that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(path.name for path in (ROOT / "scripts").glob("*.py")))
def test_script_help_exits_0(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
