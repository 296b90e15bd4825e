"""The scripts under ``scripts/`` start: each imports the package internals
and test oracles it uses, so a rename that breaks one fails here."""

import importlib.util
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


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_summary_reads_the_per_round_ratios():
    # the host slows from round to round; each round's ratio is what changes
    before = [0.010, 0.020, 0.030, 0.040, 0.050]
    ratios = [1.2, 1.1, 1.0, 0.9, 0.8]
    rounds = [{"before": b, "after": b * r} for b, r in zip(before, ratios)]
    assert load_script("bench_ab").summarize(rounds) == {
        "before_ms": {"median": 30.0, "q1": 20.0, "q3": 40.0},
        "after_ms": {"median": 30.0, "q1": 22.0, "q3": 36.0},
        "change": {"median": 1.0, "q1": 0.9, "q3": 1.1},
        "after_faster_rounds": "2/5"}
