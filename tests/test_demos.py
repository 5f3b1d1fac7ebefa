"""Smoke test: every demo script runs to completion and prints its walk-through."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_five_demos():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
