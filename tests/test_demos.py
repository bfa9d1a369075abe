"""Every demo script runs to completion against the package in src/."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of a demo's stdout, for demos whose output is fully seeded: any
# change to the mapping, channel draw order or receiver shows up here
PINNED_STDOUT = {
    "01_power_pairs.py": "de8ba80eab91147dd72b7025f46a03ffb3efb7f8b617413e7e23349687f7fe19",
    "02_single_frame.py": "d8d29c7986cfe07aaebf42f6a576acb253d56fd183faa771114ae712d3460133",
    "03_theory_curves.py": "41225b6ec12c796682065e504b65d5f3cb07da5f2c4cf194ca64e470355c6941",
    "05_optimize_levels.py": "30ab3bfb69b7deaa2c45c681d3f51b45dca178218574027cf9a9787adacaef39",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    cwd, scratch = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(scratch)  # demo 04 writes its CSV to a temporary directory
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []
    if demo.name in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT[demo.name]
