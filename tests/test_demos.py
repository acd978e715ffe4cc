"""The quick demos run to completion as scripts.

``demos/04_boost_vs_forests.py`` is left out: it takes several seconds,
keeps its CSVs in a temporary directory by design, and its API path is the
one acceptance criterion 8 already runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_loss_family.py", "02_sensitivity_audit.py", "03_private_boosting.py"]
)
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
