"""Smoke tests for the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import ltcforge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_dependence_soundness_survey_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "dependence_soundness_survey.py"), "--budget", "100000"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "generalized Hadamard, 2-dependence tester" in proc.stdout
    assert "generalized long code, 2-dependence tester" in proc.stdout
    assert proc.stdout.count("exact  floor 1/n^2") == 2  # both column headers
