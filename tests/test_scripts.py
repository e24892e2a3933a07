"""The study scripts in scripts/ run to completion at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep_precision.py", "--steps", "2", "--horizon", "50", "--trials", "2"],
        ["leader_convergence.py", "--horizon", "200", "--trials", "2"],
        ["round_cost.py", "--horizon", "50", "--trials", "1", "--repeats", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_study_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
