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


def test_round_cost_against_another_checkout():
    # This checkout against itself, imported a second time under another name.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "round_cost.py"), "--against", str(SCRIPTS.parent),
         "--horizon", "20", "--trials", "1", "--repeats", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("swap_decay")]
    assert len(rows) == 1 and len(rows[0]) == 7 and rows[0][5].endswith("/2")
    this, against, ratio = map(float, rows[0][2:5])
    assert this > 0 and against > 0 and ratio == pytest.approx(this / against, rel=1e-2)
    # no_swap_regret_full builds a new tuple every round: no round repeats.
    assert rows[0][6] == "0.0%"


def test_round_cost_repeat_share():
    # Share of rounds whose two strategies are the last round's objects: the
    # scripted pair of reveal_follow settles from round 2 and repeats in
    # every round from round 3 on.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "round_cost.py"), "--horizon", "40", "--trials", "1",
         "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    repeat = {tuple(line.split()[:2]): line.split()[-1] for line in proc.stdout.splitlines()[2:]}
    assert repeat["reveal_follow", "baseline"] == f"{38 / 40:.1%}"
    assert repeat["swap_decay", "baseline"] == "0.0%"
