"""The study scripts in scripts/ run to completion at small sizes."""

import json
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
        ["solve_cost.py", "--games", "2", "--repeats", "1"],
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
    assert len(rows) == 1 and len(rows[0]) == 9 and rows[0][6].endswith("/2")
    this, against, iqr, ratio = map(float, rows[0][2:6])
    assert this > 0 and against > 0 and iqr >= 0
    assert ratio == pytest.approx(this / against, rel=1e-2)
    assert rows[0][7] in ("faster", "slower", "unresolved")
    # no_swap_regret_full builds a new tuple every round: no round repeats.
    assert rows[0][8] == "0.0%"


@pytest.mark.parametrize(
    "this, against, expected",
    [
        ([1.0] * 10, [2.0] * 10, (0.0, 10, "faster")),
        ([2.0] * 10, [1.0] * 10, (0.0, 0, "slower")),
        # 9 of 10 pairs won, the medians 1.0 apart, the other side's IQR 0.4375.
        ([1.0] * 9 + [9.0], [2.0, 2.5, 1.75, 2.25, 2.0, 2.5, 1.75, 2.0, 2.25, 0.5],
         (0.4375, 9, "faster")),
        # 8 of 10 won: unresolved, however far apart the medians.
        ([1.0] * 8 + [9.0] * 2, [2.0] * 10, (0.0, 8, "unresolved")),
        # Every pair won, but the gap of 2.0 is not beyond the IQR of 2.0.
        ([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 5.0, 6.0, 7.0], (2.0, 5, "unresolved")),
    ],
)
def test_round_cost_resolves_a_row_only_beyond_the_noise(this, against, expected):
    sys.path.insert(0, str(SCRIPTS))
    try:
        import round_cost
    finally:
        sys.path.remove(str(SCRIPTS))
    assert round_cost.compare(this, against) == expected


def test_round_cost_repeat_share():
    # Share of rounds whose two strategies are the last round's objects: the
    # scripted pair of reveal_follow settles from round 2 and repeats in
    # every round from round 3 on. --config times only the configs it names.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "round_cost.py"), "--horizon", "40", "--trials", "1",
         "--repeats", "1", "--config", "swap_decay", "--config", "reveal_follow"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    repeat = {tuple(line.split()[:2]): line.split()[-1] for line in proc.stdout.splitlines()[2:]}
    assert repeat == {("reveal_follow", "baseline"): f"{38 / 40:.1%}",
                      ("swap_decay", "baseline"): "0.0%"}


def test_round_cost_rejects_an_unknown_config():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "round_cost.py"), "--config", "swap_decay",
         "--config", "no_such_config"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert "no config named no_such_config in configs/, and no such file" in proc.stderr


def test_round_cost_times_a_config_file(tmp_path):
    # A path names a config outside configs/: here a hedge pair, which no
    # shipped config plays, timed against this checkout imported again.
    cfg = json.loads((SCRIPTS.parent / "configs" / "swap_decay.json").read_text())
    cfg["spec1"] = {"kind": "multiplicative_weights", "params": {}}
    cfg["spec2"] = {"kind": "bandit_exp3", "params": {}}
    path = tmp_path / "hedge_pair.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "round_cost.py"), "--config", str(path),
         "--against", str(SCRIPTS.parent), "--horizon", "20", "--trials", "1", "--repeats", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert [row[:2] for row in rows[1:]] == [["hedge_pair", "baseline"]]
    # multiplicative_weights builds a new tuple every round: no round repeats.
    assert rows[1][8] == "0.0%"


def test_solve_cost_against_another_checkout():
    # This checkout against itself: both sides solve the same LPs.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "solve_cost.py"), "--against", str(SCRIPTS.parent),
         "--games", "3", "--repeats", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[4:]]
    assert [row[:2] for row in rows] == [[fn, n] for n in ("2", "4", "8")
                                         for fn in ("stackelberg_value", "perturbed_commitment")]
    for fn, n, games, this, against, iqr, ratio, wins, verdict, this_lp, against_lp in rows:
        assert int(games) <= 3 and float(this) > 0 and float(against) > 0 and float(iqr) >= 0
        assert float(ratio) == pytest.approx(float(this) / float(against), rel=1e-2)
        assert wins.endswith("/2") and verdict in ("faster", "slower", "unresolved")
        assert this_lp == against_lp
        # stackelberg_value solves one LP per reply. On the script's fixed
        # games perturbed_commitment solves these many, where a search over
        # every reply would solve one more than stackelberg_value.
        expected = {"2": "2.00", "4": "2.33", "8": "3.83"}[n]
        assert this_lp == (f"{int(n)}.00" if fn == "stackelberg_value" else expected)
