"""Tests of the benchmark's own checkers.

Each checker must accept a recorded correct output (bench/fixtures, the first
output of a run on seed 1, with the solver cut to two games per size) and
reject the same output with one value perturbed. Run from the repository
root:

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import checks
import run

HERE = Path(__file__).resolve().parent


def load(workload: str) -> tuple[dict, dict]:
    d = json.loads((HERE / "fixtures" / f"{workload}.json").read_text())
    return d["spec"], d["output"]


def problems(workload: str, spec: dict, out: dict) -> list[str]:
    return checks.CHECKS[workload](spec, checks.reference(workload, spec), out)


def dev(rows: list[dict], player: int, name: str) -> dict:
    return next(r for r in rows if r["player"] == player and r["name"] == name)


def shift(key, by):
    def f(d):
        d[key] += by
    return f


PERTURBATIONS = {
    "equilibrium_audit": {
        "baseline U1 off SV1": lambda o: shift("u1_prior_weighted", -0.06)(o),
        "replayed deviation with a gain": lambda o: shift("gain", 1e-12)(dev(o["deviations"], 2, "mimic:G1")),
        "replayed deviation with a CI": lambda o: shift("ci95", 1e-12)(dev(o["deviations"], 1, "stackelberg_leader")),
        "deviation above epsilon": lambda o: dev(o["deviations"], 2, "constant:C").update(lower_bound=0.51),
        "replayed deviation without a CI": lambda o: dev(o["deviations"], 2, "mimic:G2").update(ci95=None),
        "CI 0 though a game realized once": lambda o: o.update(realized=[0, 1, 0, 0, 0, 0, 0, 0]),
    },
    "counterexample": {
        "benchmark value off SV2": lambda o: shift("benchmark_value", 1e-4)(o["claims"]),
        "U2 off SV2": lambda o: shift("u2", -0.06)(o["claims"]),
        "mimic gain off the analytic value": lambda o: shift("gain", 0.06)(dev(o["audit"]["deviations"], 1, "mimic:G1")),
        "csp2_BD too small": lambda o: o["claims"]["csp2_BD"].update(mass=0.94),
    },
    "long_horizon": {
        "swap regret of one trial": lambda o: shift("swap_regret1", 0.01)(o["trials"][1]),
        "external regret of player 2": lambda o: shift("ext_regret2", 1.0)(o["trials"][0]),
        "report mean": lambda o: shift("mean", 0.01)(o["regrets"]["swap_regret1"]),
        "average utility short of the best reply": lambda o: shift("avg_u1", -0.02)(o["curves"][-1]),
    },
    "solver": {
        "value": lambda o: shift("value", 1e-5)(o["games"][0][0]),
        "per-reply value": lambda o: o["games"][5][1]["per_reply"].__setitem__(
            o["games"][5][1]["reply"], o["games"][5][1]["value"] + 1e-5),
        "leader strategy off the simplex": lambda o: o["games"][3][1]["strategy"].__setitem__(0, 1.5),
        "perturbed margin": lambda o: shift("pc_margin", 1e-4)(o["games"][4][0]),
    },
}


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_recorded_output_passes(workload):
    spec, out = load(workload)
    assert problems(workload, spec, out) == []


@pytest.mark.parametrize(
    "workload,what", [(w, what) for w, ps in PERTURBATIONS.items() for what in ps]
)
def test_perturbed_output_fails(workload, what):
    spec, out = load(workload)
    bad = copy.deepcopy(out)
    PERTURBATIONS[workload][what](bad)
    assert bad != out
    assert problems(workload, spec, bad)


def test_replay_ci_undefined_with_a_single_trial_in_a_game():
    spec, out = load("equilibrium_audit")
    out = copy.deepcopy(out)
    out["realized"] = [0, 0, 1, 0, 0, 0, 0, 0]
    for player, name in ((1, "stackelberg_leader"), (2, "mimic:G1"), (2, "mimic:G2")):
        dev(out["deviations"], player, name).update(ci95=None)
    assert problems("equilibrium_audit", spec, out) == []


def test_independent_lp_on_fig1():
    g1, g2 = checks.FIG1
    assert checks.stackelberg_reference(g1["u1"], g1["u2"], 1)["value"] == pytest.approx(16.0)
    assert checks.stackelberg_reference(g2["u1"], g2["u2"], 1)["value"] == pytest.approx(1.0)
    assert checks.stackelberg_reference(g1["u1"], g1["u2"], 2)["value"] == pytest.approx(1.0)
    assert checks.stackelberg_reference(g2["u1"], g2["u2"], 2)["value"] == pytest.approx(2.0)
    # In G2, player 2 gets 2 by committing to D, which keeps B a best reply:
    # reply A would need mass above 1/2 on C.
    assert checks.stackelberg_reference(g2["u1"], g2["u2"], 2)["reply"] == 1


def test_analytic_sv2_and_mimic_gain():
    assert checks.reference("counterexample", {}) == pytest.approx(
        {"sv2": 0.5 * 1.0 + 0.5 * 2.0, "mimic_gain": 0.5 * (1.0 - 0.1)}
    )
    assert checks.reference("equilibrium_audit", {})["sv1"] == pytest.approx(0.5 * 16 + 0.5 * 1)


def test_reply_margin_sign():
    # Row player leads; the column player prefers C iff the row mix puts at
    # least 1/3 on A, so C and D both admit a strict margin, and E never does.
    fol = [[2.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
    lead = [[0.0] * 3] * 2
    _, f = checks.orient(lead, fol, 1)
    assert checks.reply_margin(f, 0) > 0
    assert checks.reply_margin(f, 1) > 0
    assert checks.reply_margin(f, 2) < 0


def test_numpy_regrets_by_hand():
    u1 = [[1.0, 0.0], [0.0, 1.0]]
    u2 = [[0.0, 2.0], [1.0, 0.0]]
    # Row A met column D three times, row B met column C once.
    mass = [[0.0, 3.0], [1.0, 0.0]]
    # Player 1 earned 0; the best fixed row (B) earns 3; swapping A->B and
    # B->A earns 3 + 1.
    assert checks.regrets(mass, u1, u2, 1) == pytest.approx((3.0, 4.0))
    # Player 2 earned 3*2 + 1*1 = 7; fixed D earns 6, fixed C earns 1; no
    # swap helps either column.
    assert checks.regrets(mass, u1, u2, 2) == pytest.approx((-1.0, 0.0))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
