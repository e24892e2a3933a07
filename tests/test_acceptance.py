"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured values (run with -v -s to watch).

The expensive experiment configurations are the shipped ones under configs/;
module-scoped fixtures run each of them once and share the reports.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import THREADS
from grid_oracle import grid_stackelberg, random_leader_follower_game
from stratlab.audit import audit_pne, belief_trace, revelation_analysis, verify_claims
from stratlab.engine import ExperimentConfig, estimate
from stratlab.games import game_matrix
from stratlab.solve import stackelberg_value, stackval_prior

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_cfg(name, **overrides):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def check(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def leader_pair_cfg():
    return load_cfg("leader_vs_learner.json")


@pytest.fixture(scope="module")
def leader_pair_run(leader_pair_cfg):
    return timed(estimate, leader_pair_cfg, threads=THREADS)


@pytest.fixture(scope="module")
def reveal_cfg():
    return load_cfg("reveal_follow.json")


@pytest.fixture(scope="module")
def reveal_run(reveal_cfg):
    return timed(estimate, reveal_cfg, threads=THREADS)


@pytest.fixture(scope="module")
def reveal_audit(reveal_cfg):
    return timed(audit_pne, reveal_cfg, epsilon=0.1, threads=THREADS)


@pytest.fixture(scope="module")
def leader_pair_audit_cfg():
    return load_cfg("leader_vs_learner_audit.json")


@pytest.fixture(scope="module")
def leader_pair_audit(leader_pair_audit_cfg):
    return timed(audit_pne, leader_pair_audit_cfg, epsilon=0.5, threads=THREADS)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_stackelberg_exactness(fig1_prior):
    t0 = time.perf_counter()
    g1, g2 = fig1_prior.games
    sv2_g1 = stackelberg_value(g1, 2).value
    sv2_g2 = stackelberg_value(g2, 2).value
    sv2_prior = stackval_prior(fig1_prior, 2)
    sv1_g1 = stackelberg_value(g1, 1).value
    elapsed = time.perf_counter() - t0
    ok = (
        abs(sv2_g1 - 1.0) <= 1e-6
        and abs(sv2_g2 - 2.0) <= 1e-6
        and abs(sv2_prior - 1.5) <= 1e-6
        and abs(sv1_g1 - 16.0) <= 1e-6
        and elapsed < 1.0
    )
    check(
        "criterion 1 (Stackelberg exactness)",
        ok,
        f"SV2(G1)={sv2_g1:.8f} SV2(G2)={sv2_g2:.8f} SV2(prior)={sv2_prior:.8f} "
        f"SV1(G1)={sv1_g1:.8f} in {elapsed:.2f}s",
    )


def test_criterion_2_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(987654321)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        u1, u2 = random_leader_follower_game(rng, k)
        g = game_matrix("oracle_suite", u1, u2)
        lp_value = stackelberg_value(g, 1).value
        oracle, _ = grid_stackelberg(g, 1, step=1e-4, tie_tol=1e-7)
        worst = max(worst, abs(lp_value - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and elapsed < 30.0
    check(
        "criterion 2 (solver vs grid oracle, 200 games)",
        ok,
        f"max |LP - grid| = {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_leader_vs_bandit_convergence(leader_pair_run):
    report, elapsed = leader_pair_run
    cond_u1_g1 = report.per_game[0]["mean_u1"]
    tail_c = report.tail["player2"][0]
    ok = cond_u1_g1 >= 15.5 and tail_c >= 0.95 and elapsed < 120.0
    check(
        "criterion 3 (leader vs bandit learner at T=1e5)",
        ok,
        f"U1|G1={cond_u1_g1:.4f} (>=15.5), tail mass on C={tail_c:.4f} (>=0.95), "
        f"32 trials in {elapsed:.1f}s",
    )


def test_criterion_4_swap_regret_decay():
    cfg = load_cfg("swap_decay.json")
    (report, elapsed) = timed(estimate, cfg, threads=1)
    g = cfg.prior.games[0]
    lo, hi = g.payoff_range(1)
    payoff_range = hi - lo
    n = g.n1
    avgs = []
    bounds = []
    ok = True
    for row in report.checkpoint_curves:
        t = row["t"]
        avg = row["swap_regret1"] / t
        bound = 3.0 * payoff_range * math.sqrt(n * math.log(n) / t)
        avgs.append(avg)
        bounds.append(bound)
        ok = ok and avg <= bound
    ok = ok and all(a > b for a, b in zip(avgs, avgs[1:])) and elapsed < 60.0
    detail = ", ".join(
        f"T={int(r['t'])}: {a:.4f}<={b:.3f}" for r, a, b in zip(report.checkpoint_curves, avgs, bounds)
    )
    check("criterion 4 (swap-regret decay)", ok, f"{detail}; in {elapsed:.1f}s")


def test_criterion_5_counterexample_mechanism(reveal_run, reveal_audit):
    report, t_est = reveal_run
    audit, t_aud = reveal_audit
    u2 = report.prior_weighted_u2
    row = next(
        r for r in audit.deviations if r["player"] == 1 and r["name"] == "mimic:G1"
    )
    ok = (
        abs(u2 - 1.5) <= 0.05
        and audit.verdict == "fail"
        and (1, "mimic:G1") in audit.failing
        and abs(row["gain"] - 0.45) <= 0.05
        and t_est + t_aud < 120.0
    )
    check(
        "criterion 5 (benchmark reached, then broken by the mimic deviation)",
        ok,
        f"U2={u2:.4f} (1.5+-0.05), verdict={audit.verdict}, "
        f"mimic:G1 gain={row['gain']:.4f} (0.45+-0.05), in {t_est + t_aud:.1f}s",
    )


def test_criterion_6_claims_verifier(reveal_cfg, leader_pair_cfg):
    claims_neg, t_neg = timed(verify_claims, reveal_cfg, p_star=0.0, tol=0.05, threads=THREADS)
    claims_pos, t_pos = timed(verify_claims, leader_pair_cfg, p_star=0.0, tol=0.05, threads=THREADS)
    gamma = claims_neg.gamma
    ok_neg = (
        claims_neg.csp1_bd <= gamma / 8 + 0.05
        and claims_neg.csp1_ad <= gamma / 8 + 0.05
        and claims_neg.csp2_bd >= 0.95
        and claims_neg.benchmark_achieved
        and claims_neg.contradiction
    )
    ok_pos = (
        claims_pos.csp2_bd <= 0.05
        and claims_pos.csp1_bd <= 0.05
        and claims_pos.csp1_ad <= 0.05
        and claims_pos.u2 < 1.5 - 0.1
        and not claims_pos.contradiction
    )
    check(
        "criterion 6 (claims verifier coherence)",
        ok_neg and ok_pos,
        f"scripted pair: csp1_BD={claims_neg.csp1_bd:.4f} csp1_AD={claims_neg.csp1_ad:.4f} "
        f"csp2_BD={claims_neg.csp2_bd:.4f} contradiction={claims_neg.contradiction}; "
        f"equilibrium pair: csp2_BD={claims_pos.csp2_bd:.4f} U2={claims_pos.u2:.4f} "
        f"contradiction={claims_pos.contradiction}; in {t_neg + t_pos:.1f}s",
    )


def test_criterion_7_positive_audit(leader_pair_audit):
    audit, elapsed = leader_pair_audit
    worst = max(r["lower_bound"] for r in audit.deviations)
    ok = audit.verdict == "pass" and elapsed < 600.0
    check(
        "criterion 7 (equilibrium pair passes the full-library audit)",
        ok,
        f"verdict={audit.verdict}, max gain lower bound={worst:.4f} (eps=0.5), "
        f"{len(audit.deviations)} deviations in {elapsed:.1f}s",
    )


def test_criterion_8_revelation_analysis(example41_prior, fig1_prior):
    t0 = time.perf_counter()
    p2 = revelation_analysis(example41_prior, 2)
    p1 = revelation_analysis(example41_prior, 1)
    f1 = revelation_analysis(fig1_prior, 1)
    elapsed = time.perf_counter() - t0
    by_label = {a["label"]: a for a in p2.actions}
    fig_labels = {a["label"]: a for a in f1.actions}
    ok = (
        by_label["C"]["revealing"]
        and by_label["C"]["ranges"] == [[1.0, 2.0], [3.0, 7.0]]
        and not p1.any_revealing
        and fig_labels["A"]["revealing"]
        and elapsed < 1.0
    )
    check(
        "criterion 8 (revelation analysis)",
        ok,
        f"example41: C revealing={by_label['C']['revealing']}, P1 none={not p1.any_revealing}; "
        f"two-game family: A revealing={fig_labels['A']['revealing']}; in {elapsed:.2f}s",
    )


def test_criterion_9_learning_meters():
    t0 = time.perf_counter()
    learn_cfg = load_cfg("example41_learn.json")
    trace = belief_trace(learn_cfg, "utility_likelihood", tau=0.05, player=2)
    errors_after_round_one = trace.errors[1:]

    ext_cfg = load_cfg("example41_external.json")
    report = estimate(ext_cfg, threads=THREADS)
    prior = ext_cfg.prior
    lo, hi = prior.payoff_range(2)
    slack = 0.1 * (hi - lo)
    margins = []
    ok_ext = True
    for i, g in enumerate(prior.games):
        target = stackelberg_value(g, 2).value - slack
        got = report.per_game[i]["mean_u2"]
        margins.append(f"U2|{g.name}={got:.4f}>={target:.2f}")
        ok_ext = ok_ext and got >= target
    elapsed = time.perf_counter() - t0
    ok = (
        all(e == 0.0 for e in errors_after_round_one)
        and trace.final_error == 0.0
        and ok_ext
        and elapsed < 120.0
    )
    check(
        "criterion 9 (learning meters)",
        ok,
        f"utility belief errors after round 1: {sorted(set(errors_after_round_one))}; "
        f"{'; '.join(margins)}; in {elapsed:.1f}s",
    )


def test_criterion_10_determinism(
    leader_pair_cfg, leader_pair_run, reveal_cfg, reveal_audit,
    leader_pair_audit_cfg, leader_pair_audit,
):
    other = 1 if THREADS > 1 else 2
    rerun_estimate = estimate(leader_pair_cfg, threads=other).to_dict()
    ok_est = rerun_estimate == leader_pair_run[0].to_dict()
    rerun_reveal = audit_pne(reveal_cfg, epsilon=0.1, threads=other).to_dict()
    ok_rev = rerun_reveal == reveal_audit[0].to_dict()
    rerun_audit = audit_pne(leader_pair_audit_cfg, epsilon=0.5, threads=other).to_dict()
    ok_aud = rerun_audit == leader_pair_audit[0].to_dict()
    check(
        "criterion 10 (bit-identical reports across reruns and pool sizes)",
        ok_est and ok_rev and ok_aud,
        f"estimate identical={ok_est}, counterexample audit identical={ok_rev}, "
        f"equilibrium audit identical={ok_aud} (threads {THREADS} vs {other})",
    )
