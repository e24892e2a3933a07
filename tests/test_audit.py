import json
import math
import multiprocessing
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from stratlab import engine
from stratlab.audit import (
    _run_with_deviations,
    audit_pne,
    belief_trace,
    default_library,
    paired_gain,
    revelation_analysis,
    verify_claims,
)
from stratlab.engine import (
    ExperimentConfig,
    environment_draw,
    mean_ci,
    run_summaries,
    summarize,
    with_spec,
)
from stratlab.errors import InvalidArgumentError
from stratlab.games import (
    SignalModel,
    builtin_prior,
    game_matrix,
    prior_from_games,
)
from stratlab.learners import LearnerSpec


def reveal_cfg(fig1_prior, horizon=2000, trials=16, seed=43):
    return ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("infer_then_commit_follower"),
        horizon=horizon,
        trials=trials,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# audit_pne
# ---------------------------------------------------------------------------


def test_default_library_contents(fig1_prior):
    cfg = reveal_cfg(fig1_prior)
    lib = default_library(cfg)
    names1 = [n for n, _ in lib[1]]
    names2 = [n for n, _ in lib[2]]
    assert names1 == [
        "constant:A", "constant:B", "best_responder", "stackelberg_leader",
        "mimic:G1", "mimic:G2",
    ]
    assert names2[-1] == "infer_then_commit"
    assert "constant:C" in names2
    # mimic deviations wrap the audited player's own algorithm
    mimic = dict(lib[1])["mimic:G1"]
    assert mimic.params["base"] == cfg.spec1


def test_default_library_builds_legal_configs():
    # default_library's promise: in every feedback mode in which a shipped
    # pair is legal, each of its deviations makes a legal config too.
    legal = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        for mode in ("full", "bandit"):
            try:
                cfg = shipped_cfg(path.name, 20, 2, feedback_mode=mode)
            except InvalidArgumentError:
                continue
            legal.append((path.stem, mode))
            lib = default_library(cfg)
            for player in (1, 2):
                for _, spec in lib[player]:
                    with_spec(cfg, player, spec)
    assert {stem for stem, mode in legal if mode == "full"} == {
        path.stem for path in CONFIG_DIR.glob("*.json")
    }
    assert ("leader_vs_learner_audit", "bandit") in legal


def test_null_deviation_gain_is_zero(fig1_prior):
    cfg = reveal_cfg(fig1_prior, horizon=200, trials=8)
    base = run_summaries(cfg)
    dev = run_summaries(with_spec(cfg, 2, cfg.spec2))
    gain, ci = paired_gain(cfg.prior, base, dev, 2)
    assert gain == 0.0
    assert ci == 0.0


def test_paired_gain_falls_back_to_the_raw_mean_when_a_game_never_realized(fig1_prior):
    cfg = reveal_cfg(fig1_prior, horizon=20, trials=4)
    base = [replace(s, realized=0, avg_u1=0.0) for s in run_summaries(cfg)]
    dev = [replace(s, avg_u1=float(k)) for k, s in enumerate(base)]
    assert paired_gain(cfg.prior, base, dev, 1) == mean_ci([0.0, 1.0, 2.0, 3.0])


def test_stage_equilibrium_constant_pair_passes(fig1_g1):
    prior = prior_from_games([fig1_g1])
    cfg = ExperimentConfig(
        prior=prior,
        signal_model=SignalModel(1.0, 1.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=200,
        trials=4,
        master_seed=47,
    )
    report = audit_pne(cfg, epsilon=0.01)
    assert report.verdict == "pass"
    assert report.failure is None
    # (A,C) is a stage PNE: every deviation gain is non-positive.
    assert all(row["gain"] <= 1e-9 for row in report.deviations)


def test_reveal_follow_fails_with_mimic_gain(fig1_prior):
    cfg = reveal_cfg(fig1_prior)
    report = audit_pne(cfg, epsilon=0.1)
    assert report.verdict == "fail"
    assert report.failure == (1, "mimic:G1")
    assert (1, "mimic:G1") in report.failing
    row = next(r for r in report.deviations if r["player"] == 1 and r["name"] == "mimic:G1")
    assert row["gain"] == pytest.approx(0.45, abs=0.05)
    assert row["lower_bound"] > 0.1
    # no player-2 deviation is profitable for this pair
    assert all(r["lower_bound"] <= 0.1 for r in report.deviations if r["player"] == 2)


def test_audit_epsilon_validation(fig1_prior):
    with pytest.raises(InvalidArgumentError):
        audit_pne(reveal_cfg(fig1_prior, horizon=8, trials=2), epsilon=0.0)


def test_common_random_numbers_reduce_ci(fig1_prior):
    # Variance-reduction sanity over 20 paired re-runs: the paired CI is never
    # wider (on average) than the independent-seed CI.
    z = 1.959963984540054
    paired_widths = []
    indep_widths = []
    for r in range(20):
        cfg = reveal_cfg(fig1_prior, horizon=50, trials=16, seed=100 + r)
        dev_spec = LearnerSpec("constant_action", {"action": 0})
        base = run_summaries(cfg)
        dev_common = run_summaries(with_spec(cfg, 1, dev_spec))
        _, ci = paired_gain(cfg.prior, base, dev_common, 1)
        if ci is None:  # a realized-game group with a single trial
            continue
        paired_widths.append(2 * ci)

        indep_cfg = with_spec(cfg, 1, dev_spec)
        indep_cfg = ExperimentConfig(
            **{**indep_cfg.__dict__, "master_seed": 5000 + r, "checkpoints": ()}
        )
        dev_indep = run_summaries(indep_cfg)
        b = [s.avg_u1 for s in base]
        d = [s.avg_u1 for s in dev_indep]

        def var(v):
            m = sum(v) / len(v)
            return sum((x - m) ** 2 for x in v) / (len(v) - 1)

        indep_widths.append(2 * z * math.sqrt(var(b) / len(b) + var(d) / len(d)))
    assert len(paired_widths) >= 15
    n = len(paired_widths)
    assert sum(paired_widths) / n <= sum(indep_widths) / n + 1e-9


# ---------------------------------------------------------------------------
# Trials that repeat an identical trial are simulated once
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped_cfg(name, horizon, trials, **fields):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(horizon=horizon, trials=trials, **fields)
    raw.pop("checkpoints", None)
    return ExperimentConfig.from_dict(raw)


def simulate_each(cfg):
    """Every trial of cfg simulated on its own, with no sharing."""
    return [engine._simulate(cfg, k) for k in range(cfg.trials)]


def direct_rows(cfg, lib):
    """Audit rows from one full rerun per deviation, one trial at a time."""
    base = simulate_each(cfg)
    rows = []
    for player in (1, 2):
        for name, spec in lib[player]:
            dev = simulate_each(with_spec(cfg, player, spec))
            gain, ci = paired_gain(cfg.prior, base, dev, player)
            lower = gain - ci if ci is not None else gain
            rows.append(
                {"player": player, "name": name, "gain": gain, "ci95": ci, "lower_bound": lower}
            )
    return base, rows


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "name, horizon, trials, reused",
    [
        # 54 of 112 simulated: the 8 baseline trials; 32 for player 1's
        # deviations against the bandit (stackelberg_leader, and each mimic
        # where it forces the true game, copy the baseline); 14 for player
        # 2's deterministic deviations against the committed leader, one per
        # distinct realized game and signals. Player 2's mimics copy the
        # baseline: the bandit ignores its signal.
        ("leader_vs_learner_audit.json", 500, 8, 58),
        # 24 of 448 simulated: every pair here is deterministic, so each
        # run needs one trial per distinct (realized game, effective signals).
        ("reveal_follow.json", 200, 32, 424),
    ],
)
def test_audit_replay_matches_direct_reruns(name, horizon, trials, reused, threads):
    cfg = shipped_cfg(name, horizon, trials)
    report = audit_pne(cfg, epsilon=0.5, threads=threads)
    base, rows = direct_rows(cfg, default_library(cfg))
    assert report.deviations == rows
    assert report.baseline.to_dict() == summarize(cfg, base).to_dict()
    assert report.trials_reused == reused
    assert report.trials_simulated == trials * (1 + len(rows)) - reused


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_simulations_match_per_job_runs(threads):
    # Every shipped config at reduced size, with the audit's job list: the
    # baseline and every default-library deviation.
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = shipped_cfg(path.name, 40, 6)
        lib = default_library(cfg)
        cfgs = [cfg] + [
            with_spec(cfg, player, spec) for player in (1, 2) for _, spec in lib[player]
        ]
        jobs = [(c, k) for c in cfgs for k in range(cfg.trials)]
        shared = run_summaries(cfg, threads, jobs=jobs)
        # Equality covers each job's own trial_index, s1 and s2.
        assert shared == [engine._simulate(c, k) for c, k in jobs], path.name
        assert 0 < sum(s.reused for s in shared) < len(jobs)


def test_changed_deviations_are_simulated_fresh():
    cfg = shipped_cfg("leader_vs_learner_audit.json", 300, 8)
    base = simulate_each(cfg)
    other_b = LearnerSpec("stackelberg_leader", {"b": 0.5})
    shared, (dev,), simulated, reused = _run_with_deviations(cfg, [(1, other_b)], 1)
    assert (simulated, reused) == (16, 0)
    assert (shared, dev) == (base, simulate_each(with_spec(cfg, 1, other_b)))

    # The leader reads its signal (p1 = 1: the true game), so a mimic forcing
    # game 1 is simulated exactly where the true game is game 2.
    mimic = LearnerSpec("mimic_deviation", {"base": cfg.spec1, "signal": 0})
    differ = sum(1 for k in range(cfg.trials) if environment_draw(cfg, k)[1] != 0)
    assert 0 < differ < cfg.trials
    shared, (dev,), simulated, reused = _run_with_deviations(cfg, [(1, mimic)], 1)
    assert (simulated, reused) == (cfg.trials + differ, cfg.trials - differ)
    assert (shared, dev) == (base, simulate_each(with_spec(cfg, 1, mimic)))


def test_one_worker_pool_per_audit_and_claims(fig1_prior, monkeypatch):
    pools = []

    def get_context(method):
        ctx = multiprocessing.get_context(method)

        def pool(*args, **kwargs):
            pools.append(args)
            return ctx.Pool(*args, **kwargs)

        return SimpleNamespace(Pool=pool)

    monkeypatch.setattr(engine, "multiprocessing", SimpleNamespace(get_context=get_context))
    cfg = reveal_cfg(fig1_prior, horizon=50, trials=8)
    audit_pne(cfg, epsilon=0.1, threads=2)
    assert len(pools) == 1
    claims = verify_claims(cfg, p_star=0.0, threads=2)
    assert len(pools) == 2
    assert claims.trials_simulated + claims.trials_reused == 2 * cfg.trials


# ---------------------------------------------------------------------------
# Claims verifier
# ---------------------------------------------------------------------------


def test_claims_on_scripted_counterexample(fig1_prior):
    cfg = reveal_cfg(fig1_prior)
    report = verify_claims(cfg, p_star=0.0, tol=0.05)
    assert report.gamma == 1.0
    assert report.benchmark_value == pytest.approx(1.5, abs=1e-9)
    assert report.u2 == pytest.approx(1.5 - 18.0 / cfg.horizon, abs=1e-9)
    assert report.benchmark_achieved
    assert report.csp1_bd == pytest.approx(0.0, abs=1e-12)
    assert report.csp1_ad == pytest.approx(0.0, abs=1e-12)
    assert report.csp2_bd == pytest.approx(1.0 - 2.0 / cfg.horizon, abs=1e-9)
    assert report.check_csp1_bd and report.check_csp1_ad and report.check_csp2_bd
    assert report.mimic_gain == pytest.approx(0.45, abs=0.05)
    assert report.contradiction


def test_claims_constant_pair_no_contradiction(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=100,
        trials=16,
        master_seed=53,
    )
    report = verify_claims(cfg, p_star=0.0)
    assert report.csp2_bd == pytest.approx(0.0, abs=1e-12)
    assert report.u2 == pytest.approx(1.0)
    assert not report.benchmark_achieved
    assert not report.contradiction


def test_claims_prior_validation(example41_prior, fig1_prior):
    cfg = ExperimentConfig(
        prior=example41_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=10,
        trials=2,
        master_seed=1,
    )
    with pytest.raises(InvalidArgumentError):
        verify_claims(cfg, p_star=0.0)
    # p2 above the threshold is rejected too
    bad = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=10,
        trials=2,
        master_seed=1,
    )
    with pytest.raises(InvalidArgumentError):
        verify_claims(bad, p_star=0.0)


def test_claims_gamma_scaled_family():
    p_star = 0.5  # gamma = 1/3
    prior = builtin_prior("fig1:gamma=0.3333333333333333")
    # The scripted pair's opening-round losses scale with 32/gamma, so the
    # horizon must be long enough for the O(1/T) correction to clear tol.
    cfg = ExperimentConfig(
        prior=prior,
        signal_model=SignalModel(1.0, 0.4),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("infer_then_commit_follower"),
        horizon=4000,
        trials=16,
        master_seed=59,
    )
    report = verify_claims(cfg, p_star=p_star)
    assert report.gamma == pytest.approx(1.0 / 3.0)
    assert report.benchmark_achieved
    assert report.contradiction


# ---------------------------------------------------------------------------
# Revelation analysis
# ---------------------------------------------------------------------------


def test_revelation_example_family(example41_prior):
    rep2 = revelation_analysis(example41_prior, 2)
    by_label = {a["label"]: a for a in rep2.actions}
    assert by_label["C"]["revealing"]
    assert by_label["C"]["ranges"] == [[1.0, 2.0], [3.0, 7.0]]
    assert not by_label["D"]["revealing"]
    assert rep2.any_revealing

    rep1 = revelation_analysis(example41_prior, 1)
    assert not rep1.any_revealing  # identical row-player matrices


def test_revelation_two_game_family(fig1_prior):
    rep = revelation_analysis(fig1_prior, 1)
    by_label = {a["label"]: a for a in rep.actions}
    assert by_label["A"]["revealing"]
    assert by_label["A"]["ranges"] == [[16.0, 16.0], [0.0, 1.0]]


def test_revelation_requires_support(fig1_g1):
    with pytest.raises(InvalidArgumentError):
        revelation_analysis(prior_from_games([fig1_g1]), 1)


def test_revelation_invariant_to_other_player_offsets(example41_prior):
    games = []
    for i, g in enumerate(example41_prior.games):
        u1 = [[v + 100.0 * i for v in row] for row in g.u1]  # shift P1 payoffs only
        games.append(game_matrix(g.name, u1, [list(r) for r in g.u2]))
    shifted = prior_from_games(games)
    assert revelation_analysis(shifted, 2).to_dict() == revelation_analysis(
        example41_prior, 2
    ).to_dict()
    assert revelation_analysis(shifted, 1).any_revealing  # P1's own shift does matter


# ---------------------------------------------------------------------------
# Belief meters
# ---------------------------------------------------------------------------


def distinct_reply_prior():
    # Leader-led follower replies differ across the support (C vs D), so the
    # average-strategy classifier can separate the games.
    ga = game_matrix("column_likes_c", [[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]])
    gb = game_matrix("column_likes_d", [[2.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    return prior_from_games([ga, gb])


def test_nearest_best_response_belief_converges():
    cfg = ExperimentConfig(
        prior=distinct_reply_prior(),
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("stackelberg_leader"),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=2048,
        trials=16,
        master_seed=61,
    )
    rep = belief_trace(cfg, "nearest_best_response", tau=0.05, player=2)
    assert rep.final_error <= 0.05
    assert rep.success
    assert rep.errors[-1] <= rep.errors[0] + 1e-9


def test_utility_likelihood_belief_example_family(example41_prior):
    cfg = ExperimentConfig(
        prior=example41_prior,
        signal_model=SignalModel(0.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),  # plays C round 1
        horizon=64,
        trials=32,
        master_seed=67,
    )
    rep = belief_trace(cfg, "utility_likelihood", tau=0.05, player=2)
    # Checkpoint 1 is the prior mode; from round 2 the ranges separate exactly.
    assert rep.checkpoints[0] == 1
    assert all(e == 0.0 for e in rep.errors[1:])
    assert rep.final_error == 0.0
    assert rep.success


def test_last_side_signal_belief(fig1_prior):
    # Per-round signal accuracy is 1 - 1/t, so the last-signal belief errs
    # with probability 1/t; at T >= 100 it clears tau = 0.01.
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(0.0, 0.0),
        spec1=LearnerSpec("no_swap_regret_full"),
        spec2=LearnerSpec("external_signal_leader"),
        horizon=1024,
        trials=32,
        master_seed=71,
    )
    rep = belief_trace(cfg, "last_side_signal", tau=0.01, player=2)
    assert rep.errors[0] >= 0.3  # accuracy 0 at round 1: signal is a prior draw
    assert rep.errors[-1] <= rep.errors[0]
    assert rep.final_error <= 0.01
    assert rep.success


def test_belief_trace_validation(fig1_prior, example41_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=8,
        trials=2,
        master_seed=1,
    )
    with pytest.raises(InvalidArgumentError):
        belief_trace(cfg, "bayes", tau=0.1)
    with pytest.raises(InvalidArgumentError):
        belief_trace(cfg, "last_side_signal", tau=0.1, player=2)
    three = prior_from_games(list(fig1_prior.games) + [fig1_prior.games[0]], [0.4, 0.4, 0.2])
    cfg3 = ExperimentConfig(
        prior=three,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=8,
        trials=2,
        master_seed=1,
    )
    with pytest.raises(InvalidArgumentError):
        belief_trace(cfg3, "nearest_best_response", tau=0.1)
