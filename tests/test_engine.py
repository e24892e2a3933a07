import math

import pytest

from conftest import THREADS
from stratlab.engine import (
    CSV_HEADER,
    ExperimentConfig,
    csv_rows,
    default_checkpoints,
    environment_draw,
    estimate,
    estimate_csps,
    run_summaries,
    with_spec,
    write_csv,
)
from stratlab.errors import InvalidArgumentError, ProtocolViolationError
from stratlab.games import SignalModel, builtin_prior, prior_from_games
from stratlab.learners import LearnerSpec


def constant_pair_cfg(prior, horizon=64, trials=8, seed=1, a1=0, a2=0, **kw):
    return ExperimentConfig(
        prior=prior,
        signal_model=kw.pop("signal_model", SignalModel(1.0, 1.0)),
        spec1=LearnerSpec("constant_action", {"action": a1}),
        spec2=LearnerSpec("constant_action", {"action": a2}),
        horizon=horizon,
        trials=trials,
        master_seed=seed,
        **kw,
    )


def test_default_checkpoints():
    assert default_checkpoints(1) == (1,)
    assert default_checkpoints(10) == (1, 2, 4, 8, 10)
    assert default_checkpoints(16) == (1, 2, 4, 8, 16)


def test_config_validation(fig1_prior):
    with pytest.raises(InvalidArgumentError):
        constant_pair_cfg(fig1_prior, horizon=0)
    with pytest.raises(InvalidArgumentError):
        constant_pair_cfg(fig1_prior, checkpoints=(0, 5))
    with pytest.raises(InvalidArgumentError):
        constant_pair_cfg(fig1_prior, checkpoints=(128,))
    with pytest.raises(InvalidArgumentError):
        constant_pair_cfg(fig1_prior, feedback_mode="partial")


def test_constant_pair_trajectory(fig1_prior):
    cfg = constant_pair_cfg(fig1_prior, horizon=16)
    assert all(s.csp_mass == ((1.0, 0.0), (0.0, 0.0)) for s in run_summaries(cfg))


def test_perfect_signals_match_realized(fig1_prior):
    cfg = constant_pair_cfg(fig1_prior, trials=64)
    for k in range(64):
        realized, s1, s2 = environment_draw(cfg, k)
        assert s1 == realized
        assert s2 == realized


def test_single_game_constant_pair_exact(fig1_g1):
    prior = prior_from_games([fig1_g1])
    cfg = constant_pair_cfg(prior, trials=4)
    rep = estimate(cfg)
    assert rep.mean_u1 == 16.0
    assert rep.mean_u2 == 1.0
    assert rep.ci_u1 == 0.0
    assert rep.prior_weighted_u1 == 16.0


def test_uniform_prior_constant_pair(fig1_prior):
    rep = estimate(constant_pair_cfg(fig1_prior, trials=32))
    assert rep.prior_weighted_u1 == pytest.approx(8.5)  # (16 + 1) / 2
    assert rep.prior_weighted_u2 == pytest.approx(1.0)
    assert abs(rep.mean_u1 - 8.5) <= 7.5  # raw mean moves with the realized split


def test_reveal_follow_closed_form(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("infer_then_commit_follower"),
        horizon=1000,
        trials=16,
        master_seed=3,
    )
    rep = estimate(cfg)
    # Steady states (A,C) under the first game and (B,D) under the second,
    # with an O(1/T) correction from the two scripted opening rounds.
    assert rep.prior_weighted_u2 == pytest.approx(1.5 - 18.0 / 1000, abs=1e-9)
    assert rep.prior_weighted_u1 == pytest.approx(8.05 + 0.35 / 1000, abs=1e-9)
    assert rep.per_game[0]["mean_u1"] == pytest.approx(16.0)
    assert rep.per_game[1]["mean_u2"] == pytest.approx(2.0 - 36.0 / 1000)


def test_determinism_and_parallel_soundness(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("stackelberg_leader"),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=256,
        trials=8,
        master_seed=17,
    )
    a = estimate(cfg, threads=1).to_dict()
    b = estimate(cfg, threads=1).to_dict()
    c = estimate(cfg, threads=max(2, THREADS)).to_dict()
    assert a == b
    assert a == c


def test_conditional_means_reproduce_unconditional(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("no_swap_regret_full"),
        horizon=128,
        trials=24,
        master_seed=23,
    )
    rep = estimate(cfg)
    for groups in (rep.per_game, rep.per_signal_pair):
        for player in (1, 2):
            total = sum(v["count"] * v[f"mean_u{player}"] for v in groups.values())
            mean = rep.mean_u1 if player == 1 else rep.mean_u2
            assert total / cfg.trials == pytest.approx(mean, abs=1e-9)


@pytest.mark.parametrize("p2", [0.0, 0.5, 0.9])
def test_signal_pair_frequencies(fig1_prior, p2):
    cfg = constant_pair_cfg(
        fig1_prior, trials=10_000, signal_model=SignalModel(1.0, p2), seed=31
    )
    counts = {}
    for k in range(cfg.trials):
        realized, s1, s2 = environment_draw(cfg, k)
        assert s1 == realized
        counts[(s1, s2)] = counts.get((s1, s2), 0) + 1
    n = cfg.trials
    for i in (0, 1):
        for j in (0, 1):
            target = 0.5 * (p2 * (1.0 if i == j else 0.0) + (1.0 - p2) * 0.5)
            sigma = math.sqrt(target * (1 - target) / n)
            assert abs(counts.get((i, j), 0) / n - target) <= 3 * sigma + 1e-12


def test_csv_output(fig1_prior, tmp_path):
    cfg = constant_pair_cfg(fig1_prior, horizon=8, trials=3)
    rep = estimate(cfg)
    rows = list(csv_rows(rep))
    assert len(rows) == 3 * len(cfg.checkpoints)
    path = tmp_path / "out.csv"
    write_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "1"
    assert len(first) == len(CSV_HEADER.split(","))


def test_csp_point_mass_per_bucket(fig1_prior):
    cfg = constant_pair_cfg(
        fig1_prior, trials=32, signal_model=SignalModel(1.0, 0.5), seed=5
    )
    rep = estimate_csps(cfg)
    for key, csp in rep.by_pair.items():
        assert csp.mass[0][0] == pytest.approx(1.0)
    for i, csp in rep.by_game.items():
        assert csp is not None
        assert csp.mass[0][0] == pytest.approx(1.0)


def test_csp_mixture_identity(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("no_swap_regret_full"),
        horizon=64,
        trials=32,
        master_seed=29,
    )
    rep = estimate_csps(cfg)
    p2 = 0.5
    for i in (0, 1):
        mix = rep.by_game[i]
        weights = [p2 * (1.0 if i == j else 0.0) + (1 - p2) * 0.5 for j in (0, 1)]
        for a in (0, 1):
            for b in (0, 1):
                expect = sum(
                    w * rep.by_pair[(i, j)].mass[a][b] for j, w in enumerate(weights)
                )
                assert mix.mass[a][b] == pytest.approx(expect, abs=1e-12)


def test_csp_mimic_leader_buckets_match(fig1_prior):
    # Signal-forcing the leader of a deterministic scripted pair makes every
    # (realized, s2) bucket produce the identical trajectory.
    base = LearnerSpec("reveal_then_follow_leader")
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("mimic_deviation", {"base": base, "signal": 0}),
        spec2=LearnerSpec("infer_then_commit_follower"),
        horizon=32,
        trials=32,
        master_seed=37,
    )
    rep = estimate_csps(cfg)
    masses = {k: v.mass for k, v in rep.by_pair.items()}
    for j in (0, 1):
        if (0, j) in masses and (1, j) in masses:
            assert masses[(0, j)] == masses[(1, j)]


def test_csp_empty_bucket_absent():
    prior = prior_from_games(builtin_prior("fig1:gamma=1").games, [1.0, 0.0])
    cfg = constant_pair_cfg(prior, trials=8, signal_model=SignalModel(1.0, 0.0))
    rep = estimate_csps(cfg)
    assert (1, 0) not in rep.by_pair
    assert rep.by_game[1] is None  # ingredient bucket missing, not fabricated
    assert rep.by_game[0] is not None


def test_pure_realization_mode(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 1.0),
        spec1=LearnerSpec("multiplicative_weights"),
        spec2=LearnerSpec("multiplicative_weights"),
        horizon=40,
        trials=2,
        pure_realization=True,
        master_seed=41,
        tail_window=40,
    )
    summaries = run_summaries(cfg)
    # Every round is one-hot: each puts mass 1 >= tail_threshold on one action.
    for s in summaries:
        assert sum(s.tail_counts1) == sum(s.tail_counts2) == cfg.horizon
    # determinism of the sampled path
    assert run_summaries(cfg) == summaries


def test_feedback_mode_mismatch_propagates(fig1_prior):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 1.0),
        spec1=LearnerSpec("best_responder"),
        spec2=LearnerSpec("constant_action", {"action": 0}),
        horizon=4,
        trials=1,
        feedback_mode="bandit",
        master_seed=2,
    )
    with pytest.raises(ProtocolViolationError):
        run_summaries(cfg)


def test_tail_fractions_constant_pair(fig1_prior):
    cfg = constant_pair_cfg(fig1_prior, horizon=100, trials=4, tail_window=50)
    rep = estimate(cfg)
    assert rep.tail["player1"] == [1.0, 0.0]
    assert rep.tail["player2"] == [1.0, 0.0]
    assert rep.tail["window"] == 50


def test_with_spec_replaces_one_side(fig1_prior):
    cfg = constant_pair_cfg(fig1_prior)
    new = with_spec(cfg, 2, LearnerSpec("best_responder"))
    assert new.spec1 == cfg.spec1
    assert new.spec2.kind == "best_responder"
    assert new.master_seed == cfg.master_seed


def test_leader_vs_learner_csps_concentrate(fig1_prior):
    # Both per-game CSPs concentrate on (A,C): the leader commits to the
    # first row under either signal in this family, and the learner's reply
    # converges to the first column.
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("stackelberg_leader"),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=20_000,
        trials=16,
        master_seed=103,
    )
    rep = estimate_csps(cfg)
    for i in (0, 1):
        assert rep.by_game[i] is not None
        assert rep.by_game[i].mass[0][0] >= 0.95
