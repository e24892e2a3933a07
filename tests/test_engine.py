import json
import math
import multiprocessing
import random
import re
from dataclasses import astuple, fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import THREADS
from stratlab import engine, learners
from stratlab.engine import (
    CSV_HEADER,
    BeliefProbe,
    ExperimentConfig,
    csv_rows,
    default_checkpoints,
    environment_draw,
    estimate,
    estimate_csps,
    mean_ci,
    run_summaries,
    stratified_mean_ci,
    trial_key,
    with_spec,
    write_csv,
)
from stratlab.cli import load_config, main
from stratlab.errors import InvalidArgumentError
from stratlab.games import SignalModel, builtin_prior, game_matrix, prior_from_games
from stratlab.learners import LearnerSpec, regrets_from_mass


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
    with pytest.raises(InvalidArgumentError, match="checkpoint must be an integer"):
        constant_pair_cfg(fig1_prior, checkpoints=(2.7, 10))


ROOT = Path(__file__).resolve().parent.parent


def shipped_configs():
    """(name, JSON object) of every config in configs/ and of the README's
    example config."""
    out = [(path.stem, json.loads(path.read_text())) for path in sorted(ROOT.glob("configs/*.json"))]
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Experiment configuration\s+```json\n(.*?)```", readme, re.S)
    return out + [("README", json.loads(example.group(1)))]


SHIPPED = shipped_configs()


@pytest.mark.parametrize("raw", [raw for _, raw in SHIPPED], ids=[name for name, _ in SHIPPED])
def test_config_json_round_trip(raw):
    cfg = ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_mimic_config_json_round_trip(fig1_prior):
    # A mimic's base is parsed into a LearnerSpec once, and written back as
    # a JSON object.
    mimic = LearnerSpec("mimic_deviation", {"base": LearnerSpec("best_responder"), "signal": 1})
    cfg = ExperimentConfig(
        fig1_prior, SignalModel(1.0, 0.5), mimic, LearnerSpec("no_swap_regret_bandit"), horizon=10
    )
    d = json.loads(json.dumps(cfg.to_dict()))
    assert d["spec1"]["params"]["base"] == {"kind": "best_responder", "params": {}}
    assert ExperimentConfig.from_dict(d) == cfg
    parsed = LearnerSpec("mimic_deviation", {"base": {"kind": "best_responder"}, "signal": 1})
    assert parsed == mimic and isinstance(parsed.params["base"], LearnerSpec)


@pytest.mark.parametrize(
    "name, value",
    [
        ("horizon", True),
        ("horizon", 2.5),
        ("trials", 2.5),
        ("master_seed", 1.0),
        ("tail_window", None),
        ("pure_realization", 0),
        ("tail_threshold", "0.9"),
    ],
)
def test_config_field_types_are_checked_in_code(fig1_prior, name, value):
    # A config built in code checks the same types as one read from JSON.
    with pytest.raises(InvalidArgumentError, match=f"config key '{name}' must be "):
        replace(constant_pair_cfg(fig1_prior), **{name: value})


def test_signal_model_checks_its_types():
    with pytest.raises(InvalidArgumentError, match="config key 'signal_model.p2' must be "):
        SignalModel(1.0, True)
    assert SignalModel(1, 0) == SignalModel(1.0, 0.0)


@pytest.mark.parametrize(
    "spec1, spec2",
    [
        (LearnerSpec("constant_action", {"action": 0}), LearnerSpec("no_swap_regret_bandit", {"eta": -1})),
        (LearnerSpec("constant_action", {"action": 7}), LearnerSpec("constant_action", {"action": 0})),
        (LearnerSpec("constant_action"), LearnerSpec("constant_action", {"action": 0})),
        (LearnerSpec("constant_action", {"action": 0}), LearnerSpec("reveal_then_follow_leader")),
    ],
)
def test_config_checks_each_learners_own_params(monkeypatch, fig1_prior, spec1, spec2):
    # A learner's own checks (param ranges, required params, role) run when
    # the config is built, never first in a trial that may run in a worker.
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(fig1_prior, SignalModel(1.0, 0.0), spec1, spec2, horizon=4, trials=1)
    # So an audit of such a config stops before it simulates any trial.
    def no_trial(*args):
        raise AssertionError("a trial was simulated")

    monkeypatch.setattr(engine, "_simulate", no_trial)
    overrides = []
    for player, spec in ((1, spec1), (2, spec2)):
        overrides += ["--set", f"spec{player}=" + json.dumps(spec.to_dict())]
    code = main(["audit", "--config", str(ROOT / "configs" / "example41_learn.json"),
                 "--trials", "2", "--horizon", "4", *overrides])
    assert code == 1


def test_trial_key_covers_every_config_field(fig1_prior):
    # Every field but the specs, the signal model, the seed and trials enters
    # the key as it is, so a field added later keys the trials by default;
    # specs enter resolved, the signal model through the draw, and the seed
    # when a learner draws from its stream (the bandit here).
    cfg = ExperimentConfig(
        fig1_prior, SignalModel(1.0, 0.0), LearnerSpec("stackelberg_leader"),
        LearnerSpec("no_swap_regret_bandit"), horizon=64, trials=2, checkpoints=(8, 16),
    )
    changed = {
        "prior": builtin_prior("fig1:gamma=0.5"),
        "spec1": LearnerSpec("stackelberg_leader", {"b": 0.5}),
        "spec2": LearnerSpec("bandit_exp3"),
        "horizon": 32,
        "feedback_mode": "bandit",
        "pure_realization": True,
        "master_seed": 1,
        "checkpoints": (8, 64),
        "tail_window": 16,
        "tail_threshold": 0.95,
    }
    assert {*changed, "signal_model", "trials"} == {f.name for f in fields(ExperimentConfig)}
    draw = environment_draw(cfg, 0)
    key = trial_key(cfg, 0, draw)
    for name, value in changed.items():
        assert trial_key(replace(cfg, **{name: value}), 0, draw) != key, name
    assert trial_key(replace(cfg, trials=5), 0, draw) == key


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


def test_a_weight_just_below_zero_is_a_zero_weight(example41_prior):
    # Prior accepts a weight within PROB_TOL below 0; it must leave the game
    # out of the stratified estimate as a weight of 0 does, not null it.
    games = example41_prior.games
    zero, below = (prior_from_games(games, [1.0, w]) for w in (0.0, -1e-10))
    assert below.weights == (1.0, 0.0)
    reports = [estimate(constant_pair_cfg(prior, trials=8)).to_dict() for prior in (zero, below)]
    assert reports[0] == reports[1]
    assert reports[0]["u1"]["prior_weighted"] is not None


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
    rep = estimate_csps(cfg, run_summaries(cfg))
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
    rep = estimate_csps(cfg, run_summaries(cfg))
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
                se = math.sqrt(
                    sum((w * rep.cell_se[(i, j)][a][b]) ** 2 for j, w in enumerate(weights))
                )
                assert rep.game_se[i][a][b] == pytest.approx(se, rel=1e-12, abs=1e-300)
    assert any(v > 0 for se in rep.game_se.values() for row in se for v in row)


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
    rep = estimate_csps(cfg, run_summaries(cfg))
    masses = {k: v.mass for k, v in rep.by_pair.items()}
    for j in (0, 1):
        if (0, j) in masses and (1, j) in masses:
            assert masses[(0, j)] == masses[(1, j)]


def test_csp_copies_of_one_trial_have_no_spread(fig1_prior):
    # A deterministic scripted pair whose trials depend only on the realized
    # game: every trial of a (realized, s2) bucket is a copy of one trial, so
    # the sample spread of each cell is zero up to rounding of the mean. A
    # one-pass sum-of-squares formula reports ~4e-9 on this config.
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("reveal_then_follow_leader"),
        spec2=LearnerSpec("infer_then_commit_follower"),
        horizon=2000,
        trials=32,
        master_seed=20260811,
    )
    summaries = run_summaries(cfg)
    rep = estimate_csps(cfg, summaries)
    for key in rep.by_pair:
        bucket = {s.csp_mass for s in summaries if (s.realized, s.s2) == key}
        assert len(bucket) == 1
    assert min(rep.counts.values()) >= 2
    for table in (rep.cell_se, rep.game_se):
        assert max(v for se in table.values() for row in se for v in row) <= 1e-15


def test_csp_one_trial_bucket_reports_zero_se(fig1_prior):
    cfg = constant_pair_cfg(fig1_prior, trials=1)
    rep = estimate_csps(cfg, run_summaries(cfg))
    assert list(rep.counts.values()) == [1]
    for se in rep.cell_se.values():
        assert se == ((0.0, 0.0), (0.0, 0.0))


def test_csp_empty_bucket_absent():
    prior = prior_from_games(builtin_prior("fig1:gamma=1").games, [1.0, 0.0])
    cfg = constant_pair_cfg(prior, trials=8, signal_model=SignalModel(1.0, 0.0))
    rep = estimate_csps(cfg, run_summaries(cfg))
    assert (1, 0) not in rep.by_pair
    assert rep.by_game[1] is None  # ingredient bucket missing, not fabricated
    assert rep.game_se[1] is None
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
    with pytest.raises(InvalidArgumentError, match="requires full-information feedback"):
        ExperimentConfig(
            prior=fig1_prior,
            signal_model=SignalModel(1.0, 1.0),
            spec1=LearnerSpec("best_responder"),
            spec2=LearnerSpec("constant_action", {"action": 0}),
            horizon=4,
            trials=1,
            feedback_mode="bandit",
            master_seed=2,
        )


def mimic(base, signal):
    return LearnerSpec("mimic_deviation", {"base": base, "signal": signal})


@pytest.mark.parametrize(
    "spec1, spec2, feedback_mode, match",
    [
        (LearnerSpec("stackelberg_leader"), LearnerSpec("best_responder"), "bandit", "spec2"),
        (mimic({"kind": "best_responder"}, 0), LearnerSpec("no_swap_regret_bandit"), "bandit",
         "spec1 \\(mimic_deviation\\) requires full-information"),
        (mimic(LearnerSpec("stackelberg_leader"), -1), LearnerSpec("best_responder"), "full",
         "spec1 forces signal -1"),
        (LearnerSpec("stackelberg_leader"), mimic(LearnerSpec("best_responder"), 2), "full",
         "spec2 forces signal 2"),
    ],
)
def test_config_rejects_illegal_specs(fig1_prior, spec1, spec2, feedback_mode, match):
    # Spec legality is decided when the config is built, mimics resolved:
    # a full-information learner under bandit feedback, or a forced signal
    # outside [0, support_size).
    with pytest.raises(InvalidArgumentError, match=match):
        ExperimentConfig(
            prior=fig1_prior,
            signal_model=SignalModel(1.0, 1.0),
            spec1=spec1,
            spec2=spec2,
            horizon=4,
            trials=1,
            feedback_mode=feedback_mode,
        )
    # With full feedback and an in-range signal, every spec above is legal.
    legal = [
        mimic(s.params["base"], 1) if s.kind == "mimic_deviation" else s for s in (spec1, spec2)
    ]
    ExperimentConfig(fig1_prior, SignalModel(1.0, 1.0), *legal, horizon=4, trials=1)


def side_signal_cfg(prior, horizon, trials, **kw):
    return ExperimentConfig(
        prior=prior,
        signal_model=SignalModel(0.0, 0.0),
        spec1=LearnerSpec("no_swap_regret_full"),
        spec2=LearnerSpec("external_signal_leader"),
        horizon=horizon,
        trials=trials,
        master_seed=5,
        **kw,
    )


def test_engine_calls_instance_act_and_observe_once_per_round(monkeypatch, example41_prior):
    # Tracing wraps act and observe on each instance that learner_init
    # returns; the engine must call those wrappers, once per round each.
    cfg = side_signal_cfg(example41_prior, horizon=30, trials=2)
    plain = run_summaries(cfg)
    tallies = []
    init = engine.learner_init

    def counting_init(*args):
        learner = init(*args)
        tally = {"act": 0, "observe": 0}
        tallies.append(tally)
        for name in tally:
            def counted(*a, _method=getattr(learner, name), _name=name):
                tally[_name] += 1
                return _method(*a)

            setattr(learner, name, counted)
        return learner

    monkeypatch.setattr(engine, "learner_init", counting_init)
    assert run_summaries(cfg) == plain
    assert tallies == [{"act": 30, "observe": 30}] * 4


def hexed(value):
    """value with every float spelled by float.hex, so == is bit-identity."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(hexed(v) for v in value)
    return value


def spy_on_act(monkeypatch, copy: bool) -> list:
    """Wrap each learner's act; returns the list that collects, per learner
    made, the objects it played. With copy, act returns a new equal tuple
    every round, so no round repeats the last round's pair of objects."""
    played = []
    init = engine.learner_init

    def spying_init(*args):
        learner = init(*args)
        act, seen = learner.act, []
        played.append(seen)

        def spied():
            s = tuple(list(act())) if copy else act()
            seen.append(s)
            return s

        learner.act = spied
        return learner

    monkeypatch.setattr(engine, "learner_init", spying_init)
    return played


def shipped(name, *overrides, horizon=600, trials=3):
    sizes = SimpleNamespace(set=list(overrides), seed=None, trials=trials, horizon=horizon)
    return load_config(str(ROOT / "configs" / f"{name}.json"), sizes)


@pytest.mark.parametrize(
    "name, overrides, probe",
    [
        # horizon < tail_window: every round is a tail round
        ("leader_vs_learner_audit", (), None),
        ("reveal_follow", (), None),
        # the tail starts mid-trial, while a pair repeats
        ("leader_vs_learner_audit", ("tail_window=250",), None),
        ("reveal_follow", ("tail_window=250",), None),
        ("leader_vs_learner_audit", (), BeliefProbe("utility_likelihood", 2)),
        ("leader_vs_learner_audit", ("feedback_mode=\"bandit\"",), None),
        ("leader_vs_learner_audit", ("pure_realization=true",), None),
        ("example41_external", ("tail_window=250",), None),
    ],
)
def test_replayed_rounds_match_rounds_computed_afresh(monkeypatch, name, overrides, probe):
    cfg = shipped(name, *overrides)
    played = spy_on_act(monkeypatch, copy=False)
    replayed = [engine._simulate(cfg, k, probe) for k in range(cfg.trials)]
    if not cfg.pure_realization and name != "example41_external":
        # Mostly repeated pairs, so the replay path runs.
        for xs, ys in zip(played[0::2], played[1::2]):
            repeats = sum(x0 is x1 and y0 is y1 for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
            assert repeats > cfg.horizon // 2
    spy_on_act(monkeypatch, copy=True)
    fresh = [engine._simulate(cfg, k, probe) for k in range(cfg.trials)]
    assert [hexed(astuple(s)) for s in replayed] == [hexed(astuple(s)) for s in fresh]


def test_pure_realization_replay_matches_the_realized_path(monkeypatch, fig1_prior):
    # Realized one-hots are the engine's own objects, so a wrapped act cannot
    # force every round afresh: check the summary against the drawn actions.
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 1.0),
        spec1=LearnerSpec("multiplicative_weights"),
        spec2=LearnerSpec("no_swap_regret_full"),
        horizon=400,
        trials=1,
        pure_realization=True,
        master_seed=41,
        tail_window=150,
        checkpoints=(100, 400),
    )
    drawn = []
    sample = engine.sample_index
    monkeypatch.setattr(engine, "sample_index", lambda p, rng: drawn.append(sample(p, rng)) or drawn[-1])
    s = engine._simulate(cfg, 0)
    pairs = list(zip(drawn[0::2], drawn[1::2]))
    assert len(pairs) == cfg.horizon
    assert sum(p == q for p, q in zip(pairs, pairs[1:])) > cfg.horizon // 2
    g = fig1_prior.games[s.realized]
    mass = [[0.0] * g.n2 for _ in range(g.n1)]
    cum1 = cum2 = 0.0
    for a, b in pairs:
        mass[a][b] += 1.0
        cum1 += g.u1[a][b]
        cum2 += g.u2[a][b]
    inv = 1.0 / cfg.horizon
    assert hexed(s.csp_mass) == hexed([[v * inv for v in row] for row in mass])
    assert hexed((s.avg_u1, s.avg_u2)) == hexed((cum1 * inv, cum2 * inv))
    r1, r2 = regrets_from_mass(mass, g, 1), regrets_from_mass(mass, g, 2)
    assert hexed((s.ext_regret1, s.swap_regret1, s.ext_regret2, s.swap_regret2)) == hexed(
        (r1.external_regret, r1.swap_regret, r2.external_regret, r2.swap_regret)
    )
    tail = pairs[cfg.horizon - cfg.tail_window:]
    assert s.tail_counts1 == tuple(sum(a == i for a, _ in tail) for i in range(g.n1))
    assert s.tail_counts2 == tuple(sum(b == i for _, b in tail) for i in range(g.n2))


def account_loops(mass, u1, u2, x, y):
    """The fresh-round accounting as loops: the oracle of the compiled kernel."""
    uu1 = uu2 = 0.0
    for a, xa in enumerate(x):
        if xa:
            row1 = u1[a]
            row2 = u2[a]
            mrow = mass[a]
            for b, yb in enumerate(y):
                if yb:
                    w = xa * yb
                    mrow[b] += w
                    uu1 += row1[b] * w
                    uu2 += row2[b] * w
    return uu1, uu2


# Zeros, subnormals and the smallest normal besides ordinary values.
TINY = st.sampled_from([0.0, 5e-324, 2.0 ** -1060, 2.0 ** -1022])
WEIGHTS = st.one_of(TINY, st.floats(0.0, 1.0))
PAYOFFS = st.one_of(TINY, TINY.map(lambda v: -v), st.floats(-1e6, 1e6), st.integers(-9, 9).map(float))


@given(st.data())
def test_account_is_the_loop_accounting_bit_for_bit(data):
    n1, n2 = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))

    def matrix(values):
        return tuple(tuple(data.draw(values) for _ in range(n2)) for _ in range(n1))

    u1, u2 = matrix(PAYOFFS), matrix(PAYOFFS)
    start = matrix(st.one_of(TINY, st.floats(0.0, 1e3)))
    mass, oracle = [list(row) for row in start], [list(row) for row in start]
    account = engine._emit_account(n1, n2)(mass, u1, u2)
    for _ in range(data.draw(st.integers(1, 3))):  # successive rounds on one mass
        x = tuple(data.draw(WEIGHTS) for _ in range(n1))
        y = tuple(data.draw(WEIGHTS) for _ in range(n2))
        assert hexed(account(x, y)) == hexed(account_loops(oracle, u1, u2, x, y))
        assert hexed(mass) == hexed(oracle)


def counting_compiles(monkeypatch) -> list:
    """Patch engine.compile to record the name of every kernel it compiles."""
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(engine, "compile", counting, raising=False)
    return compiled


def shape_game(n1, n2, seed):
    rng = random.Random(seed)
    u1, u2 = ([[rng.uniform(-5, 5) for _ in range(n2)] for _ in range(n1)] for _ in range(2))
    return game_matrix("g", u1, u2)


def test_one_account_compile_per_game_shape(monkeypatch):
    # No other test builds a config of a 7 x 8 or an 8 x 7 game.
    compiled = counting_compiles(monkeypatch)
    cfgs = [constant_pair_cfg(prior_from_games([shape_game(n1, n2, seed)]), horizon=20, trials=2)
            for n1, n2, seed in ((7, 8, 1), (7, 8, 2), (8, 7, 3))]
    for cfg in cfgs:
        run_summaries(cfg)
    assert compiled == ["<fresh-round accounting, 7 x 8>", "<fresh-round accounting, 8 x 7>"]


def test_pool_workers_inherit_the_compiled_account(monkeypatch):
    # No other test builds a config of an 11 x 3 game, so checking the
    # config compiles its kernel here, before the pool forks.
    compiled = counting_compiles(monkeypatch)
    cfg = ExperimentConfig(
        prior=prior_from_games([shape_game(11, 3, 4), shape_game(11, 3, 5)]),
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("constant_action", {"action": 4}),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=50,
        trials=3,  # a seeded learner: 3 distinct trials, so the pool forks
        master_seed=17,
    )
    assert compiled == ["<fresh-round accounting, 11 x 3>"]

    def refuse(*args):
        raise AssertionError("a kernel was compiled again")

    monkeypatch.setattr(engine, "compile", refuse, raising=False)
    assert run_summaries(cfg, threads=2) == run_summaries(cfg)


@pytest.mark.parametrize("kind", sorted(learners._CLASSES))
def test_every_kind_plays_tuples_and_leaves_the_record_alone(monkeypatch, example41_prior, kind):
    # The replay rests on this contract: act returns a tuple (never mutated
    # later), and observe never writes to its feedback record.
    role = 2 if kind == "infer_then_commit_follower" else 1
    spec = LearnerSpec(kind, {"action": 1} if kind == "constant_action" else {})
    other = LearnerSpec("stackelberg_leader" if role == 2 else "best_responder")
    cfg = side_signal_cfg(example41_prior, horizon=40, trials=2)
    cfg = replace(cfg, spec1=spec, spec2=other) if role == 1 else replace(cfg, spec1=other, spec2=spec)
    played = spy_on_act(monkeypatch, copy=False)
    init = engine.learner_init

    def guarded_init(*args):
        learner = init(*args)
        observe = learner.observe

        def guarded(fb):
            before = (fb.own_strategy, fb.opponent_strategy, fb.own_utility)
            observe(fb)
            assert (fb.own_strategy, fb.opponent_strategy, fb.own_utility) == before

        learner.observe = guarded
        return learner

    monkeypatch.setattr(engine, "learner_init", guarded_init)
    for k in range(cfg.trials):
        engine._simulate(cfg, k)
    assert len(played) == 2 * cfg.trials
    assert all(type(s) is tuple for seen in played[role - 1::2] for s in seen)


@pytest.mark.parametrize("threads", [2, 4])
def test_pool_has_at_most_one_worker_per_simulated_trial(monkeypatch, fig1_prior, threads):
    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("stackelberg_leader"),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=50,
        trials=3,  # a seeded learner: 3 distinct trial keys
        master_seed=17,
    )
    serial = run_summaries(cfg)
    pools = []

    def get_context(method):
        ctx = multiprocessing.get_context(method)

        def pool(processes):
            pools.append(processes)
            return ctx.Pool(processes)

        return SimpleNamespace(Pool=pool)

    monkeypatch.setattr(engine, "multiprocessing", SimpleNamespace(get_context=get_context))
    assert run_summaries(cfg, threads=threads) == serial
    assert pools == [min(threads, cfg.trials)]


def test_horizon_one_trial_reads_checkpoint_and_belief(example41_prior):
    cfg = side_signal_cfg(example41_prior, horizon=1, trials=8, checkpoints=(1,))
    for s in run_summaries(cfg, probe=BeliefProbe("last_side_signal", 2)):
        assert len(s.checkpoint_rows) == 1 and s.checkpoint_rows[0][0] == 1.0
        # The checkpoint's belief already reads round 1's side signal.
        assert len(s.belief_errors) == 2 and s.belief_errors[0] == s.belief_errors[1]


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
    rep = estimate_csps(cfg, run_summaries(cfg))
    for i in (0, 1):
        assert rep.by_game[i] is not None
        assert rep.by_game[i].mass[0][0] >= 0.95


def test_stratified_mean_ci_skips_zero_weight_games_and_needs_every_other(fig1_g1, fig1_g2):
    values = {0: [1.0, 3.0]}
    first_only = prior_from_games([fig1_g1, fig1_g2], [1.0, 0.0])
    assert stratified_mean_ci(first_only, values) == pytest.approx(mean_ci([1.0, 3.0]))
    assert stratified_mean_ci(prior_from_games([fig1_g1, fig1_g2]), values) == (None, None)
