import random

import pytest
from hypothesis import given, settings, strategies as st

from stratlab.errors import InvalidArgumentError, ProtocolViolationError
from stratlab.games import (
    FeedbackRecord,
    game_matrix,
    prior_from_games,
    pure,
)
from stratlab.learners import (
    KINDS,
    LearnerSpec,
    canonical_spec,
    learner_init,
    regrets_from_mass,
    stationary_distribution,
)
from stratlab.solve import perturbed_commitment


def drive(learner, g, opponent, T, full=True):
    """Run a learner against a fixed opponent strategy; returns emissions."""
    seq = []
    for _ in range(T):
        own = learner.act()
        seq.append(own)
        x, y = (own, opponent) if learner.role == 1 else (opponent, own)
        u = sum(
            xa * yb * v
            for xa, row in zip(x, g.utilities(learner.role))
            for yb, v in zip(y, row)
        )
        learner.observe(FeedbackRecord(own, opponent if full else None, u))
    return seq


def make(kind, role, prior, signal=0, seed=0, **params):
    return learner_init(LearnerSpec(kind, params), role, prior, signal, random.Random(seed))


# ---------------------------------------------------------------------------
# Spec validation and initialization
# ---------------------------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgumentError):
        LearnerSpec("gradient_descent")


def test_param_ranges(fig1_prior):
    with pytest.raises(InvalidArgumentError):
        make("multiplicative_weights", 1, fig1_prior, eta=-1.0)
    with pytest.raises(InvalidArgumentError):
        make("stackelberg_leader", 1, fig1_prior, b=1.5)
    with pytest.raises(InvalidArgumentError):
        make("no_swap_regret_bandit", 1, fig1_prior, exploration=2.0)
    with pytest.raises(InvalidArgumentError):
        make("constant_action", 1, fig1_prior, action=7)
    with pytest.raises(InvalidArgumentError):
        make("constant_action", 1, fig1_prior)


def test_params_checked_against_kind_table():
    with pytest.raises(InvalidArgumentError, match="etaa"):
        LearnerSpec("no_swap_regret_bandit", {"etaa": 1.0})
    with pytest.raises(InvalidArgumentError, match="initial_epoch"):
        LearnerSpec("best_responder", {"initial_epoch": 32})
    base = {"kind": "stackelberg_leader", "params": {"bb": 0.5}}
    with pytest.raises(InvalidArgumentError, match="bb"):
        LearnerSpec("mimic_deviation", {"base": base, "signal": 0})
    ok = LearnerSpec("stackelberg_leader", {"b": 0.5})
    with pytest.raises(InvalidArgumentError, match="extra"):
        LearnerSpec("mimic_deviation", {"base": ok, "signal": 0, "extra": 1})
    mimic = LearnerSpec("mimic_deviation", {"base": ok, "signal": 0})
    with pytest.raises(InvalidArgumentError, match="wrap itself"):
        LearnerSpec("mimic_deviation", {"base": mimic, "signal": 1})
    # Params are numbers (never bools); a mimic's signal, a constant action
    # and an initial epoch are integers.
    for kind, params, name in (
        ("stackelberg_leader", {"b": "x"}, "'b'"),
        ("no_swap_regret_bandit", {"eta": True}, "'eta'"),
        ("constant_action", {"action": None}, "'action'"),
        ("constant_action", {"action": 1.7}, "'action'"),
        ("stackelberg_leader", {"initial_epoch": 64.9}, "'initial_epoch'"),
        ("external_signal_leader", {"initial_epoch": True}, "'initial_epoch'"),
        ("mimic_deviation", {"base": ok, "signal": "x"}, "'signal'"),
        ("mimic_deviation", {"base": ok, "signal": 1.7}, "'signal'"),
        ("mimic_deviation", {"base": ok, "signal": False}, "'signal'"),
    ):
        with pytest.raises(InvalidArgumentError, match=name):
            LearnerSpec(kind, params)


def test_canonical_spec_fills_defaults_and_resolves_mimics():
    explicit = LearnerSpec("stackelberg_leader", {"b": 0.25, "initial_epoch": 64})
    assert canonical_spec(LearnerSpec("stackelberg_leader")) == canonical_spec(explicit)
    assert canonical_spec(explicit)[1] != canonical_spec(
        LearnerSpec("stackelberg_leader", {"b": 0.5})
    )[1]
    mimic = LearnerSpec("mimic_deviation", {"base": explicit.to_dict(), "signal": 1})
    cls, params, forced = canonical_spec(mimic)
    assert (cls.__name__, params, forced) == (
        "StackelbergLeader", (("b", 0.25), ("initial_epoch", 64)), 1
    )
    assert cls.reads_signal
    for kind in ("bandit_exp3", "no_swap_regret_bandit", "infer_then_commit_follower"):
        assert not canonical_spec(LearnerSpec(kind))[0].reads_signal
    assert not canonical_spec(LearnerSpec("constant_action", {"action": 0}))[0].reads_signal


def test_undeclared_randomness_is_never_drawn(example41_prior):
    # The engine shares one simulation among trials that differ only in the
    # learners' random streams unless a class declares draws_randomness or
    # needs_side_signal, so every other kind must play the same sequence
    # under two different streams.
    g = example41_prior.games[1]
    checked = []
    for kind in KINDS:
        if kind == "mimic_deviation":
            continue
        params = {"action": 1} if kind == "constant_action" else {}
        cls = canonical_spec(LearnerSpec(kind, params))[0]
        if cls.draws_randomness or cls.needs_side_signal:
            continue
        role = 1 if kind == "reveal_then_follow_leader" else 2
        n_opp = g.n2 if role == 1 else g.n1
        opponent = tuple(i / (n_opp * (n_opp + 1) / 2) for i in range(1, n_opp + 1))
        runs = [
            drive(make(kind, role, example41_prior, 1, seed, **params), g, opponent, 40)
            for seed in (1, 2)
        ]
        assert runs[0] == runs[1], kind
        checked.append(kind)
    # All kinds but the mimic, the two bandits and the side-signal leader.
    assert len(checked) == len(KINDS) - 4


def test_role_restrictions(fig1_prior):
    with pytest.raises(InvalidArgumentError):
        make("reveal_then_follow_leader", 2, fig1_prior)
    with pytest.raises(InvalidArgumentError):
        make("infer_then_commit_follower", 1, fig1_prior)


def test_spec_json_roundtrip(fig1_prior):
    spec = LearnerSpec("mimic_deviation", {"base": {"kind": "best_responder", "params": {}}, "signal": 1})
    d = spec.to_dict()
    assert LearnerSpec.from_dict(d) == spec
    assert learner_init(spec, 2, fig1_prior, 0, random.Random(0)).requires_full_info
    assert not canonical_spec(spec)[0].needs_side_signal
    assert canonical_spec(LearnerSpec("external_signal_leader"))[0].needs_side_signal


def test_mw_uniform_init(fig1_prior):
    lrn = make("multiplicative_weights", 2, fig1_prior)
    assert lrn.act() == pytest.approx((0.5, 0.5))


def test_constant_action_ignores_feedback(fig1_g1, fig1_prior):
    lrn = make("constant_action", 1, fig1_prior, action=1)
    seq = drive(lrn, fig1_g1, pure(2, 0), 50)
    assert all(s == (0.0, 1.0) for s in seq)


def test_stackelberg_leader_round_one(fig1_prior):
    lrn = make("stackelberg_leader", 1, fig1_prior, b=0.25)
    expected, _ = perturbed_commitment(fig1_prior.games[0], 1, 64 ** -0.25)
    assert lrn.act() == pytest.approx(expected)
    assert expected == pytest.approx((1.0, 0.0))  # pure A for this family


# ---------------------------------------------------------------------------
# Protocol enforcement
# ---------------------------------------------------------------------------


def test_act_observe_protocol(fig1_g1, fig1_prior):
    lrn = make("multiplicative_weights", 1, fig1_prior)
    with pytest.raises(ProtocolViolationError):
        lrn.observe(FeedbackRecord(pure(2, 0), pure(2, 0), 16.0))
    lrn.act()
    with pytest.raises(ProtocolViolationError):
        lrn.act()


def test_full_info_learner_rejects_bandit_feedback(fig1_prior):
    lrn = make("best_responder", 1, fig1_prior)
    x = lrn.act()
    with pytest.raises(ProtocolViolationError):
        lrn.observe(FeedbackRecord(x, None, 16.0))


# ---------------------------------------------------------------------------
# Behavior of the zoo
# ---------------------------------------------------------------------------


def test_best_responder_replies_to_last_strategy(fig1_g1, fig1_prior):
    lrn = make("best_responder", 2, fig1_prior, signal=0)
    lrn.act()
    lrn.observe(FeedbackRecord(pure(2, 0), pure(2, 0), 1.0))  # opponent played A
    assert lrn.act() == (1.0, 0.0)  # reply C: 1 vs -32


def test_best_responder_round_one_uniform(fig1_g2, fig1_prior):
    # vs uniform opponent in the second family game, row payoffs (0.5, 0.5):
    # tie resolves to the lowest index.
    lrn = make("best_responder", 1, fig1_prior, signal=1)
    assert lrn.act() == (1.0, 0.0)


def test_mimic_matches_base_under_forced_signal(fig1_prior):
    base = LearnerSpec("stackelberg_leader", {"b": 0.25})
    mimic = LearnerSpec("mimic_deviation", {"base": base, "signal": 0})
    a = learner_init(base, 1, fig1_prior, 0, random.Random(3))
    b = learner_init(mimic, 1, fig1_prior, 1, random.Random(3))  # true signal differs
    g = fig1_prior.games[1]
    sa = drive(a, g, pure(2, 0), 200)
    sb = drive(b, g, pure(2, 0), 200)
    assert sa == sb


def test_reveal_then_follow_round_one_indexes_signal(fig1_prior):
    assert make("reveal_then_follow_leader", 1, fig1_prior, signal=0).act() == (1.0, 0.0)
    assert make("reveal_then_follow_leader", 1, fig1_prior, signal=1).act() == (0.0, 1.0)


def test_infer_then_commit_reads_round_one_action(fig1_prior):
    lrn = make("infer_then_commit_follower", 2, fig1_prior)
    assert lrn.act() == (1.0, 0.0)  # action C first
    lrn.observe(FeedbackRecord(pure(2, 0), pure(2, 1), 0.0))  # P1 played B
    assert lrn.act() == (0.0, 1.0)  # second game's commitment: pure D


def test_epoch_doubling_schedule():
    # Game with a delta-dependent commitment so epoch switches are observable.
    g = game_matrix("mixed_commit", [[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]])
    prior = prior_from_games([g])
    lrn = make("stackelberg_leader", 1, prior, b=0.25)
    seq = drive(lrn, g, pure(2, 0), 300)
    for t, t_m in ((1, 64), (64, 64), (65, 128), (128, 128), (129, 256), (300, 512)):
        expected, _ = perturbed_commitment(g, 1, t_m ** -0.25)
        assert seq[t - 1] == pytest.approx(expected), f"round {t}"
    assert seq[0] != seq[64]  # the switch is real


def test_external_signal_leader_follows_side_channel(fig1_prior):
    lrn = make("external_signal_leader", 2, fig1_prior, b=0.25)
    assert lrn.side_signal_accuracy(1) == 0.0
    assert lrn.side_signal_accuracy(100) == pytest.approx(0.99)
    delta = 64 ** -0.25
    lrn.receive_side_signal(0)
    exp0, _ = perturbed_commitment(fig1_prior.games[0], 2, delta)
    played = lrn.act()
    assert played == pytest.approx(exp0)
    lrn.observe(FeedbackRecord(played, None, 1.0))
    lrn.receive_side_signal(1)
    exp1, _ = perturbed_commitment(fig1_prior.games[1], 2, delta)
    assert lrn.act() == pytest.approx(exp1)
    assert exp1 == pytest.approx((0.0, 1.0))  # second game: commit D outright


def test_no_swap_regret_full_converges_to_reply(fig1_g1, fig1_prior):
    lrn = make("no_swap_regret_full", 2, fig1_prior, seed=5)
    seq = drive(lrn, fig1_g1, pure(2, 0), 10_000)
    avg_c = sum(s[0] for s in seq) / len(seq)
    assert avg_c >= 0.99


def test_no_swap_regret_bandit_reproducible(fig1_g1, fig1_prior):
    runs = []
    for _ in range(2):
        lrn = make("no_swap_regret_bandit", 2, fig1_prior, seed=42)
        runs.append(tuple(drive(lrn, fig1_g1, pure(2, 0), 500, full=False)))
    assert runs[0] == runs[1]


def test_bandit_exp3_finds_best_arm(fig1_g1, fig1_prior):
    lrn = make("bandit_exp3", 2, fig1_prior, seed=9)
    seq = drive(lrn, fig1_g1, pure(2, 0), 3000, full=False)
    last = seq[-1000:]
    freq_c = sum(s[0] for s in last) / len(last)
    assert freq_c >= 0.8


# ---------------------------------------------------------------------------
# Stationary distribution of the swap-regret reduction
# ---------------------------------------------------------------------------


def residual(pi, q):
    """max_j |(pi q)_j - pi_j|."""
    n = len(q)
    return max(abs(sum(pi[i] * q[i][j] for i in range(n)) - pi[j]) for j in range(n))


def power_iteration_to_step(q, start):
    """The solve the swap-regret learners used before the exact one: power
    iteration from `start` until one step moves at most 1e-10 in L1, capped
    at 10^4 sweeps. Returns (pi, sweeps)."""
    cur = list(start)
    for sweep in range(1, 10_001):
        nxt = [sum(cur[i] * q[i][j] for i in range(len(q))) for j in range(len(q))]
        total = sum(nxt)
        nxt = [v / total for v in nxt]
        step = sum(abs(a - b) for a, b in zip(nxt, cur))
        cur = nxt
        if step <= 1e-10:
            break
    return cur, sweep


def test_stationary_hand_solved_three_state_chain():
    q = [[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]]
    pi = stationary_distribution(q)
    assert max(abs(a - b) for a, b in zip(pi, (0.4, 0.2, 0.4))) <= 1e-15


def test_stationary_slowly_mixing_chain_is_exact_where_a_step_rule_is_not():
    # Birth-death chain, off-diagonals 1e-6..3e-6: detailed balance gives
    # pi proportional to (1, 2e-6/1e-6, 2 * 3e-6/1e-6) = (1, 2, 6).
    q = [[1 - 2e-6, 2e-6, 0.0], [1e-6, 1 - 4e-6, 3e-6], [0.0, 1e-6, 1 - 1e-6]]
    hand = (1 / 9, 2 / 9, 6 / 9)
    pi = stationary_distribution(q)
    assert max(abs(a - b) for a, b in zip(pi, hand)) <= 1e-15
    # Warm-started 5e-6 away, as after a round moved q: the first step moves
    # only 6e-11, so the step rule stops at once, 5e-6 from the solution.
    old, sweeps = power_iteration_to_step(q, (hand[0] + 5e-6, hand[1] - 5e-6, hand[2]))
    assert sweeps == 1
    assert max(abs(a - b) for a, b in zip(old, hand)) > 1e-10


@pytest.mark.parametrize(
    "q01, q10, hand",
    [(0.25, 0.5, (2 / 3, 1 / 3)), (0.5, 0.5, (0.5, 0.5)), (1e-300, 3e-300, (0.75, 0.25))],
)
def test_stationary_two_state_closed_form(q01, q10, hand):
    q = [[1.0 - q01, q01], [q10, 1.0 - q10]]
    pi = stationary_distribution(q)
    assert pi == pytest.approx(hand, abs=1e-16)
    assert residual(pi, q) <= 1e-16


@settings(max_examples=300)
@given(st.data())
def test_stationary_solves_random_chains(data):
    n = data.draw(st.integers(2, 8))
    weights = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    q = [[w / sum(row) for w in row] for row in (data.draw(weights) for _ in range(n))]
    pi = stationary_distribution(q)
    assert all(v >= 0.0 for v in pi)
    assert abs(sum(pi) - 1.0) <= 1e-14
    assert residual(pi, q) <= 1e-13


@pytest.mark.parametrize(
    "q",
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.5, 0.5]],
        # Softmax rows that underflowed: state 3 absorbing, two closed classes.
        [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
        [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
        # A subnormal exit mass: 1 / 5e-324 would overflow.
        [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [5e-324, 0.0, 1.0]],
    ],
)
def test_stationary_reducible_chains_stay_finite(q):
    pi = stationary_distribution(q)
    assert all(v >= 0.0 for v in pi) and sum(pi) == pytest.approx(1.0, abs=1e-15)
    assert residual(pi, q) <= 1e-15


# ---------------------------------------------------------------------------
# Regret meters
# ---------------------------------------------------------------------------


# Rounds (A,C) and (A,D).
TWO_ROUND_MASS = [[1.0, 1.0], [0.0, 0.0]]


def test_external_regret_hand_example(fig1_g1):
    # P2 earned 1 - 32 = -31; best fixed C earns 2.
    assert regrets_from_mass(TWO_ROUND_MASS, fig1_g1, 2).external_regret == pytest.approx(33.0)
    assert regrets_from_mass(TWO_ROUND_MASS, fig1_g1, 1).external_regret == pytest.approx(0.0)


def test_swap_regret_hand_example(fig1_g1):
    rep = regrets_from_mass(TWO_ROUND_MASS, fig1_g1, 2)
    assert rep.swap_regret == pytest.approx(33.0)
    assert rep.swap_targets == (0, 0)  # keep C, remap D -> C


def test_best_responding_player_has_zero_regret(fig1_g1):
    rep = regrets_from_mass([[10.0, 0.0], [0.0, 0.0]], fig1_g1, 2)  # (A,C) ten times
    assert rep.external_regret == pytest.approx(0.0)
    assert rep.swap_regret == pytest.approx(0.0)


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=100)
def test_swap_at_least_external(seed, t):
    rng = random.Random(seed)
    g = game_matrix(
        "rnd",
        [[rng.uniform(-5, 5) for _ in range(2)] for _ in range(3)],
        [[rng.uniform(-5, 5) for _ in range(2)] for _ in range(3)],
    )
    # Any nonnegative matrix is a cumulative joint mass: put mass[a][b]
    # rounds' worth of weight on the pure profile (a, b).
    mass = [[t * rng.random() for _ in range(2)] for _ in range(3)]
    for player in (1, 2):
        rep = regrets_from_mass(mass, g, player)
        # Swap class contains the constant maps; per-action improvements
        # include the identity, so the total is also nonnegative.
        assert rep.swap_regret >= rep.external_regret - 1e-9
        assert rep.swap_regret >= -1e-9


def cyclic_zero_sum(n):
    """Cyclic zero-sum game: each action beats its successor (matching
    pennies at n=2); an adversarially tight workload for regret bounds."""
    if n == 2:
        u1 = [[1, -1], [-1, 1]]
    else:
        u1 = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (i - j) % n == 1:
                    u1[i][j] = 1
                elif (j - i) % n == 1:
                    u1[i][j] = -1
    u2 = [[-v for v in row] for row in u1]
    return game_matrix(f"cyclic{n}", u1, u2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("opponent", ["constant", "best_responder"])
def test_no_swap_regret_bound_at_scale(n, opponent):
    # Average swap regret <= 3 * range * sqrt(n ln n / T) at T = 1e5, against
    # both a constant and an adversarial best-responding opponent.
    import math as _math

    from stratlab.engine import ExperimentConfig, estimate
    from stratlab.games import SignalModel

    g = cyclic_zero_sum(n)
    prior = prior_from_games([g])
    opp = (
        LearnerSpec("constant_action", {"action": 0})
        if opponent == "constant"
        else LearnerSpec("best_responder")
    )
    horizon = 100_000
    cfg = ExperimentConfig(
        prior=prior,
        signal_model=SignalModel(1.0, 1.0),
        spec1=LearnerSpec("no_swap_regret_full"),
        spec2=opp,
        horizon=horizon,
        trials=1,
        master_seed=91,
        checkpoints=(horizon,),
    )
    rep = estimate(cfg)
    lo, hi = g.payoff_range(1)
    avg = rep.regrets["swap_regret1"]["mean"] / horizon
    bound = 3.0 * (hi - lo) * _math.sqrt(n * _math.log(n) / horizon) if n > 1 else 1.0
    assert avg <= bound


def test_bandit_swap_regret_decays_in_horizon(fig1_prior):
    # Monotone decrease of the bandit reduction's average swap regret over
    # T in {1e3, 1e4, 1e5}; only the trend is asserted, not a constant.
    from stratlab.engine import ExperimentConfig, estimate
    from stratlab.games import SignalModel

    cfg = ExperimentConfig(
        prior=fig1_prior,
        signal_model=SignalModel(1.0, 0.0),
        spec1=LearnerSpec("constant_action", {"action": 0}),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=100_000,
        trials=2,
        master_seed=97,
        checkpoints=(1000, 10_000, 100_000),
    )
    rep = estimate(cfg)
    avgs = [row["swap_regret2"] / row["t"] for row in rep.checkpoint_curves]
    assert avgs[0] > avgs[1] > avgs[2]
