import dis
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stratlab import learners
from stratlab.engine import ExperimentConfig, run_summaries
from stratlab.errors import InvalidArgumentError
from stratlab.games import (
    FeedbackRecord,
    SignalModel,
    game_matrix,
    prior_from_games,
    pure,
    sample_index,
)
from stratlab.learners import (
    KINDS,
    LearnerSpec,
    canonical_spec,
    learner_init,
    payoffs_against,
    regrets_from_mass,
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
            for xa, row in zip(x, g.u1 if learner.role == 1 else g.u2)
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


@pytest.mark.parametrize("kind", ["bandit_exp3", "no_swap_regret_bandit"])
def test_only_a_fixed_eta_needs_exploration_above_zero(fig1_prior, kind):
    one_action = prior_from_games([game_matrix("one", [[0, 1]], [[1, 0]])])
    make(kind, 1, fig1_prior, exploration=0.0).check_horizon(100)  # adaptive step gamma / n = 0
    make(kind, 1, one_action, eta=0.1, exploration=0.0).check_horizon(100)
    with pytest.raises(InvalidArgumentError, match="exploration 0"):
        make(kind, 1, fig1_prior, eta=0.1, exploration=0.0).check_horizon(100)


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
    # Params are finite numbers (never bools); a mimic's signal, a constant action
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
        ("multiplicative_weights", {"eta": math.inf}, "'eta'.* finite"),
        ("stackelberg_leader", {"b": -math.inf}, "'b'.* finite"),
        ("no_swap_regret_full", {"eta": math.nan}, "'eta'.* finite"),
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


@pytest.mark.parametrize("kind, role", [("best_responder", 1), ("best_responder", 2),
                                        ("reveal_then_follow_leader", 1)])
def test_replies_are_computed_only_when_the_opponent_changes(monkeypatch, fig1_prior, kind, role):
    computed = []
    original = learners.payoffs_against

    def counting(rows, opp):
        computed.append(opp)
        return original(rows, opp)

    monkeypatch.setattr(learners, "payoffs_against", counting)
    lrn = make(kind, role, fig1_prior)
    at_construction = len(computed)  # best_responder's reply to a uniform opponent
    assert at_construction == (kind == "best_responder")
    pool = [pure(2, 0), pure(2, 1), (0.5, 0.5), (-0.0, 1.0)]  # the last == pool[1]
    script = random.Random(7)  # repeats, equal but distinct tuples, and changes
    held, last, changes = lrn.act(), None, 0
    for _ in range(300):
        opp = pool[script.randrange(len(pool))]
        if script.random() < 0.5:
            opp = tuple(list(opp))
        lrn.observe(FeedbackRecord(held, opp, 0.0))
        reply = lrn.act()
        if opp == last:
            assert reply is held
        else:
            changes += 1
            values = original(lrn._rows, opp)
            assert reply == pure(2, values.index(max(values)))
        assert lrn.act() is reply
        held, last = reply, opp
    assert len(computed) == at_construction + changes


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


def test_commitments_are_solved_once_per_process(monkeypatch):
    g = game_matrix("mixed_commit", [[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]])
    prior = prior_from_games([g])
    calls = []

    def counted(*args):
        calls.append(args)
        return perturbed_commitment(*args)

    monkeypatch.setattr(learners, "perturbed_commitment", counted)
    monkeypatch.setattr(learners, "_COMMITMENTS", {})
    runs = [drive(make("stackelberg_leader", 1, prior, b=0.25), g, pure(2, 0), 300) for _ in range(2)]
    assert runs[0] == runs[1]
    assert calls == [(g, 1, t_m ** -0.25) for t_m in (64, 128, 256, 512)]


def test_stackelberg_leader_returns_one_object_per_epoch():
    g = game_matrix("mixed_commit", [[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]])
    lrn = make("stackelberg_leader", 1, prior_from_games([g]), b=0.25)
    first = lrn.act()
    for t_m, rounds in ((64, 64), (128, 64), (256, 128)):
        assert lrn.epoch_horizon == t_m
        current = lrn.act()
        assert current == perturbed_commitment(g, 1, t_m ** -0.25)[0]
        for _ in range(rounds):
            assert lrn.act() is current
            lrn.observe(FeedbackRecord(current, pure(2, 0), 0.0))
    assert lrn.epoch_horizon == 512
    assert lrn.act() != first  # the commitment moves with the epoch


def test_external_signal_leader_holds_one_object_per_game_and_epoch(monkeypatch):
    games = [
        game_matrix("mixed_commit", [[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]),
        game_matrix("lopsided", [[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [0.0, 1.0]]),
    ]
    calls = []

    def counted(*args):
        calls.append(args)
        return perturbed_commitment(*args)

    monkeypatch.setattr(learners, "perturbed_commitment", counted)
    monkeypatch.setattr(learners, "_COMMITMENTS", {})
    lrn = make("external_signal_leader", 1, prior_from_games(games), b=0.25, initial_epoch=8)
    epochs = ((8, 8), (16, 8), (32, 16))
    for t_m, rounds in epochs:
        assert lrn.epoch_horizon == t_m
        held = {}
        for t in range(rounds):
            lrn.receive_side_signal(t % 2)  # 0, 1, 0, 1, ...
            s = lrn.act()
            assert held.setdefault(t % 2, s) is s
            lrn.observe(FeedbackRecord(s, pure(2, 0), 0.0))
        for k, s in held.items():
            assert s == perturbed_commitment(games[k], 1, t_m ** -0.25)[0]
    assert calls == [(g, 1, t_m ** -0.25) for t_m, _ in epochs for g in games]


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


# ---------------------------------------------------------------------------
# The hedge-family learners, tested by what they play
# ---------------------------------------------------------------------------


def gth(q):
    """Stationary distribution of the row-stochastic matrix q by the loop form
    of Grassmann-Taksar-Heyman elimination: the reference that the learners'
    compiled kernels must match bit for bit. Sums run left to right from
    0.0, as the kernels' do."""
    a = [list(row) for row in q]
    n = len(a)
    if n == 1:
        return [1.0]
    exits = [0.0] * n  # s_k
    first = 0  # the states below it get no stationary mass
    for k in range(n - 1, 0, -1):
        ak = a[k]
        s = 0.0
        for v in ak[:k]:
            s += v
        if not s:
            first = k
            break
        exits[k] = s
        if k == 1:  # the rest of the step would only write entries never read
            break
        for j in range(k):
            ak[j] /= s
        for i in range(k):
            ai = a[i]
            f = ai[k]
            if f:
                for j in range(k):
                    ai[j] += f * ak[j]
    # pi[first..j] holds the stationary distribution of the chain censored
    # to states 0..j, normalised to sum 1.
    pi = [0.0] * n
    pi[first] = 1.0
    for j in range(first + 1, n):
        v = 0.0
        for i in range(first, j):
            v += pi[i] * a[i][j]
        t = exits[j] + v
        c = exits[j] / t
        for i in range(first, j):
            pi[i] *= c
        pi[j] = v / t
    return pi


def softmax(lw):
    """exp(lw - max lw), normalised by its left-to-right sum."""
    m = max(lw)
    es = [math.exp(v - m) for v in lw]
    s = 0.0
    for e in es:
        s += e
    return [e / s for e in es]


def softmax_rows(lws):
    return [softmax(lw) for lw in lws]


def hexes(strategy):
    return [v.hex() for v in strategy]


def full_update(lws, p, eta, rewards):
    """Add eta * p[e] * rewards to each row e of lws whose scale is not 0."""
    for e, row in enumerate(lws):
        scale = eta * p[e]
        if scale:
            for b, r in enumerate(rewards):
                row[b] += scale * r


def bandit_update(lws, p, step, a, est):
    """Add step * p[e] * est to entry a of each row e of lws whose scale is
    not 0."""
    for e, row in enumerate(lws):
        scale = step * p[e]
        if scale:
            row[a] += scale * est


class Reference:
    """A hedge or swap-regret learner of `kind` written as loops over lists:
    the oracle that the learners' play must match bit for bit.

    Hedge kinds play the softmax of their log-weights, swap-regret kinds gth
    of the softmax rows of theirs (the Blum-Mansour reduction). Bandit kinds
    draw from the exploration mixture, built as a list, with sample_index,
    and add the drawn action's importance-weighted estimate to its entry (to
    its column, p-weighted, for the swap-regret kind). Full-information kinds
    add eta times the normalised rewards, every round from payoffs_against."""

    def __init__(self, kind, role, prior, signal=0, seed=0, eta=None, exploration=None):
        self.kind = kind
        self.swap = kind.startswith("no_swap_regret")
        self.bandit = kind in ("bandit_exp3", "no_swap_regret_bandit")
        self.rows = prior.games[signal].own_payoffs(role)
        n = self.n = len(self.rows)
        lo, hi = prior.payoff_range(role)
        self.lo, self.scale = lo, 1.0 / (hi - lo) if hi > lo else 1.0
        self.eta, self.exploration = eta, exploration
        self.rng = random.Random(seed)
        self.t = 1
        self.lw = [[0.0] * n for _ in range(n)] if self.swap else [0.0] * n

    def act(self):
        n = self.n
        self.p = gth(softmax_rows(self.lw)) if self.swap else softmax(self.lw)
        if not self.bandit:
            return tuple(self.p)
        gamma = self.exploration
        if gamma is None:
            gamma = min(1.0, math.sqrt(n * math.log(n) / self.t))
        self.gamma = gamma
        keep, spread = 1.0 - gamma, gamma / n
        self.a = sample_index([keep * v + spread for v in self.p], self.rng)
        self.drawn = keep * self.p[self.a] + spread
        return pure(n, self.a)

    def observe(self, fb):
        n, lw = self.n, self.lw
        if self.bandit:
            est = (fb.own_utility - self.lo) * self.scale / self.drawn
            step = self.eta if self.eta is not None else self.gamma / n
            if self.swap:
                bandit_update(lw, self.p, step, self.a, est)
            else:
                lw[self.a] += step * est
        else:
            values = payoffs_against(self.rows, fb.opponent_strategy)
            rewards = [(v - self.lo) * self.scale for v in values]
            eta = self.eta if self.eta is not None else math.sqrt(math.log(n) / self.t)
            if self.swap:
                full_update(lw, self.p, eta, rewards)
            else:
                for a, r in enumerate(rewards):
                    lw[a] += eta * r
        self.t += 1


HEDGE_KINDS = ["multiplicative_weights", "bandit_exp3", "no_swap_regret_full",
               "no_swap_regret_bandit"]


def pair(kind, role, prior, signal=0, seed=0, **params):
    """A learner of `kind` and its Reference, on equal random streams."""
    return make(kind, role, prior, signal, seed, **params), Reference(
        kind, role, prior, signal, seed, **params
    )


def play(lrn, ref, opponents):
    """One round of lrn and ref against each opponent strategy, with the same
    feedback: each round's strategies must agree by float.hex, the random
    streams must end in one state, and the bandit must return one object per
    action. Returns lrn's strategies."""
    bandit = ref.bandit
    seq, onehots = [], {}
    for t, opp in enumerate(opponents, 1):
        own, want = lrn.act(), ref.act()
        assert hexes(own) == hexes(want), f"round {t}"
        if bandit:
            assert onehots.setdefault(ref.a, own) is own
        u = sum(x * v for x, v in zip(own, payoffs_against(ref.rows, opp)))
        fb = FeedbackRecord(own, None if bandit else opp, u)
        lrn.observe(fb)
        ref.observe(fb)
        seq.append(own)
    assert lrn.rng.getstate() == ref.rng.getstate()
    return seq


@pytest.mark.parametrize("params", [{}, {"eta": 0.05}, {"exploration": 0.1}])
def test_bandit_two_action_step_matches_generic_step(fig1_prior, params):
    lrn, ref = pair("no_swap_regret_bandit", 2, fig1_prior, seed=7, **params)
    script = random.Random(11)  # the opponent's scripted pure actions
    play(lrn, ref, [pure(2, script.randrange(2)) for _ in range(5000)])


def test_full_two_action_step_matches_generic_step(fig1_prior):
    lrn, ref = pair("no_swap_regret_full", 2, fig1_prior, seed=7)
    script = random.Random(11)  # the opponent's scripted mixtures
    play(lrn, ref, [(w, 1.0 - w) for w in (script.random() for _ in range(5000))])


def test_a_second_act_in_a_round_plays_the_same_strategy(fig1_prior):
    # act applies the update that observe stored once, however often it runs.
    lrn, ref = pair("no_swap_regret_full", 2, fig1_prior)
    for w in (0.2, 0.9, 0.5):
        own = lrn.act()
        assert lrn.act() == own == ref.act()
        fb = FeedbackRecord(own, (w, 1.0 - w), 0.0)
        lrn.observe(fb)
        ref.observe(fb)


@settings(max_examples=150)
@given(st.data())
def test_swap_regret_learners_play_as_the_reference(data):
    # All four hedge-family kinds, the swap-regret ones and plain hedge.
    kind = data.draw(st.sampled_from(HEDGE_KINDS))
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    u1 = [data.draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m)) for _ in range(n)]
    g = game_matrix("rnd", u1, [[0.0] * m for _ in range(n)])
    params = {}
    # From eta 1e3 on, one round can underflow weights to exactly 0.
    eta = data.draw(st.sampled_from([None, 0.05, 1.0, 1e3, 1e5]))
    if eta is not None:
        params["eta"] = eta
    if kind in ("bandit_exp3", "no_swap_regret_bandit"):
        explore = data.draw(st.sampled_from([None, 0.0, 0.2, 1.0]))
        if explore is not None:
            params["exploration"] = explore
    pool = [pure(m, j) for j in range(m)] + [(1.0 / m,) * m]
    opponents = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    lrn, ref = pair(kind, 1, prior_from_games([g]), seed=data.draw(st.integers(0, 99)), **params)
    play(lrn, ref, opponents)


@pytest.mark.parametrize("n", range(2, 9))
def test_play_reaches_every_zero_exit_mass(n):
    # Round 1 adds about 1000 times the rewards to every row of log-weights.
    # Actions below k earn 0 and the others 0.995 to 1, so from round 2 on
    # states k..n-1 form a closed class, s_k is exactly 0 and the solve
    # exits at k; later rounds move those rows by less than 250.
    rounds = 6
    for k in range(1, n):
        rng = random.Random(100 * n + k)
        u1 = [[0.0 if a < k else rng.uniform(0.995, 1.0) for _ in range(rounds)] for a in range(n)]
        u1[k][0] = 1.0  # the payoff range is [0, 1], so the rewards are the payoffs
        g = game_matrix("closed", u1, [[0.0] * rounds for _ in range(n)])
        lrn, ref = pair("no_swap_regret_full", 1, prior_from_games([g]), eta=1000.0 * n)
        seq = play(lrn, ref, [pure(rounds, t) for t in range(rounds)])
        for s in seq[1:]:
            assert s[:k] == (0.0,) * k and s[k] > 0.0


def test_play_reaches_a_subnormal_exit_mass():
    # Round 1 adds about 1000 * (0.256, 0, 1) to every row, so in round 2
    # each softmax row is about (exp(-744), 0, 1): s_2 is subnormal, and
    # 1 / s_2 would overflow.
    g = game_matrix("subnormal", [[0.256], [0.0], [1.0]], [[0.0], [0.0], [0.0]])
    lrn, ref = pair("no_swap_regret_full", 1, prior_from_games([g]), eta=3000.0)
    seq = play(lrn, ref, [(1.0,)] * 3)
    assert 0.0 < seq[1][0] < 2.2250738585072014e-308 and seq[1][1] == 0.0
    assert all(math.isfinite(v) and v >= 0.0 for s in seq for v in s)


def test_learners_of_one_action_count_share_one_compiled_solve(monkeypatch):
    # No other test builds a hedge-family learner with 9 actions, so the
    # first one of each kind compiles its step here.
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(learners, "compile", counting, raising=False)
    prior = prior_from_games([cyclic_zero_sum(9)])
    counts = []
    for kind in HEDGE_KINDS:
        for _ in range(2):
            for role in (1, 2):
                lrn, ref = pair(kind, role, prior, seed=3)
                play(lrn, ref, [(1.0 / 9,) * 9] * 2)
            counts.append(len(compiled))
    # One step per (action count, feedback, swap), compiled once per process.
    assert counts == [1, 1, 2, 2, 3, 3, 4, 4]
    assert len(set(compiled)) == 4


def test_pool_workers_inherit_the_compiled_solve(monkeypatch):
    # No other test builds a hedge-family learner with 10 actions, so
    # checking the config compiles both steps here, before the pool forks.
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(learners, "compile", counting, raising=False)
    cfg = ExperimentConfig(
        prior=prior_from_games([cyclic_zero_sum(10)]),
        signal_model=SignalModel(1.0, 0.5),
        spec1=LearnerSpec("bandit_exp3"),
        spec2=LearnerSpec("no_swap_regret_bandit"),
        horizon=50,
        trials=3,  # seeded learners: 3 distinct trials, so the pool forks
        master_seed=17,
    )
    assert len(compiled) == 2

    def refuse(*args):
        raise AssertionError("a kernel was compiled again")

    monkeypatch.setattr(learners, "compile", refuse, raising=False)
    assert run_summaries(cfg, threads=2) == run_summaries(cfg)


@pytest.mark.parametrize("kind", ["no_swap_regret_full", "multiplicative_weights"])
@pytest.mark.parametrize("role", [1, 2])
@pytest.mark.parametrize("params", [{}, {"eta": 0.1}])
def test_rewards_are_recomputed_only_when_the_opponent_changes(monkeypatch, kind, role, params):
    rng = random.Random(5)
    g = game_matrix(
        "rnd",
        [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(4)],
        [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(4)],
    )
    lrn, ref = pair(kind, role, prior_from_games([g]), **params)
    n = lrn.n_opp
    pool = [pure(n, 1), (1.0 / n,) * n, (0.5, 0.5, 0.0, 0.0)[:n]]
    pool.append(tuple(-0.0 if v == 0 else v for v in pool[0]))  # == pool[0], other bits
    computed = []

    def counting(rows, opp):
        computed.append(opp)
        return payoffs_against(rows, opp)

    # The reference calls payoffs_against every round, through its own name.
    monkeypatch.setattr(learners, "payoffs_against", counting)
    script = random.Random(11)  # repeats, equal but distinct tuples, and changes
    last, changes = None, 0
    for t in range(1, 301):
        opp = pool[script.randrange(len(pool))]
        if script.random() < 0.5:
            opp = tuple(list(opp))
        changes += opp != last
        last = opp
        play(lrn, ref, [opp])
        assert len(computed) == changes, f"round {t}"


# ---------------------------------------------------------------------------
# The compiled round steps, as pure functions of the state they are given
# ---------------------------------------------------------------------------


ALMOST_ONE = 1.0 - 2.0**-53  # the largest draw random() returns


class Draw:
    """A random stream whose every draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def rows_of(lw, n):
    return [list(lw[i * n:(i + 1) * n]) for i in range(n)]


def full_step(lws, p, g, r):
    """learners._emit_step(n, False, True) on the rows lws: (rows, p)."""
    n = len(lws)
    lw, p = learners._emit_step(n, False, True)(tuple(sum(lws, [])), p, g, r)
    return rows_of(lw, n), p


def bandit_step(lws, p, g, b, x, u, gamma):
    """learners._emit_step(n, True, True) on the rows lws: (rows, p, a, pa)."""
    n = len(lws)
    lw, p, a, pa = learners._emit_step(n, True, True)(tuple(sum(lws, [])), p, g, b, x, u, gamma)
    return rows_of(lw, n), p, a, pa


def loop_full_step(lws, p, g, r):
    rows = [list(row) for row in lws]
    full_update(rows, p, g, r)
    return rows, tuple(gth(softmax_rows(rows)))


def loop_bandit_step(lws, p, g, b, x, u, gamma):
    rows = [list(row) for row in lws]
    bandit_update(rows, p, g, b, x)
    pi = gth(softmax_rows(rows))
    keep, spread = 1.0 - gamma, gamma / len(lws)
    a = sample_index([keep * v + spread for v in pi], Draw(u))
    return rows, tuple(pi), a, keep * pi[a] + spread


def assert_same_bits(got, want):
    """Equal by float.hex: the rows, p and, for the bandit, the drawn action
    and its mixture probability."""
    (rows, p, *draw), (want_rows, want_p, *want_draw) = got, want
    assert [hexes(row) for row in rows] == [hexes(row) for row in want_rows]
    assert hexes(p) == hexes(want_p)
    if draw:
        assert (draw[0], draw[1].hex()) == (want_draw[0], want_draw[1].hex())


def assert_kernel_is_the_loop_solve(lws):
    """Both steps, with no update (g = 0.0), return lws and gth of its
    softmax rows by float.hex, and the bandit's draw is sample_index's, at
    exploration 0, 0.3 and 1 and draws 0, 0.5 and just below 1. Returns the
    solution."""
    n = len(lws)
    before = [list(row) for row in lws]
    old = (1.0 / n,) * n
    pi = gth(softmax_rows(lws))
    assert_same_bits(full_step(lws, old, 0.0, ()), (lws, pi))
    for gamma in (0.0, 0.3, 1.0):
        for u in (0.0, 0.5, ALMOST_ONE):
            got = bandit_step(lws, old, 0.0, 0, 0.0, u, gamma)
            assert_same_bits(got, loop_bandit_step(lws, old, 0.0, 0, 0.0, u, gamma))
    assert lws == before
    return pi


@pytest.mark.parametrize(
    "lw",
    [
        [[0.0, -1e4], [-1e4, 0.0]],  # q01 and q10 both underflow: s == 0
        [[0.0, -1e4], [0.0, 0.0]],  # q01 alone underflows
        [[-1e4, 0.0], [0.0, -1e4]],  # both rows at the far action
    ],
)
def test_two_action_step_on_underflowed_weights(lw):
    assert_kernel_is_the_loop_solve(lw)


LOG_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -750.0, -1e4]),  # exp(-750) underflows to exactly 0
    st.floats(-1e4, 0.0),
    st.floats(-5.0, 5.0),
)


@settings(max_examples=800)
@given(st.data())
def test_stationary_solve_is_the_loop_solve_bit_for_bit(data):
    n = data.draw(st.integers(1, 8))
    assert_kernel_is_the_loop_solve(
        [data.draw(st.lists(LOG_WEIGHTS, min_size=n, max_size=n)) for _ in range(n)]
    )


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 9) for k in range(1, n)])
def test_every_zero_exit_mass_is_the_loop_solve_bit_for_bit(n, k):
    # States k..n-1 form a closed class (their weights on states below k
    # underflow to 0), so s_k is exactly 0 and the solve exits at k.
    rng = random.Random(100 * n + k)
    lws = [[-1e4 if i >= k > j else rng.uniform(-5.0, 5.0) for j in range(n)] for i in range(n)]
    pi = assert_kernel_is_the_loop_solve(lws)
    assert pi[:k] == [0.0] * k and pi[k] > 0.0


def test_subnormal_exit_mass_is_the_loop_solve_bit_for_bit():
    # State 2's softmax row is about (exp(-744), 0, 1): s_2 is subnormal, and
    # 1 / s_2 would overflow.
    lws = [[0.0, -1e4, 0.0], [-1e4, 0.0, 0.0], [-744.0, -1e4, 0.0]]
    q = softmax_rows(lws)
    assert 0.0 < q[2][0] < 2.2250738585072014e-308 and q[2][1] == 0.0
    pi = assert_kernel_is_the_loop_solve(lws)
    assert all(math.isfinite(v) and v >= 0.0 for v in pi) and pi[2] > 0.0


UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
DRAWS = st.one_of(st.sampled_from([0.0, ALMOST_ONE]), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=400)
@given(st.data())
def test_round_step_is_the_loop_round_bit_for_bit(data):
    n = data.draw(st.integers(1, 6))
    lws = [data.draw(st.lists(LOG_WEIGHTS, min_size=n, max_size=n)) for _ in range(n)]
    p = tuple(data.draw(st.lists(st.one_of(st.just(5e-324), UNIT), min_size=n, max_size=n)))
    g = data.draw(st.one_of(st.sampled_from([0.0, 0.05, 1e4]), st.floats(0.0, 10.0)))
    r = tuple(data.draw(st.lists(UNIT, min_size=n, max_size=n)))
    assert_same_bits(full_step(lws, p, g, r), loop_full_step(lws, p, g, r))
    b, x = data.draw(st.integers(0, n - 1)), data.draw(st.floats(0.0, 1e3))
    u, gamma = data.draw(DRAWS), data.draw(UNIT)
    got = bandit_step(lws, p, g, b, x, u, gamma)
    assert_same_bits(got, loop_bandit_step(lws, p, g, b, x, u, gamma))


@settings(max_examples=500)
@given(st.data())
def test_emitted_draw_is_sample_index(data):
    # Underflowed log-weights give the solved p zero entries.
    n = data.draw(st.integers(1, 8))
    lws = [data.draw(st.lists(LOG_WEIGHTS, min_size=n, max_size=n)) for _ in range(n)]
    u, gamma = data.draw(DRAWS), data.draw(UNIT)
    _, p, a, pa = bandit_step(lws, (1.0 / n,) * n, 0.0, 0, 0.0, u, gamma)
    keep, spread = 1.0 - gamma, gamma / n
    want = sample_index([keep * v + spread for v in p], Draw(u))
    assert (a, pa.hex()) == (want, (keep * p[want] + spread).hex())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_emitted_draw_falls_back_to_the_last_positive_entry(n):
    # Column n-1 underflows in every other row, so p_{n-1} is 0; seek p whose
    # left-to-right sum rounds to at most the draw just below 1.
    rng = random.Random(n)
    while True:
        lws = [[-1e4 if j == n - 1 != i else rng.uniform(-5.0, 5.0) for j in range(n)]
               for i in range(n)]
        _, p, a, pa = bandit_step(lws, (1.0 / n,) * n, 0.0, 0, 0.0, ALMOST_ONE, 0.0)
        acc = 0.0
        for v in p:
            acc += v
        if acc <= ALMOST_ONE:
            break
    assert p[-1] == 0.0 < p[-2]
    assert (a, pa) == (n - 2, p[-2]) == (sample_index(p, Draw(ALMOST_ONE)), p[-2])


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_each_step_is_written_with_one_exit_and_one_draw(n):
    # Writing the update, the return and the draw once keeps the code, and
    # so the compile time, at O(n^3): a return of the n^2 log-weights at
    # each exit and each draw test would make it O(n^4). Hedge steps too.
    def ops(kind, swap):
        return [(i.opname, i.argrepr) for i in dis.get_instructions(learners._emit_step(n, kind, swap))]

    for swap in (False, True):
        full, bandit = ops(False, swap), ops(True, swap)
        for code in (full, bandit):
            assert sum(op.startswith("RETURN_") for op, _ in code) == 1
        # The draw's `u < acc` tests are the step's only `<` comparisons.
        less = [sum(op == "COMPARE_OP" and arg.strip("bool()") == "<" for op, arg in code)
                for code in (full, bandit)]
        assert less == [0, n]


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


def test_one_action_chain_and_swap_regret_learner():
    assert gth([[1.0]]) == [1.0]
    prior = prior_from_games([game_matrix("one_row", [[1.0, 0.0]], [[0.0, 1.0]])])
    for kind in ("no_swap_regret_full", "no_swap_regret_bandit"):
        lrn, ref = pair(kind, 1, prior)
        assert play(lrn, ref, [(0.5, 0.5)] * 3) == [(1.0,)] * 3


def test_stationary_hand_solved_three_state_chain():
    q = [[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]]
    pi = gth(q)
    assert max(abs(a - b) for a, b in zip(pi, (0.4, 0.2, 0.4))) <= 1e-15


def test_stationary_slowly_mixing_chain_is_exact_where_a_step_rule_is_not():
    # Birth-death chain, off-diagonals 1e-6..3e-6: detailed balance gives
    # pi proportional to (1, 2e-6/1e-6, 2 * 3e-6/1e-6) = (1, 2, 6).
    q = [[1 - 2e-6, 2e-6, 0.0], [1e-6, 1 - 4e-6, 3e-6], [0.0, 1e-6, 1 - 1e-6]]
    hand = (1 / 9, 2 / 9, 6 / 9)
    pi = gth(q)
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
    pi = gth(q)
    assert pi == pytest.approx(hand, abs=1e-16)
    assert residual(pi, q) <= 1e-16


UNIT_ENTRIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),
)


@settings(max_examples=1000)
@given(UNIT_ENTRIES, UNIT_ENTRIES)
def test_stationary_two_states_is_the_closed_form_bit_for_bit(q01, q10):
    s = q01 + q10
    closed = [q10 / s, q01 / s] if s else [0.0, 1.0]
    pi = gth([[1.0 - q01, q01], [q10, 1.0 - q10]])
    assert [v.hex() for v in pi] == [v.hex() for v in closed]


@settings(max_examples=300)
@given(st.data())
def test_stationary_solves_random_chains(data):
    n = data.draw(st.integers(2, 8))
    weights = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    q = [[w / sum(row) for w in row] for row in (data.draw(weights) for _ in range(n))]
    pi = gth(q)
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
    pi = gth(q)
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
