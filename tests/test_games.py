import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from stratlab.engine import ExperimentConfig, run_summaries
from stratlab.errors import InvalidArgumentError
from stratlab.games import (
    CSP,
    Prior,
    SignalModel,
    add_up,
    builtin_game,
    builtin_prior,
    game_from_dict,
    game_matrix,
    game_to_dict,
    load_prior,
    prior_draw,
    prior_from_dict,
    prior_from_games,
    prior_to_dict,
    sample_index,
    sample_signal,
    two_game_family_g1,
)
from stratlab.learners import LearnerSpec


def one_trial(g, spec1, spec2, horizon):
    """Summary of one trial of spec1 vs spec2 in the single-game prior of g."""
    cfg = ExperimentConfig(
        prior=prior_from_games([g]),
        signal_model=SignalModel(1.0, 1.0),
        spec1=spec1,
        spec2=spec2,
        horizon=horizon,
        trials=1,
    )
    return run_summaries(cfg)[0]


def constant(action):
    return LearnerSpec("constant_action", {"action": action})


# ---------------------------------------------------------------------------
# Types and invariants
# ---------------------------------------------------------------------------


def test_game_matrix_validation():
    with pytest.raises(InvalidArgumentError):
        game_matrix("bad", [[1.0, 2.0]], [[1.0]])
    with pytest.raises(InvalidArgumentError):
        game_matrix("bad", [[math.inf]], [[0.0]])
    g = game_matrix("ok", [[1, 2], [3, 4]], [[0, 0], [0, 0]])
    assert (g.n1, g.n2) == (2, 2)
    assert g.action_labels1 == ("A", "B")


def test_payoff_accessors_take_only_player_1_or_2():
    g = game_matrix("ok", [[1, 2, 3], [4, 5, 6]], [[0, -1, 0], [7, 0, 0]])
    assert g.own_payoffs(2) == ((0.0, 7.0), (-1.0, 0.0), (0.0, 0.0))
    assert (g.payoff_range(1), g.payoff_range(2)) == ((1.0, 6.0), (-1.0, 7.0))
    for player in (0, 3, -1):
        with pytest.raises(InvalidArgumentError, match="player must be 1 or 2"):
            g.own_payoffs(player)
        with pytest.raises(InvalidArgumentError, match="player must be 1 or 2"):
            g.payoff_range(player)


def test_prior_validation():
    g = game_matrix("g", [[1]], [[1]])
    with pytest.raises(InvalidArgumentError):
        Prior(((g, 0.7),))
    g2 = game_matrix("g2", [[1, 2]], [[1, 2]])
    with pytest.raises(InvalidArgumentError):
        prior_from_games([g, g2])
    p = prior_from_games([g, g])
    assert p.weights == (0.5, 0.5)


def test_csp_validation():
    CSP(((0.5, 0.0), (0.25, 0.25)))
    with pytest.raises(InvalidArgumentError):
        CSP(((0.5, 0.0), (0.0, 0.0)))


# ---------------------------------------------------------------------------
# sample_signal
# ---------------------------------------------------------------------------


def test_signal_precision_one_always_realized(fig1_prior):
    rng = random.Random(0)
    assert all(sample_signal(fig1_prior, 0, 1.0, rng) == 0 for _ in range(200))


def test_signal_precision_zero_is_prior_draw(fig1_prior):
    rng = random.Random(1)
    n = 100_000
    hits = sum(sample_signal(fig1_prior, 1, 0.0, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_signal_half_precision_frequency(fig1_prior):
    # Pr[s = realized] = p + (1-p) * prior(realized) = 0.75 at p = 0.5.
    rng = random.Random(2)
    n = 100_000
    hits = sum(sample_signal(fig1_prior, 0, 0.5, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.75) <= 3 * math.sqrt(0.25 / n)


def test_signal_index_out_of_range(fig1_prior):
    with pytest.raises(InvalidArgumentError):
        sample_signal(fig1_prior, 5, 1.0, random.Random(0))


def test_draw_past_rounded_sum_never_returns_zero_weight_game(fig1_g1):
    # The weights sum to 1 within the prior's 1e-9 tolerance but not to the
    # draw, so the scan runs off the end of the cumulative sum.
    prior = Prior(((fig1_g1, 0.5), (fig1_g1, 0.4999999995), (fig1_g1, 0.0)))

    class Stub:
        def random(self):
            return 0.9999999999

    assert prior_draw(prior, Stub()) == 1
    assert sample_signal(prior, 0, 0.0, Stub()) == 1


def scan(probs, rng):
    """The categorical draw written out: the first index whose cumulative
    positive weight exceeds one rng.random(), else the last positive index."""
    r = rng.random()
    acc, last = 0.0, 0
    for i, p in enumerate(probs):
        if p > 0.0:
            acc += p
            last = i
            if r < acc:
                return i
    return last


class AlmostOne:
    """A stub rng whose draw is the largest float below 1, past most rounded sums."""

    def random(self):
        return 1.0 - 2.0**-53


def test_add_up_adds_left_to_right_on_every_python():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (builtin sum() from
    # Python 3.12 on) would keep the 1.0.
    assert add_up([1e16, 1.0, -1e16]) == 0.0
    assert add_up(v for v in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
    assert add_up([]) == 0.0 and isinstance(add_up([]), float)


@pytest.mark.parametrize("seed", range(12))
def test_sample_index_scans_the_mixture_without_building_it(seed):
    # One pass over the entries, with no cumulative array: on a distribution
    # with zero entries and on the exploration mixtures the bandits draw
    # from, built as their oracles build them.
    gen = random.Random(seed)
    n = gen.randint(1, 6)
    p = [gen.random() if gen.random() < 0.7 else 0.0 for _ in range(n)]
    if not any(p):
        p[gen.randrange(n)] = 1.0
    total = sum(p)
    p = [v / total for v in p]
    for gamma in (None, 0.0, 1.0, gen.random()):
        q = p if gamma is None else [(1.0 - gamma) * v + gamma / n for v in p]
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert sample_index(q, mine) == scan(q, ref)
        assert mine.getstate() == ref.getstate()
        assert sample_index(q, AlmostOne()) == scan(q, AlmostOne())


# ---------------------------------------------------------------------------
# Expected utility of a round (folded by the engine)
# ---------------------------------------------------------------------------


def test_expected_utility_matrix_entries(fig1_g1):
    for a in range(2):
        for b in range(2):
            s = one_trial(fig1_g1, constant(a), constant(b), horizon=1)
            assert (s.avg_u1, s.avg_u2) == (fig1_g1.u1[a][b], fig1_g1.u2[a][b])


def test_expected_utility_mixed_hand_value(fig1_g1):
    # Multiplicative weights plays (0.5, 0.5) in round 1: (1 - 32 + 0 + 2) / 4.
    mw = LearnerSpec("multiplicative_weights")
    assert one_trial(fig1_g1, mw, mw, horizon=1).avg_u2 == pytest.approx(-7.25)


# ---------------------------------------------------------------------------
# CSP operations
# ---------------------------------------------------------------------------


def test_csp_from_constant_trajectory(fig1_g1):
    s = one_trial(fig1_g1, constant(0), constant(0), horizon=100)
    assert s.csp_mass == ((1.0, 0.0), (0.0, 0.0))


def test_csp_two_point_average():
    # Best responders play (A,C) against a uniform opponent in round 1, then
    # (B,D) in reply to it.
    g = game_matrix("alternate", [[0, 3], [1, 0]], [[0, 1], [3, 0]])
    br = LearnerSpec("best_responder")
    s = one_trial(g, br, br, horizon=2)
    assert s.csp_mass == ((0.5, 0.0), (0.0, 0.5))


def test_csp_outer_product(fig1_g1):
    mw = LearnerSpec("multiplicative_weights")
    s = one_trial(fig1_g1, mw, constant(0), horizon=1)
    assert s.csp_mass == ((0.5, 0.0), (0.5, 0.0))


@given(st.integers(0, 2**32), st.integers(1, 30))
def test_csp_from_trajectory_is_valid(seed, t):
    rng = random.Random(seed)
    g = game_matrix(
        "rnd",
        [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(2)],
        [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(2)],
    )
    s = one_trial(g, LearnerSpec("multiplicative_weights"), LearnerSpec("bandit_exp3"), t)
    csp = CSP(s.csp_mass)  # validates the total against 1
    assert all(v >= 0 for row in csp.mass for v in row)


# ---------------------------------------------------------------------------
# Builtin families and file formats
# ---------------------------------------------------------------------------


def test_builtin_two_game_family_matrices(fig1_g1, fig1_g2):
    assert fig1_g1.u1 == ((16.0, 16.0), (2.0, 0.0))
    assert fig1_g1.u2 == ((1.0, -32.0), (0.0, 2.0))
    assert fig1_g2.u1 == ((1.0, 0.0), (0.9, 0.1))
    assert fig1_g2.u2 == fig1_g1.u2
    g = builtin_game("fig1_g1:gamma=0.5")
    assert g.u1[0][0] == pytest.approx(32.0)
    assert g.u2[0][1] == pytest.approx(-64.0)


def test_builtin_revealing_family_matrices(example41_prior):
    g1, g2 = example41_prior.games
    assert g1.u1 == g2.u1 == ((1.0, -1.0), (0.0, 2.0))
    assert g1.u2 == ((1.0, 5.0), (2.0, 5.0))
    assert g2.u2 == ((3.0, 0.0), (7.0, 8.0))


def test_builtin_bad_refs():
    with pytest.raises(InvalidArgumentError):
        builtin_game("fig1_g3")
    with pytest.raises(InvalidArgumentError):
        builtin_game("fig1_g1:gamma=0")
    with pytest.raises(InvalidArgumentError):
        builtin_game("fig1_g1:gamma=oops")
    with pytest.raises(InvalidArgumentError):
        builtin_prior("nope")
    with pytest.raises(InvalidArgumentError, match="bad arguments"):  # example41 takes none
        builtin_prior("example41:gamma=0.5")


def test_game_json_roundtrip(fig1_g1, tmp_path):
    d = game_to_dict(fig1_g1)
    assert set(d) == {"name", "actions1", "actions2", "u1", "u2"}
    assert game_from_dict(d).u1 == fig1_g1.u1

    path = tmp_path / "prior.json"
    prior = builtin_prior("fig1:gamma=1")
    path.write_text(json.dumps(prior_to_dict(prior)))
    loaded = load_prior(str(path))
    assert loaded.games[0].u1 == prior.games[0].u1


def test_prior_json_with_builtin_refs():
    prior = prior_from_dict(
        {"games": [{"weight": 0.5, "game": "fig1_g1:gamma=1"}, {"weight": 0.5, "game": "fig1_g2:gamma=1"}]}
    )
    assert prior.games[0].name == "fig1_g1:gamma=1"
    assert prior.games[1].u2 == two_game_family_g1(1.0).u2
    with pytest.raises(InvalidArgumentError):
        prior_from_dict({"games": []})
