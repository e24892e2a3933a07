import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grid_oracle import grid_stackelberg, maximin_two_actions, random_leader_follower_game
from stratlab.errors import AssumptionViolatedError, InvalidArgumentError
from stratlab.games import game_matrix
from stratlab.solve import (
    commitment_margin,
    perturbed_commitment,
    stackelberg_value,
    stackval_prior,
)


# ---------------------------------------------------------------------------
# Stackelberg values (builtin two-game family; grid oracle agreement)
# ---------------------------------------------------------------------------


def test_two_game_family_stackelberg(fig1_g1, fig1_g2):
    s = stackelberg_value(fig1_g1, 2)
    assert s.value == pytest.approx(1.0, abs=1e-9)
    assert s.leader_strategy == pytest.approx((1.0, 0.0))
    assert s.follower_action == 0  # reply A

    s = stackelberg_value(fig1_g2, 2)
    assert s.value == pytest.approx(2.0, abs=1e-9)
    assert s.leader_strategy == pytest.approx((0.0, 1.0))
    assert s.follower_action == 1  # reply B

    s = stackelberg_value(fig1_g1, 1)
    assert s.value == pytest.approx(16.0, abs=1e-9)
    assert s.follower_action == 0  # reply C

    s = stackelberg_value(fig1_g2, 1)
    assert s.value == pytest.approx(1.0, abs=1e-9)
    assert s.follower_action == 0


def test_stackelberg_matches_grid_on_family(fig1_g1, fig1_g2):
    for g, leader in ((fig1_g1, 1), (fig1_g1, 2), (fig1_g2, 1), (fig1_g2, 2)):
        oracle, _ = grid_stackelberg(g, leader)
        assert stackelberg_value(g, leader).value == pytest.approx(oracle, abs=2e-3)


def test_stackval_prior(fig1_prior):
    assert stackval_prior(fig1_prior, 2) == pytest.approx(1.5, abs=1e-9)
    assert stackval_prior(fig1_prior, 1) == pytest.approx(8.5, abs=1e-9)


def test_stackval_single_game_prior(fig1_g1):
    from stratlab.games import prior_from_games

    p = prior_from_games([fig1_g1])
    assert stackval_prior(p, 1) == pytest.approx(16.0, abs=1e-9)


def test_solution_invariants(fig1_g2):
    s = stackelberg_value(fig1_g2, 2)
    finite = [v for v in s.per_follower_action_values if v != -math.inf]
    assert s.value == pytest.approx(max(finite), abs=1e-9)
    assert s.per_follower_action_values[s.follower_action] == pytest.approx(s.value, abs=1e-9)
    assert sum(s.leader_strategy) == pytest.approx(1.0, abs=1e-9)


def test_solver_oracle_equivalence_suite():
    """200 random 2xk games, integer payoffs, vs the 1e-4-step grid oracle."""
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        u1, u2 = random_leader_follower_game(rng, k)
        g = game_matrix("rnd", u1, u2)
        oracle, _ = grid_stackelberg(g, 1, step=1e-4, tie_tol=1e-7)
        assert stackelberg_value(g, 1).value == pytest.approx(oracle, abs=2e-3)


@given(st.integers(0, 2**32), st.floats(0.25, 4.0))
@settings(max_examples=40)
def test_leader_scale_invariance(seed, lam):
    rng = np.random.default_rng(seed)
    u1, u2 = random_leader_follower_game(rng, 3)
    g = game_matrix("rnd", u1, u2)
    base = stackelberg_value(g, 1)
    scaled = stackelberg_value(game_matrix("scaled", [[lam * v for v in r] for r in u1], u2), 1)
    assert scaled.value == pytest.approx(lam * base.value, abs=1e-6 * max(1.0, lam))
    assert scaled.follower_action == base.follower_action
    assert scaled.leader_strategy == pytest.approx(base.leader_strategy, abs=1e-6)


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_value_at_least_maximin(seed):
    rng = np.random.default_rng(seed)
    u1, u2 = random_leader_follower_game(rng, 3)
    g = game_matrix("rnd", u1, u2)
    assert stackelberg_value(g, 1).value >= maximin_two_actions(g.u1) - 1e-8


# ---------------------------------------------------------------------------
# Perturbed commitments
# ---------------------------------------------------------------------------


def test_perturbed_commitment_examples(fig1_g1, fig1_g2):
    strat, margin = perturbed_commitment(fig1_g1, 1, 0.1)
    assert strat == pytest.approx((1.0, 0.0))
    assert margin == pytest.approx(3.3, abs=1e-9)  # 0.1 * (33 gap at pure A)

    strat, margin = perturbed_commitment(fig1_g2, 2, 0.05)
    assert strat == pytest.approx((0.0, 1.0))
    assert margin == pytest.approx(0.005, abs=1e-9)  # 0.05 * (0.1 gap at pure D)


def test_perturbed_commitment_delta_one_returns_margin_mixture(fig1_g1):
    x_bar, c = commitment_margin(fig1_g1, 1, stackelberg_value(fig1_g1, 1).follower_action)
    strat, margin = perturbed_commitment(fig1_g1, 1, 1.0)
    assert strat == pytest.approx(x_bar)
    assert margin == pytest.approx(c)


def test_perturbed_commitment_bad_delta(fig1_g1):
    with pytest.raises(InvalidArgumentError):
        perturbed_commitment(fig1_g1, 1, 0.0)
    with pytest.raises(InvalidArgumentError):
        perturbed_commitment(fig1_g1, 1, 1.5)


def test_perturbed_commitment_dominated_target_rejected():
    # Follower's only best reply is weakly dominated-by-tie: two identical columns.
    g = game_matrix("tie", [[1.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(AssumptionViolatedError):
        perturbed_commitment(g, 1, 0.1)


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_perturbed_margin_forces_unique_reply(seed):
    rng = np.random.default_rng(seed)
    u1, u2 = random_leader_follower_game(rng, 3)
    g = game_matrix("rnd", u1, u2)
    try:
        strat, margin = perturbed_commitment(g, 1, 0.2)
    except AssumptionViolatedError:
        return  # degenerate target reply; construction inapplicable by design
    assert margin > 0
    target = stackelberg_value(g, 1).follower_action
    vals = [sum(x * u2[a][b] for a, x in enumerate(strat)) for b in range(3)]
    assert {b for b, v in enumerate(vals) if v >= max(vals) - margin / 2} == {target}
