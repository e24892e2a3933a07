import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grid_oracle import grid_stackelberg, maximin_two_actions, random_leader_follower_game
from stratlab import solve
from stratlab.errors import AssumptionViolatedError, InvalidArgumentError
from stratlab.games import add_up, game_matrix
from stratlab.lp import FEAS_TOL
from stratlab.solve import (
    _margin,
    _orient,
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
@example(seed=57358, lam=3.0)  # replies 0 and 2 tie; after scaling, 2 wins by one ulp
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


def scaled_game(u1, u2, scale):
    return game_matrix("scaled", [[scale * v for v in r] for r in u1], [[scale * v for v in r] for r in u2])


def solved(g, leader):
    """(stackelberg_value, perturbed_commitment at delta 0.1 or None)."""
    try:
        commitment = perturbed_commitment(g, leader, 0.1)
    except AssumptionViolatedError:
        commitment = None
    return stackelberg_value(g, leader), commitment


def test_large_payoffs_keep_a_feasible_follower_reply():
    # Times 1e8 with player 2 leading, the LPs on unscaled payoffs found no
    # feasible reply at all.
    u1, u2 = [[-4, 4, -6], [7, 3, 8]], [[1, 8, 3], [-4, 3, 8]]
    base = stackelberg_value(game_matrix("g", u1, u2), 2)
    big = stackelberg_value(scaled_game(u1, u2, 1e8), 2)
    assert big.value == pytest.approx(1e8 * base.value, rel=1e-12)
    assert big.follower_action == base.follower_action
    assert big.leader_strategy == base.leader_strategy


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 13, 2)])
def test_solves_agree_at_every_payoff_scale(scale):
    rng = random.Random(7)
    for _ in range(100):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        u1, u2 = ([[rng.randint(-9, 9) for _ in range(n2)] for _ in range(n1)] for _ in range(2))
        for leader in (1, 2):
            base, base_commitment = solved(game_matrix("g", u1, u2), leader)
            sol, commitment = solved(scaled_game(u1, u2, scale), leader)
            assert sol.value == pytest.approx(scale * base.value, rel=1e-9)
            assert sol.follower_action == base.follower_action
            assert sol.leader_strategy == pytest.approx(base.leader_strategy, abs=1e-9)
            assert (commitment is None) == (base_commitment is None)
            if commitment is not None:
                assert commitment[0] == pytest.approx(base_commitment[0], abs=1e-9)
                assert commitment[1] == pytest.approx(scale * base_commitment[1], rel=1e-9)


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


def test_perturbed_commitment_with_one_follower_action():
    # The margin is unconstrained; at delta = 1 the mixture is the margin
    # LP's, which is uniform here.
    g = game_matrix("one_reply", [[1.0], [2.0], [0.0]], [[0.0], [0.0], [0.0]])
    assert perturbed_commitment(g, 1, 1.0) == ((1 / 3, 1 / 3, 1 / 3), math.inf)


def test_perturbed_commitment_examples(fig1_g1, fig1_g2):
    strat, margin = perturbed_commitment(fig1_g1, 1, 0.1)
    assert strat == pytest.approx((1.0, 0.0))
    assert margin == pytest.approx(3.3, abs=1e-9)  # 0.1 * (33 gap at pure A)

    strat, margin = perturbed_commitment(fig1_g2, 2, 0.05)
    assert strat == pytest.approx((0.0, 1.0))
    assert margin == pytest.approx(0.005, abs=1e-9)  # 0.05 * (0.1 gap at pure D)


def test_perturbed_commitment_delta_one_returns_margin_mixture(fig1_g1):
    # At delta = 1 the mixture is the margin LP's: the follower prefers the
    # Stackelberg reply to every other reply by at least the margin.
    target = stackelberg_value(fig1_g1, 1).follower_action
    strat, margin = perturbed_commitment(fig1_g1, 1, 1.0)
    vals = [sum(x * row[b] for x, row in zip(strat, fig1_g1.u2)) for b in range(fig1_g1.n2)]
    assert margin > 0
    for b, v in enumerate(vals):
        if b != target:
            assert vals[target] >= v + margin - 1e-9


def test_perturbed_commitment_bad_delta(fig1_g1):
    with pytest.raises(InvalidArgumentError):
        perturbed_commitment(fig1_g1, 1, 0.0)
    with pytest.raises(InvalidArgumentError):
        perturbed_commitment(fig1_g1, 1, 1.5)


@pytest.mark.parametrize(
    "leader, message",
    [
        (True, "leader must be an integer, got True"),
        (2.0, "leader must be an integer, got 2.0"),
        ("1", "leader must be an integer, got '1'"),
        (0, "leader must be 1 or 2, got 0"),
        (3, "leader must be 1 or 2, got 3"),
    ],
)
def test_bad_leader_rejected(fig1_g1, leader, message):
    with pytest.raises(InvalidArgumentError, match=message):
        stackelberg_value(fig1_g1, leader)
    with pytest.raises(InvalidArgumentError, match=message):
        perturbed_commitment(fig1_g1, leader, 0.1)


@pytest.mark.parametrize(
    "delta, message",
    [
        (True, "delta must be a number, got True"),
        ("0.1", "delta must be a number, got '0.1'"),
        (None, "delta must be a number, got None"),
        (math.nan, r"delta must be in \(0,1\], got nan"),
    ],
)
def test_bad_delta_rejected(fig1_g1, delta, message):
    with pytest.raises(InvalidArgumentError, match=message):
        perturbed_commitment(fig1_g1, 1, delta)


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


# ---------------------------------------------------------------------------
# The pruned reply search of perturbed_commitment
# ---------------------------------------------------------------------------


def commitment_oracle(g, leader, delta):
    """perturbed_commitment built from stackelberg_value, which solves the LP
    of every follower reply, and the margin LP of the reply it selects."""
    sol = stackelberg_value(g, leader)
    _, _, fol, e_fol = _orient(g, leader)
    x_bar, c = _margin(fol, sol.follower_action)
    if c <= 1e-12:
        raise AssumptionViolatedError("target reply admits no strict margin")
    mix = tuple((1.0 - delta) * a + delta * b for a, b in zip(sol.leader_strategy, x_bar))
    s = add_up(mix)
    return tuple(v / s for v in mix), math.ldexp(delta * c, e_fol)


@st.composite
def small_games(draw):
    """Games with 1-8 actions per player and integer payoffs in a small
    range, so that replies often tie, player 1's scaled by 10**k for k in
    -3..6. The skip rule's slack 2n * FEAS_TOL passes 1e-6 from n = 6 on."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.sampled_from([1, 2, 3, 9, 99]))
    cell = st.integers(-k, k)
    rows = st.lists(st.lists(cell, min_size=n2, max_size=n2), min_size=n1, max_size=n1)
    scale = 10 ** draw(st.integers(-3, 6))
    return game_matrix("g", [[v * scale for v in row] for row in draw(rows)], draw(rows))


@given(small_games(), st.sampled_from([1, 2]), st.sampled_from([0.1, 1.0]))
@settings(max_examples=400)
def test_pruned_commitment_is_the_full_search_bit_for_bit(g, leader, delta):
    def outcome(build):
        try:
            mix, margin = build(g, leader, delta)
        except AssumptionViolatedError:
            return "raises"
        return [v.hex() for v in mix], margin.hex()

    assert outcome(perturbed_commitment) == outcome(commitment_oracle)


def test_perturbed_commitment_solves_fewer_lps_than_replies():
    # Counted as scripts/solve_cost.py counts them, on its 16 seeded 8x8
    # games for both leaders: through bench/tracer.py's wrapper of
    # solve.lp_solve. stackelberg_value solves every reply's LP. Without
    # pruning a perturbed commitment solves those and one margin LP, 9 in
    # all; the pruned search averages 4.03.
    scripts = str(Path(__file__).resolve().parent.parent / "scripts")
    sys.path.insert(0, scripts)
    try:
        import solve_cost
    finally:
        sys.path.remove(scripts)
    games = [game_matrix("g", *p) for p in solve_cost.payoffs(8, 16)]
    assert solve_cost.lp_solves(solve, "stackelberg_value", games) == 32 * 8
    assert solve_cost.lp_solves(solve, "perturbed_commitment", games) / 32 < 5


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("above, solves", [(True, 2), (False, 1)])
def test_the_search_skips_a_reply_by_its_bound_plus_the_slack(monkeypatch, n, above, solves):
    # A stub LP whose value is its bound: reply 0 (bound 0.5) gives the best
    # value, and reply 1's bound lies 1e-12 above or below the point where
    # its bound plus 2n * FEAS_TOL leaves the tie window below that value.
    calls = []

    def stub(c, rows, free=False):
        calls.append(c)
        return (1.0,) + (0.0,) * (len(c) - 1), max(c)

    monkeypatch.setattr(solve, "lp_solve", stub)
    edge = 0.5 - 1e-9 - 2 * n * FEAS_TOL
    lead = [[0.5, edge + (1e-12 if above else -1e-12)]] + [[0.0, 0.0]] * (n - 1)
    fol = [[0.0] * n, [0.0] * n]
    assert solve._stackelberg_reply(lead, fol) == (0, (1.0,) + (0.0,) * (n - 1))
    assert len(calls) == solves


def test_an_off_simplex_reply_lp_raises():
    # Payoffs spanning nine orders of magnitude: reply 0's LP ends at x =
    # (0, 0, 0, 0, 38.9), off the simplex, which gave the value 194.68 while
    # player 2's largest payoff is 8. perturbed_commitment's search never
    # solves that LP (its bound lies below the best value found).
    u1 = [[0, -3, -0.006, 2, 3.5e6], [-6.3e6, 0.008, -2.5, -0.001, 2.8e6],
          [-4.2e6, 0.003, -0.007, 4.5, -4.2e6], [6.3e6, -6.3e6, 3.5, -0.009, 0.003],
          [0.003, -2.5, 0.001, 2, -0.001]]
    u2 = [[-5, 6, 1.5, 2.4, 5], [-2, -1, -2, -1.5, 0], [2.1, 2.1, 2, 5, 8],
          [2, 1.2, -4, 8, -2.7], [-8, -4, -2.1, 4, 0]]
    g = game_matrix("g", u1, u2)
    lead, _, fol, _ = _orient(g, 2)
    with pytest.raises(AssumptionViolatedError, match=r"\(0\.0, 0\.0, 0\.0, 0\.0, 38\.9\d*\) lies off"):
        solve._reply_lp(lead, fol, 0)
    with pytest.raises(AssumptionViolatedError, match="lies off the simplex"):
        stackelberg_value(g, 2)
    mix, margin = perturbed_commitment(g, 2, 0.1)
    assert margin > 0 and sum(mix) == pytest.approx(1.0)


def test_an_off_simplex_margin_lp_raises():
    # Player 1's payoffs span 1e-3 to 2e6. The margin LP of the Stackelberg
    # reply 3 ends at x = (1.0001, -0.0001); clamped to (1, 0), it gave the
    # margin 1.0, above the largest margin 0.1 * 9.999 of any commitment.
    u1 = [[-0.001, -20.0], [-2e6, -2.0], [0.001, 0.0], [10.0, 0.0]]
    u2 = [[0, 2], [2, -2], [2, 0], [1, -2]]
    g = game_matrix("g", u1, u2)
    assert stackelberg_value(g, 2).follower_action == 3
    with pytest.raises(AssumptionViolatedError, match=r"\(1\.0001\d*, -0\.0001\d*\) lies off"):
        perturbed_commitment(g, 2, 0.1)


# ---------------------------------------------------------------------------
# Bit-for-bit pin of both solver entry points
# ---------------------------------------------------------------------------


def digest_payoff(rng, player, k):
    """An integer in [-k, k], or with k None a mixed-scale entry: for player 1
    +-{1, 2, 3, 9, 99} * 10**e with e in -3..6, for player 2 an integer in
    [-9, 9]."""
    if k is not None:
        return rng.randint(-k, k)
    if player == 2:
        return rng.randint(-9, 9)
    m, e = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 9, 99]), rng.randint(-3, 6)
    return m * 10 ** e if e >= 0 else m / 10 ** -e  # each correctly rounded


def solver_digest(games: int = 600, mixed: bool = False) -> tuple[str, int]:
    """(sha256, raises): the sha256 is over the float.hex of
    stackelberg_value's and (at delta 0.1) perturbed_commitment's outputs, or
    the exception type where one raises, on `games` seeded games with 1-8
    actions for both leaders, of integer or (`mixed`) mixed-scale payoffs
    (digest_payoff)."""
    rng = random.Random(30 if mixed else 25)
    h = hashlib.sha256()
    raises = 0
    for _ in range(games):
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        k = None if mixed else rng.choice([1, 2, 3, 9, 99])
        u1, u2 = ([[digest_payoff(rng, p, k) for _ in range(n2)] for _ in range(n1)] for p in (1, 2))
        g = game_matrix("g", u1, u2)
        for leader in (1, 2):
            for fn in (stackelberg_value, lambda g, leader: perturbed_commitment(g, leader, 0.1)):
                try:
                    out = fn(g, leader)
                except (AssumptionViolatedError, InvalidArgumentError) as e:
                    h.update(type(e).__name__.encode())
                    raises += 1
                    continue
                if isinstance(out, tuple):
                    mix, margin = out
                    words = [v.hex() for v in (*mix, margin)]
                else:
                    words = [v.hex() for v in (out.value, *out.leader_strategy,
                                               *out.per_follower_action_values)]
                    words.append(str(out.follower_action))
                h.update(" ".join(words).encode() + b";")
    return h.hexdigest(), raises


def test_solver_outputs_are_pinned_bit_for_bit():
    # Any change to a solver's floats, its chosen reply or what raises moves
    # this digest; a change that means to move it says why in CHANGES.md.
    digest = "f1eb1f2915207da8f5fd9aafea3a0f97c6c876e049d1403bc0ec861d68d727c8"
    assert solver_digest() == (digest, 154)


def test_mixed_scale_solver_outputs_are_pinned_bit_for_bit():
    # Player 1's payoffs span up to nine orders of magnitude, so LP solves
    # raise on points off the simplex besides the raises on dominated
    # targets (5 and 8 of the 13 here): what raises is pinned with the floats.
    digest = "c6198e4bb1ec5043105d88073d141788b7d20710f9f1347561cccbc36d8c4d9e"
    assert solver_digest(300, mixed=True) == (digest, 13)
