"""Optimistic Stackelberg values and margin-perturbed commitments, all via
small dense LPs.

The optimistic Stackelberg value is computed with the standard per-follower-
action formulation: for each pure follower reply, maximize the leader's
payoff over her simplex subject to that reply being a follower best response,
then take the best feasible reply. Ties therefore resolve in the leader's
favor automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolatedError, InvalidArgumentError
from .games import GameMatrix, MixedStrategy, Prior
from .lp import OPTIMAL, lp_solve

DEFAULT_TIE_TOL = 1e-7


@dataclass(frozen=True)
class StackelbergSolution:
    value: float
    leader_strategy: MixedStrategy
    follower_action: int
    per_follower_action_values: tuple[float, ...]  # -inf marks infeasible replies


def _orient(g: GameMatrix, leader: int):
    """(lead, fol): lead[a][f] is the leader's payoff when she plays pure a and
    the follower replies f; fol[f][a] is the follower's payoff at that profile.
    """
    if leader not in (1, 2):
        raise InvalidArgumentError(f"leader must be 1 or 2, got {leader}")
    return g.own_payoffs(leader), g.own_payoffs(3 - leader)


def stackelberg_value(g: GameMatrix, leader: int) -> StackelbergSolution:
    """Optimistic Stackelberg value and commitment for `leader`."""
    lead, fol = _orient(g, leader)
    n_lead, n_fol = len(lead), len(fol)
    per_vals: list[float] = []
    best: tuple[float, MixedStrategy, int] | None = None
    for f in range(n_fol):
        rows = []
        for f2 in range(n_fol):
            if f2 != f:
                rows.append([fol[f2][a] - fol[f][a] for a in range(n_lead)])
        sol = lp_solve(
            c=[row[f] for row in lead],
            a_ub=rows,
            b_ub=[0.0] * len(rows),
            a_eq=[[1.0] * n_lead],
            b_eq=[1.0],
        )
        if sol.status != OPTIMAL:
            per_vals.append(-math.inf)
            continue
        per_vals.append(sol.value)
        if best is None or sol.value > best[0]:
            best = (sol.value, sol.x, f)
    if best is None:  # unreachable: some reply is a best response to any commitment
        raise AssumptionViolatedError("no feasible follower reply found")
    value, x, f = best
    strategy = tuple(min(max(v, 0.0), 1.0) for v in x)
    s = sum(strategy)
    strategy = tuple(v / s for v in strategy)
    return StackelbergSolution(value, strategy, f, tuple(per_vals))


def stackval_prior(prior: Prior, player: int) -> float:
    """Prior-expected optimistic Stackelberg value for `player` as leader."""
    return sum(w * stackelberg_value(g, player).value for g, w in prior.entries)


def commitment_margin(g: GameMatrix, leader: int, target_reply: int) -> tuple[MixedStrategy, float]:
    """Leader mixture maximizing the follower's preference gap for target_reply.

    Returns (x_bar, c) with U_f(x_bar, target) >= U_f(x_bar, other) + c for all
    other replies, c maximized. c > 0 iff target_reply can be made the strict
    unique best response (Farkas direction of the no-weak-dominance assumption).
    With a single follower action the margin is unconstrained (+inf).
    """
    _, fol = _orient(g, leader)
    n_lead, n_fol = len(fol[0]), len(fol)
    if not 0 <= target_reply < n_fol:
        raise InvalidArgumentError(f"follower action {target_reply} out of range")
    if n_fol == 1:
        return tuple([1.0 / n_lead] * n_lead), math.inf
    rows = []
    for f2 in range(n_fol):
        if f2 != target_reply:
            rows.append(
                [fol[f2][a] - fol[target_reply][a] for a in range(n_lead)] + [1.0]
            )
    sol = lp_solve(
        c=[0.0] * n_lead + [1.0],
        a_ub=rows,
        b_ub=[0.0] * len(rows),
        a_eq=[[1.0] * n_lead + [0.0]],
        b_eq=[1.0],
        free=[n_lead],
    )
    if sol.status != OPTIMAL:
        raise AssumptionViolatedError("margin LP unsolvable")
    x_bar = tuple(min(max(v, 0.0), 1.0) for v in sol.x[:n_lead])
    s = sum(x_bar)
    return tuple(v / s for v in x_bar), sol.value


def perturbed_commitment(
    g: GameMatrix, leader: int, delta: float
) -> tuple[MixedStrategy, float]:
    """(1-delta) Stackelberg commitment + delta margin mixture, with the
    achieved preference margin delta*c making the target reply strictly unique.
    """
    if not 0.0 < delta <= 1.0:
        raise InvalidArgumentError(f"delta must be in (0,1], got {delta!r}")
    sol = stackelberg_value(g, leader)
    x_bar, c = commitment_margin(g, leader, sol.follower_action)
    if c <= 1e-12:
        raise AssumptionViolatedError(
            f"target reply {sol.follower_action} admits no strict margin "
            "(weakly dominated, so the commitment construction does not apply)"
        )
    x_star = sol.leader_strategy
    mix = tuple((1.0 - delta) * a + delta * b for a, b in zip(x_star, x_bar))
    s = sum(mix)
    mix = tuple(v / s for v in mix)
    margin = delta * c if math.isfinite(c) else math.inf
    return mix, margin
