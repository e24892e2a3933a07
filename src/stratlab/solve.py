"""Optimistic Stackelberg values and margin-perturbed commitments, all via
small dense LPs.

The optimistic Stackelberg value is computed with the standard per-follower-
action formulation: for each pure follower reply, maximize the leader's
payoff over her simplex subject to that reply being a follower best response,
then take the best feasible reply (the multiple-LPs method of Conitzer and
Sandholm 2006). Ties therefore resolve in the leader's favor automatically.
A perturbed commitment needs only the winning reply, so it solves only the
reply LPs whose value can reach the best one found (_stackelberg_reply).
Each player's payoffs enter the LPs scaled by a power of two (_scaled), so
the LP tolerances hold at any payoff scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolatedError, InvalidArgumentError, check_type
from .games import GameMatrix, MixedStrategy, Prior, add_up
from .lp import FEAS_TOL, lp_solve


@dataclass(frozen=True)
class StackelbergSolution:
    value: float
    leader_strategy: MixedStrategy
    follower_action: int
    per_follower_action_values: tuple[float, ...]  # -inf marks infeasible replies


def _scaled(payoffs):
    """(payoffs * 2**-e, e), with e chosen so that the largest magnitude lies
    in [0.5, 1) (e = 0 when every payoff is 0).

    The LPs compare against absolute tolerances, which are only meaningful
    at one scale, so each player's payoffs are brought to it. Scaling by a
    power of two is exact in binary floating point (the radix scaling of
    LAPACK's dgeequb), and the Stackelberg commitment is invariant under a
    positive scaling of either player's payoffs; values and margins scale
    back exactly by 2**e."""
    e = math.frexp(max(abs(v) for row in payoffs for v in row))[1]
    return [[math.ldexp(v, -e) for v in row] for row in payoffs], e


def _orient(g: GameMatrix, leader: int):
    """(lead, e_lead, fol, e_fol): lead[a][f] * 2**e_lead is the leader's
    payoff when she plays pure a and the follower replies f; fol[f][a] *
    2**e_fol is the follower's payoff at that profile (see _scaled).
    """
    if check_type(leader, "leader", "integer") not in (1, 2):
        raise InvalidArgumentError(f"leader must be 1 or 2, got {leader}")
    return (*_scaled(g.own_payoffs(leader)), *_scaled(g.own_payoffs(3 - leader)))


def _as_strategy(x) -> MixedStrategy:
    """An LP solution's leader weights clamped to [0, 1] and renormalised."""
    x = [min(max(v, 0.0), 1.0) for v in x]
    s = add_up(x)
    return tuple(v / s for v in x)


def _preference_rows(fol, f: int) -> list[list[float]]:
    """Rows r, one per other reply f2, with r.x = U_f(x, f2) - U_f(x, f) on
    the follower's payoffs fol: reply f is a best response to x iff every
    r.x <= 0."""
    return [[v2 - v for v2, v in zip(fol[f2], fol[f])] for f2 in range(len(fol)) if f2 != f]


def _reply_lp(lead, fol, f: int) -> tuple[float, tuple[float, ...] | None]:
    """(value, x) of the LP that maximizes the leader's scaled payoff over
    her simplex subject to reply f being a follower best response; the value
    is -inf when f is a best response to no commitment."""
    sol = lp_solve([row[f] for row in lead], _preference_rows(fol, f))
    return (-math.inf, None) if sol is None else (sol[1], sol[0])


def _chosen_reply(per_vals) -> int:
    """The reply the leader induces, given each reply's LP value (-inf for an
    infeasible or unsolved one). Replies within 1e-9 of the best tie, on the
    leader's scaled payoffs, so relative to her largest payoff, and the
    lowest index wins, so that rounding cannot flip the reply."""
    top = max(per_vals)
    if top == -math.inf:  # unreachable: some reply is a best response to any commitment
        raise AssumptionViolatedError("no feasible follower reply found")
    return next(f for f, v in enumerate(per_vals) if v >= top - 1e-9)


def stackelberg_value(g: GameMatrix, leader: int) -> StackelbergSolution:
    """Optimistic Stackelberg value and commitment for `leader`."""
    lead, e_lead, fol, _ = _orient(g, leader)
    per_vals, xs = zip(*(_reply_lp(lead, fol, f) for f in range(len(fol))))
    f = _chosen_reply(per_vals)
    values = tuple(math.ldexp(v, e_lead) for v in per_vals)
    return StackelbergSolution(values[f], _as_strategy(xs[f]), f, values)


def _stackelberg_reply(lead, fol) -> tuple[int, MixedStrategy]:
    """(reply, leader strategy) of stackelberg_value on oriented, scaled
    payoffs (see _orient), solving only the reply LPs that can win (branch
    and bound).

    Replies are visited in decreasing order of the bound max_a lead[a][f] on
    their value, the lower index first on equal bounds, and the search stops
    at the first reply whose bound plus 2n * FEAS_TOL (n leader actions) lies
    more than the tie window below the best value found. lp_solve returns no
    point off the simplex by more than FEAS_TOL, and scaled payoffs lie below
    1 in magnitude, so a value exceeds its bound by at most (2n - 1) *
    FEAS_TOL plus a rounding that the last FEAS_TOL covers. So no skipped
    reply enters the tie window of _chosen_reply: whenever stackelberg_value
    returns, the choice is its choice, and its LP, so its strategy, too.
    """
    bounds = [max(row[f] for row in lead) for f in range(len(fol))]
    per_vals = [-math.inf] * len(fol)
    xs = [None] * len(fol)
    best = -math.inf
    for f in sorted(range(len(fol)), key=bounds.__getitem__, reverse=True):
        if bounds[f] + 2 * len(lead) * FEAS_TOL < best - 1e-9:
            break
        per_vals[f], xs[f] = _reply_lp(lead, fol, f)
        best = max(best, per_vals[f])
    f = _chosen_reply(per_vals)
    return f, _as_strategy(xs[f])


def stackval_prior(prior: Prior, player: int) -> float:
    """Prior-expected optimistic Stackelberg value for `player` as leader."""
    return add_up(w * stackelberg_value(g, player).value for g, w in prior.entries)


def _margin(fol, target_reply: int) -> tuple[MixedStrategy, float]:
    """Leader mixture x_bar maximizing the follower's preference gap for
    target_reply, on oriented, scaled follower payoffs (see _orient).

    Returns (x_bar, c) with U_f(x_bar, target) >= U_f(x_bar, other) + c for all
    other replies, c maximized and in the scaled units. c > 0 iff
    target_reply can be made the strict unique best response (Farkas
    direction of the no-weak-dominance assumption). With a single follower
    action the margin is unconstrained (+inf).
    """
    n_lead, n_fol = len(fol[0]), len(fol)
    if n_fol == 1:
        return tuple([1.0 / n_lead] * n_lead), math.inf
    rows = [r + [1.0] for r in _preference_rows(fol, target_reply)]
    sol = lp_solve([0.0] * n_lead + [1.0], rows, free=True)
    if sol is None:
        raise AssumptionViolatedError("margin LP unsolvable")
    return _as_strategy(sol[0][:n_lead]), sol[1]


def perturbed_commitment(
    g: GameMatrix, leader: int, delta: float
) -> tuple[MixedStrategy, float]:
    """(1-delta) Stackelberg commitment + delta margin mixture, with the
    achieved preference margin delta*c making the target reply strictly unique.
    """
    if not 0.0 < check_type(delta, "delta") <= 1.0:
        raise InvalidArgumentError(f"delta must be in (0,1], got {delta!r}")
    lead, _, fol, e_fol = _orient(g, leader)
    target, x_star = _stackelberg_reply(lead, fol)
    x_bar, c = _margin(fol, target)
    # Tested on the scaled margin, so relative to the follower's largest payoff.
    if c <= 1e-12:
        raise AssumptionViolatedError(
            f"target reply {target} admits no strict margin "
            "(weakly dominated, so the commitment construction does not apply)"
        )
    mix = tuple((1.0 - delta) * a + delta * b for a, b in zip(x_star, x_bar))
    s = add_up(mix)
    mix = tuple(v / s for v in mix)
    return mix, math.ldexp(delta * c, e_fol)
