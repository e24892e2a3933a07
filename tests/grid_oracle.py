"""Brute-force oracles, independent of the LP code paths they check.

The Stackelberg oracle sweeps a dense grid over a two-action leader's simplex
and breaks follower ties optimistically. The grid is augmented with the exact
follower-indifference boundary points (rational for integer payoffs), so the
optimistic tie-break is evaluated exactly where it matters.
"""

import numpy as np


def grid_stackelberg(g, leader, step=1e-4, tie_tol=1e-7):
    """(value, leader_prob_on_action0) by exhaustive search; leader must have
    exactly two actions."""
    if leader == 1:
        lead_u = np.array(g.u1, dtype=float)
        fol_u = np.array(g.u2, dtype=float)
    else:
        lead_u = np.array(g.u2, dtype=float).T
        fol_u = np.array(g.u1, dtype=float).T
    n_lead, n_fol = lead_u.shape
    assert n_lead == 2, "grid oracle supports two-action leaders"

    qs = np.arange(0.0, 1.0 + step / 2, step)
    extra = []
    for i in range(n_fol):
        for j in range(i + 1, n_fol):
            a = (fol_u[0, i] - fol_u[1, i]) - (fol_u[0, j] - fol_u[1, j])
            b = fol_u[1, i] - fol_u[1, j]
            if abs(a) > 1e-12:
                q = -b / a
                if 0.0 <= q <= 1.0:
                    extra.append(q)
    if extra:
        qs = np.unique(np.concatenate([qs, np.array(extra)]))

    fol_vals = np.outer(qs, fol_u[0]) + np.outer(1.0 - qs, fol_u[1])
    lead_vals = np.outer(qs, lead_u[0]) + np.outer(1.0 - qs, lead_u[1])
    cut = fol_vals.max(axis=1, keepdims=True) - tie_tol
    masked = np.where(fol_vals >= cut, lead_vals, -np.inf)
    best_per_q = masked.max(axis=1)
    k = int(np.argmax(best_per_q))
    return float(best_per_q[k]), float(qs[k])


def grid_leader_lp_value(objective, constraint_diff, step=1e-3):
    """Brute force for a single follower-action leader LP with a 2-action
    leader: maximize objective . x subject to constraint_diff . x >= 0 on the
    simplex."""
    best = -np.inf
    qs = np.arange(0.0, 1.0 + step / 2, step)
    for q in qs:
        x = np.array([q, 1.0 - q])
        if np.dot(constraint_diff, x) >= -1e-12:
            best = max(best, float(np.dot(objective, x)))
    return best


def maximin_two_actions(u):
    """Security level max_q min_o of a two-action player with payoffs u[a][o].

    The worst case over replies is concave and piecewise linear in q, the
    weight on action 0, so its maximum lies at q = 0, q = 1 or where two
    replies' payoff lines cross.
    """
    u = np.asarray(u, dtype=float)
    assert u.shape[0] == 2, "maximin oracle supports two-action players"
    slope = u[0] - u[1]
    qs = [0.0, 1.0]
    for i in range(u.shape[1]):
        for j in range(i + 1, u.shape[1]):
            if abs(slope[i] - slope[j]) > 1e-12:
                q = (u[1, j] - u[1, i]) / (slope[i] - slope[j])
                if 0.0 <= q <= 1.0:
                    qs.append(q)
    return max(float(np.min(u[1] + q * slope)) for q in qs)


def random_leader_follower_game(rng, k):
    """Random 2xk integer-payoff game for the solver-oracle suite; rejects
    degenerate duplicate follower columns (permanently tied replies)."""
    while True:
        u1 = rng.integers(-10, 11, size=(2, k))
        u2 = rng.integers(-10, 11, size=(2, k))
        cols = {tuple(u2[:, j]) for j in range(k)}
        if len(cols) == k:
            return u1.tolist(), u2.tolist()
