import itertools
import random

import numpy as np
import pytest

from grid_oracle import grid_leader_lp_value
from stratlab.errors import InvalidArgumentError
from stratlab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve


def test_trivial_bounded():
    sol = lp_solve(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_degenerate_optimum():
    sol = lp_solve(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_follower_action_commitment_lp(fig1_g1):
    # Leader 1 pinning reply C: maximize U1(x, C) s.t. U2(x, C) >= U2(x, D).
    u1 = np.array(fig1_g1.u1)
    u2 = np.array(fig1_g1.u2)
    obj = u1[:, 0]
    diff = u2[:, 0] - u2[:, 1]
    sol = lp_solve(
        c=obj.tolist(),
        a_ub=[(-diff).tolist()],
        b_ub=[0.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
    )
    assert sol.status == OPTIMAL
    oracle = grid_leader_lp_value(obj, diff, step=1e-3)
    assert oracle == pytest.approx(16.0)
    assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_infeasible():
    sol = lp_solve(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    assert sol.status == INFEASIBLE


def test_unbounded():
    sol = lp_solve(c=[1.0])
    assert sol.status == UNBOUNDED


def test_free_variable_and_equalities():
    # maximize s subject to s <= 3 - x, s <= 1 + x, x in [0,1]: optimum s = 2 at x = 1.
    sol = lp_solve(
        c=[0.0, 1.0],
        a_ub=[[1.0, 1.0], [-1.0, 1.0], [1.0, 0.0]],
        b_ub=[3.0, 1.0, 1.0],
        free=[1],
    )
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(2.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        lp_solve(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(InvalidArgumentError):
        lp_solve(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        lp_solve(c=[1.0], a_eq=[[float("nan")]], b_eq=[1.0])


@pytest.mark.parametrize("free", [[2], [-1]])
def test_free_index_out_of_range(free):
    with pytest.raises(InvalidArgumentError, match="free variable index"):
        lp_solve(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], free=free)


def _enumerate_vertices(c, a_ub, b_ub):
    """Independent mini-oracle: evaluate every basic feasible point of
    {A x <= b, x >= 0} by brute-force constraint intersection; None if there
    is none (the set is then empty, since x >= 0 makes it pointed)."""
    n = len(c)
    rows = [list(r) for r in a_ub] + [[-(1.0 if j == i else 0.0) for j in range(n)] for i in range(n)]
    rhs = list(b_ub) + [0.0] * n
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i] for i in combo])
        b = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if np.all(np.array(rows) @ x <= np.array(rhs) + 1e-9):
            v = float(np.dot(c, x))
            if best is None or v > best:
                best = v
    return best


def test_random_lps_match_vertex_enumeration():
    # Negative right-hand sides and equality rows need phase 1. The oracle sees
    # each equality as two inequalities, and tells an unbounded LP from a
    # bounded one by adding the box x <= box: no vertex of this integer data
    # has a coordinate above ~500, so the box moves only an unbounded optimum.
    box = 1e4
    rng = random.Random(7)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    phase1_optimal = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        m_ub, m_eq = rng.randint(1, 4), rng.randint(0, 1)
        c = [rng.randint(-5, 5) for _ in range(n)]
        a_ub = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m_ub)]
        b_ub = [rng.randint(-3, 6) for _ in range(m_ub)]
        a_eq = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m_eq)]
        b_eq = [rng.randint(-3, 6) for _ in range(m_eq)]
        sol = lp_solve(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        statuses[sol.status] += 1
        rows = a_ub + a_eq + [[-v for v in r] for r in a_eq]
        rhs = b_ub + b_eq + [-v for v in b_eq]
        oracle = _enumerate_vertices(c, rows, rhs)
        if oracle is None:
            assert sol.status == INFEASIBLE
            continue
        unit = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
        if _enumerate_vertices(c, rows + unit, rhs + [box] * n) > oracle + 1e-7:
            assert sol.status == UNBOUNDED
            continue
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(oracle, abs=1e-7)
        phase1_optimal += m_eq > 0 or min(b_ub) < 0
    assert min(statuses.values()) >= 20, statuses
    assert phase1_optimal >= 30


def test_residuals_small():
    # Residual contract: <= 1e-8 for coefficient magnitudes up to 1e6.
    rng = random.Random(11)
    for trial in range(60):
        scale = 1e6 if trial % 2 else 1e3
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        c = [rng.uniform(-scale, scale) for _ in range(n)]
        a_ub = [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.uniform(0.0, scale) for _ in range(m)]
        a_eq = [[1.0] * n]
        b_eq = [1.0]
        sol = lp_solve(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        if sol.status != OPTIMAL:
            continue
        x = np.array(sol.x)
        assert np.all(x >= -1e-8)
        assert abs(x.sum() - 1.0) <= 1e-8
        assert np.all(np.array(a_ub) @ x - np.array(b_ub) <= 1e-8)
