import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grid_oracle import grid_leader_lp_value
from stratlab import lp
from stratlab.errors import AssumptionViolatedError, InvalidArgumentError
from stratlab.lp import lp_solve


def test_trivial_bounded():
    z, value = lp_solve([1.0, 0.0], [])
    assert z == (1.0, 0.0)
    assert value == 1.0


def test_degenerate_optimum():
    # c is constant on the simplex, and x1 <= 0 meets x1 >= 0: the only
    # feasible point (1, 0) is a degenerate vertex.
    z, value = lp_solve([1.0, 1.0], [[0.0, 1.0]])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert z == pytest.approx((1.0, 0.0), abs=1e-12)


def test_follower_action_commitment_lp(fig1_g1):
    # Leader 1 pinning reply C: maximize U1(x, C) s.t. U2(x, C) >= U2(x, D).
    u1 = np.array(fig1_g1.u1)
    u2 = np.array(fig1_g1.u2)
    obj = u1[:, 0]
    diff = u2[:, 0] - u2[:, 1]
    z, value = lp_solve(obj.tolist(), [(-diff).tolist()])
    oracle = grid_leader_lp_value(obj, diff, step=1e-3)
    assert oracle == pytest.approx(16.0)
    assert value == pytest.approx(oracle, abs=1e-6)


def test_infeasible():
    # x0 + 2 x1 <= 0 holds nowhere on the simplex.
    assert lp_solve([1.0, 0.0], [[1.0, 2.0]]) is None
    assert lp_solve([0.0, 0.0, 1.0], [[1.0, 2.0, 0.0]], free=True) is None


def test_unbounded():
    # Nothing bounds t from above.
    with pytest.raises(AssumptionViolatedError, match="unbounded"):
        lp_solve([0.0, 0.0, 1.0], [], free=True)
    with pytest.raises(AssumptionViolatedError, match="unbounded"):
        lp_solve([0.0, 0.0, 1.0], [[1.0, 0.0, -1.0]], free=True)


def test_free_variable_and_equalities():
    # maximize t s.t. t <= 2 x0 + 3 x1 and t <= 2 x0 + x1 on the simplex:
    # optimum t = 2 at x = (1, 0).
    z, value = lp_solve([0.0, 0.0, 1.0], [[-2.0, -3.0, 1.0], [-2.0, -1.0, 1.0]], free=True)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert z == pytest.approx((1.0, 0.0, 2.0), abs=1e-12)
    # A negative optimum: t <= -2 (x0 + x1) and t <= x1 - 3 x0, so t = -2
    # wherever x1 >= 1/4.
    z, value = lp_solve([0.0, 0.0, 1.0], [[2.0, 2.0, 1.0], [3.0, -1.0, 1.0]], free=True)
    assert value == pytest.approx(-2.0, abs=1e-12)
    assert z[1] >= 0.25 - 1e-12


def test_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        lp_solve([1.0, 2.0], [[1.0]])
    with pytest.raises(InvalidArgumentError):
        lp_solve([1.0], [[1.0, 2.0]], free=True)
    with pytest.raises(InvalidArgumentError):
        lp_solve([1.0], [], free=True)  # t alone, no x
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        lp_solve([1.0, 1.0], [[float("nan"), 1.0]])


def _enumerate_vertices(c, rows, free, box):
    """Independent mini-oracle: the best c.z over every vertex of
    {rows z <= 0, x >= 0, sum(x) = 1}, with |t| <= box when free, by
    brute-force constraint intersection; None if there is none (the set is
    then empty, since it is bounded)."""
    n = len(c)
    nx = n - 1 if free else n
    ineq = [list(r) for r in rows] + [[-(1.0 if j == i else 0.0) for j in range(n)] for i in range(nx)]
    rhs = [0.0] * len(ineq)
    if free:
        ineq += [[0.0] * nx + [1.0], [0.0] * nx + [-1.0]]
        rhs += [box, box]
    simplex = [1.0] * nx + [0.0] * (n - nx)
    best = None
    for combo in itertools.combinations(range(len(ineq)), n - 1):
        a = np.array([simplex] + [ineq[i] for i in combo])
        b = np.array([1.0] + [rhs[i] for i in combo])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        z = np.linalg.solve(a, b)
        if np.all(np.array(ineq) @ z <= np.array(rhs) + 1e-9):
            v = float(np.dot(c, z))
            if best is None or v > best:
                best = v
    return best


def test_random_lps_match_vertex_enumeration():
    # Reply-LP form (no t) and margin-LP form (with t). The oracle tells an
    # unbounded LP from a bounded one by the box |t| <= box: no vertex of
    # this integer data has |t| above ~100, so the box moves only an
    # unbounded optimum.
    box = 1e4
    rng = random.Random(7)
    for free in (False, True):
        outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(200):
            nx, m = rng.randint(1, 4), rng.randint(0, 4)
            n = nx + free
            c = [rng.randint(-5, 5) for _ in range(n)]
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            oracle = _enumerate_vertices(c, rows, free, box)
            if oracle is None:
                assert lp_solve(c, rows, free) is None
                outcomes["infeasible"] += 1
            elif _enumerate_vertices(c, rows, free, 2 * box) > oracle + 1e-7:
                with pytest.raises(AssumptionViolatedError, match="unbounded"):
                    lp_solve(c, rows, free)
                outcomes["unbounded"] += 1
            else:
                z, value = lp_solve(c, rows, free)
                assert value == pytest.approx(oracle, abs=1e-9)
                assert np.all(np.array(rows).reshape(m, n) @ np.array(z) <= 1e-9)
                outcomes["optimal"] += 1
        assert outcomes["optimal"] >= 60 and outcomes["infeasible"] >= 20, outcomes
        assert (outcomes["unbounded"] >= 20) == free, outcomes


def test_residuals_small():
    # Residual contract: <= 1e-8 for coefficient magnitudes up to 1e6.
    rng = random.Random(11)
    solved = 0
    for trial in range(120):
        scale = 1e6 if trial % 2 else 1e3
        free = trial % 4 >= 2
        nx, m = rng.randint(2, 4), rng.randint(1, 3)
        n = nx + free
        # t, when present, is maximized and bounded above by every row.
        c = [rng.uniform(-scale, scale) for _ in range(nx)] + [scale] * free
        rows = [[rng.uniform(-scale, scale) for _ in range(nx)] + [scale] * free for _ in range(m)]
        sol = lp_solve(c, rows, free)
        if sol is None:
            continue
        solved += 1
        z = np.array(sol[0])
        assert np.all(z[:nx] >= -1e-8)
        assert abs(z[:nx].sum() - 1.0) <= 1e-8
        assert np.all(np.array(rows) @ z <= 1e-8)
    assert solved >= 60


# ---------------------------------------------------------------------------
# The compiled pivot against its loop form
# ---------------------------------------------------------------------------


def pivot_loops(tab, basis, row, col):
    """The simplex pivot as loops: the oracle of lp._emit_pivot's kernels."""
    p = tab[row][col]
    prow = tab[row] = [v / p for v in tab[row]]
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f != 0.0:
            tab[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


# Signed zeros, subnormals, the smallest normal, large and small integers.
ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 2.0 ** -1022, 1e6, -1e6]) | (
    st.integers(-9, 9).map(float))


def hexed(tab):
    return [[v.hex() for v in r] for r in tab]


@given(st.data())
def test_pivot_is_the_loop_pivot_bit_for_bit(data):
    w, h = data.draw(st.integers(2, 24)), data.draw(st.integers(1, 8))
    tab = [[data.draw(ENTRIES) for _ in range(w)] for _ in range(h)]
    row, col = data.draw(st.sampled_from([(i, j) for i in range(h) for j in range(w)
                                          if tab[i][j] != 0.0] or [(0, 0)]))
    tab[row][col] = tab[row][col] or 1.0
    basis = list(range(h))
    oracle, oracle_basis = [list(r) for r in tab], list(basis)
    lp._emit_pivot(w)(tab, basis, row, col)
    pivot_loops(oracle, oracle_basis, row, col)
    assert hexed(tab) == hexed(oracle)
    assert basis == oracle_basis


@pytest.mark.parametrize("width", [4, 6])
def test_pivot_rejects_a_row_of_another_width(width):
    # zip would stop at the shorter row; the kernel's unpacking raises.
    tab = [[2.0, 1.0, 0.0, 4.0, 5.0], [1.0] * width]
    with pytest.raises(ValueError):
        lp._emit_pivot(5)(tab, [0, 1], 0, 0)


def test_one_pivot_compile_per_tableau_width(monkeypatch):
    # A fresh cache, so the count does not hang on which widths other tests
    # compiled first. 25 x entries and 3 rows: phase 1 pivots on a tableau
    # 25 + 3 + 1 (artificial) + 1 (rhs) = 30 columns wide, phase 2 on 29.
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(lp, "compile", counting, raising=False)
    monkeypatch.setattr(lp, "_emit_pivot", functools.cache(lp._emit_pivot.__wrapped__))
    rng = random.Random(30)
    c = [0.0] * 24 + [1.0]
    solutions = [lp_solve(c, [[-rng.randint(1, 9) for _ in range(25)] for _ in range(3)])
                 for _ in range(2)]
    assert solutions[0] == solutions[1] == ((0.0,) * 24 + (1.0,), 1.0)
    assert compiled == ["<simplex pivot, 30 columns>", "<simplex pivot, 29 columns>"]
