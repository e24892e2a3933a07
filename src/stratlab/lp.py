"""Small dense linear-program solver: two-phase simplex with Bland's rule.

Problems here are tiny (commitment LPs over action simplices, ~10 variables),
so a dense tableau of Python lists with an anti-cycling pivot rule is exact
enough and dependency-free. Maximization convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError, check_type
from .games import add_up

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple[float, ...] | None
    value: float | None


def _pivot(tab: list[list[float]], basis: list[int], row: int, col: int) -> None:
    p = tab[row][col]
    prow = tab[row] = [v / p for v in tab[row]]
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f != 0.0:
            tab[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


def _bland_run(tab: list[list[float]], basis: list[int], ncols: int) -> str:
    """Run simplex iterations on the tableau (last row = reduced costs, maximize)."""
    m = len(tab) - 1
    for _ in range(100_000):
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] > _PIVOT_TOL), -1)
        if col < 0:
            return OPTIMAL
        row, best_ratio, best_basis = -1, math.inf, -1
        for i in range(m):
            a = tab[i][col]
            if a > _PIVOT_TOL:
                ratio = tab[i][-1] / a
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and (row < 0 or basis[i] < best_basis)
                ):
                    row, best_ratio, best_basis = i, ratio, basis[i]
        if row < 0:
            return UNBOUNDED
        _pivot(tab, basis, row, col)
    raise RuntimeError("simplex failed to terminate (anti-cycling rule exhausted)")


def lp_solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=()) -> LpSolution:
    """maximize c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x_j >= 0 for j not in free
    (distinct integer indices).

    Returns status, an optimal basic solution, and its objective.
    """
    n = len(c)
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise InvalidArgumentError("constraint matrix/rhs row counts differ")
    for row in (*a_ub, *a_eq):
        if len(row) != n:
            raise InvalidArgumentError("constraint row length mismatches objective")
    for v in (*c, *b_ub, *b_eq, *(x for row in (*a_ub, *a_eq) for x in row)):
        if not math.isfinite(v):
            raise InvalidArgumentError(f"non-finite LP coefficient {v!r}")
    for j in free:
        if not 0 <= check_type(j, "free variable index", "integer") < n:
            raise InvalidArgumentError(f"free variable index {j!r} outside 0..{n - 1}")
    if len(set(free)) != len(free):
        raise InvalidArgumentError(f"free variable indices {list(free)} repeat an index")

    # A free variable is split into u - v: its negated column follows the structurals.
    c = [float(v) for v in c]
    c_std = c + [-c[j] for j in free]
    n_std = len(c_std)
    m_ub, m = len(a_ub), len(a_ub) + len(a_eq)
    nslack = m_ub
    ncols2 = n_std + nslack

    # Columns: [structural | free-split | slack | artificial], rhs last. Rows
    # with a negative rhs are negated; a row whose slack column survived that
    # starts in the basis on it, every other row on an artificial variable.
    neg = [b < 0 for b in (*b_ub, *b_eq)]
    art_rows = [i for i in range(m) if i >= m_ub or neg[i]]
    nart = len(art_rows)
    ncols = ncols2 + nart
    basis = [n_std + i for i in range(m)]
    for k, i in enumerate(art_rows):
        basis[i] = ncols2 + k
    tab = []
    for i, (row, b) in enumerate(zip((*a_ub, *a_eq), (*b_ub, *b_eq))):
        r = [float(v) for v in row]
        r += [-r[j] for j in free]
        r += [1.0 if k == i else 0.0 for k in range(nslack)]
        r.append(float(b))
        if neg[i]:
            r = [-v for v in r]
        r[-1:-1] = [1.0 if j == basis[i] else 0.0 for j in range(ncols2, ncols)]
        tab.append(r)

    if nart:
        # Phase 1: maximize -(sum of artificials).
        obj = [0.0] * ncols2 + [-1.0] * nart + [0.0]
        for i in range(m):
            if basis[i] >= ncols2:
                obj = [o + t for o, t in zip(obj, tab[i])]
        tab.append(obj)
        status = _bland_run(tab, basis, ncols)
        # The objective row's rhs cell carries the negated phase-1 value, so a
        # positive residual means the artificials could not be driven to zero.
        if status != OPTIMAL or tab[-1][-1] > _FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None)
        # Drive remaining artificials out of the basis.
        for i in range(m):
            if basis[i] >= ncols2:
                piv = next((j for j in range(ncols2) if abs(tab[i][j]) > _PIVOT_TOL), None)
                if piv is None:
                    tab[i] = [0.0] * (ncols + 1)  # redundant row
                    basis[i] = -1
                else:
                    _pivot(tab, basis, i, piv)
        tab.pop()

    # Phase 2 objective over structural+slack columns only; the artificial
    # columns are dropped so they cannot re-enter.
    for r in tab:
        del r[ncols2:ncols]
    obj = c_std + [0.0] * (nslack + 1)
    for i in range(m):
        b = basis[i]
        if 0 <= b < n_std and c_std[b] != 0.0:
            obj = [o - c_std[b] * t for o, t in zip(obj, tab[i])]
    tab.append(obj)
    if _bland_run(tab, basis, ncols2) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    x_std = [0.0] * n_std
    for i in range(m):
        if 0 <= basis[i] < n_std:
            x_std[basis[i]] = tab[i][-1]
    for k, j in enumerate(free):
        x_std[j] -= x_std[n + k]
    x = tuple(v + 0.0 for v in x_std[:n])  # + 0.0 turns a pivot's -0.0 into 0.0
    return LpSolution(OPTIMAL, x, add_up(cj * xj for cj, xj in zip(c, x)))
