"""The commitment LP over the leader's simplex: a two-phase simplex with
Bland's anti-cycling rule on a dense tableau of Python lists, which is exact
enough for these tiny (~10-variable) problems and dependency-free. The pivot
is straight-line code compiled once per tableau width (_emit_pivot, 0.1-0.3
ms each), bit-identical to the loop form that the tests keep."""

from __future__ import annotations

import functools
import math

from .errors import AssumptionViolatedError, InvalidArgumentError
from .games import add_up

_PIVOT_TOL = 1e-9
# Phase 1's feasibility tolerance, and how far (|sum(x) - 1|, or -x_a) a
# returned point may lie off the simplex: on ~455,000 feasible commitment LPs
# of integer or uniform real payoffs the largest residual was 1.5e-10.
FEAS_TOL = 1e-7


@functools.cache
def _emit_pivot(w: int):
    """The simplex pivot on a tableau w columns wide, compiled on first use:
    pivot(tab, basis, row, col) divides the pivot row by its col entry and
    subtracts f times the result from each other row whose col entry f is
    nonzero, in straight-line code on locals a0.. (a row) and b0.. (the new
    pivot row). These are the loop form's float operations in its order
    (tests/test_lp.py keeps it as the oracle), so the tableau is bit-identical
    to it, zero signs included; a row of another width raises ValueError."""
    a, b = ("".join(f"{v}{j}, " for j in range(w)) for v in "ab")
    src = "".join([
        "def pivot(tab, basis, row, col):\n",
        "    p = tab[row][col]\n",
        f"    ({a}) = tab[row]\n",
        f"    ({b}) = tab[row] = [{''.join(f'a{j} / p, ' for j in range(w))}]\n",
        "    for i, r in enumerate(tab):\n",
        "        f = r[col]\n",
        "        if i != row and f != 0.0:\n",
        f"            ({a}) = r\n",
        f"            tab[i] = [{''.join(f'a{j} - f * b{j}, ' for j in range(w))}]\n",
        "    basis[row] = col\n",
    ])
    namespace: dict = {}
    exec(compile(src, f"<simplex pivot, {w} columns>", "exec"), namespace)
    return namespace["pivot"]


def _bland_run(tab: list[list[float]], basis: list[int], ncols: int, no_row: str) -> None:
    """Pivot by Bland's rule (last row = reduced costs, maximize) to an optimum;
    raise AssumptionViolatedError(no_row) if an entering column has no pivot row."""
    m = len(tab) - 1
    pivot = _emit_pivot(len(tab[0]))
    for _ in range(100_000):
        obj = tab[-1]
        for col in range(ncols):
            if obj[col] > _PIVOT_TOL:
                break
        else:
            return
        row, best_ratio, best_basis = -1, math.inf, -1
        for i, r in enumerate(tab):
            if i == m:
                break
            a = r[col]
            if a > _PIVOT_TOL:
                ratio = r[-1] / a
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and (row < 0 or basis[i] < best_basis)
                ):
                    row, best_ratio, best_basis = i, ratio, basis[i]
        if row < 0:
            raise AssumptionViolatedError(no_row)
        pivot(tab, basis, row, col)
    raise RuntimeError("simplex failed to terminate (anti-cycling rule exhausted)")


def lp_solve(c, rows, free: bool = False):
    """maximize c.z  s.t.  rows z <= 0,  where z = x, or z = (x, t) when free;
    x >= 0 with sum(x) = 1, and t is unbounded in sign.

    Returns (z, c.z) at an optimal basic solution, or None if the LP is infeasible.
    A failed solve (no pivot row in either phase, since the LPs of solve.py are
    bounded, or a point off the simplex by > FEAS_TOL) raises AssumptionViolatedError."""
    n = len(c)
    nx = n - 1 if free else n
    if nx < 1 or any(len(row) != n for row in rows):
        raise InvalidArgumentError("LP rows must match the objective, which needs an x entry")
    if not all(map(math.isfinite, (*c, *(v for row in rows for v in row)))):
        raise InvalidArgumentError("non-finite LP coefficient")

    # Columns: [x | t | -t | slack | artificial], rhs last: t is split into
    # two nonnegative columns. Each row of `rows` starts in the basis on its
    # slack, the simplex row sum(x) = 1 on the artificial.
    c = [float(v) for v in c]
    c_std = c + [-c[-1]] if free else c
    n_std, k = len(c_std), len(rows)
    ncols2 = n_std + k
    basis = [n_std + i for i in range(k)] + [ncols2]
    tab = []
    for i, row in enumerate(rows):
        r = [float(v) for v in row]
        if free:
            r.append(-r[-1])
        tab.append(r + [1.0 if j == i else 0.0 for j in range(k)] + [0.0, 0.0])
    # The split writes -0.0 under -t, as negating the simplex row's t entry does.
    tab.append([1.0] * nx + ([0.0, -0.0] if free else []) + [0.0] * k + [1.0, 1.0])

    # Phase 1: maximize -artificial, which is at most 0 (so a missing pivot row
    # is a failed solve); its reduced costs are the simplex row's.
    tab.append([1.0] * nx + [0.0] * (ncols2 - nx + 1) + [1.0])
    _bland_run(tab, basis, ncols2 + 1, "the LP solve failed: phase 1 found no pivot row")
    # The objective row's rhs cell carries the negated phase-1 value, so a
    # positive residual means the artificial could not be driven to zero.
    if tab[-1][-1] > FEAS_TOL:
        return None
    # Drive a remaining artificial out of the basis.
    for i in range(k + 1):
        if basis[i] >= ncols2:
            piv = next((j for j in range(ncols2) if abs(tab[i][j]) > _PIVOT_TOL), None)
            if piv is None:
                tab[i] = [0.0] * (ncols2 + 2)  # redundant row
                basis[i] = -1
            else:
                _emit_pivot(ncols2 + 2)(tab, basis, i, piv)
    tab.pop()

    # Phase 2 objective over structural+slack columns only; the artificial
    # column is dropped so it cannot re-enter.
    for r in tab:
        del r[ncols2]
    obj = c_std + [0.0] * (k + 1)
    for i in range(k + 1):
        b = basis[i]
        if 0 <= b < n_std and c_std[b] != 0.0:
            obj = [o - c_std[b] * t for o, t in zip(obj, tab[i])]
    tab.append(obj)
    _bland_run(tab, basis, ncols2, "the LP objective is unbounded")

    z = [0.0] * n_std
    for i in range(k + 1):
        if 0 <= basis[i] < n_std:
            z[basis[i]] = tab[i][-1]
    if free:
        z[-2] -= z[-1]
    z = tuple(v + 0.0 for v in z[:n])  # + 0.0 turns a pivot's -0.0 into 0.0
    x = z[:nx]
    if abs(add_up(x) - 1.0) > FEAS_TOL or min(x) < -FEAS_TOL:
        raise AssumptionViolatedError(f"the LP solve failed: its point {x!r} lies off the simplex")
    return z, add_up(cj * zj for cj, zj in zip(c, z))
