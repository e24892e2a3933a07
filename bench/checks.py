"""Output checks computed apart from stratlab.

Everything here uses numpy and scipy only: the Stackelberg values come from
`scipy.optimize.linprog`, regrets from a numpy recomputation over the joint
action mass, and the counterexample values from the Fig. 1 payoff matrices
written out below. Each `check_<workload>` returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# The two-game family of the paper's Fig. 1 at gamma = 1 (player 1 picks
# rows A, B; player 2 picks columns C, D), written out independently of
# stratlab's builtin games.
FIG1 = (
    {"u1": [[16.0, 16.0], [2.0, 0.0]], "u2": [[1.0, -32.0], [0.0, 2.0]]},
    {"u1": [[1.0, 0.0], [0.9, 0.1]], "u2": [[1.0, -32.0], [0.0, 2.0]]},
)
FIG1_WEIGHTS = (0.5, 0.5)

VALUE_TOL = 1e-6  # solver outputs against the independent LP
REGRET_TOL = 1e-6  # relative, regrets against the numpy recomputation


# ---------------------------------------------------------------------------
# Independent LPs
# ---------------------------------------------------------------------------


def orient(u1, u2, leader: int) -> tuple[np.ndarray, np.ndarray]:
    """(lead, fol) payoff matrices indexed [leader action, follower action]."""
    a, b = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    if leader == 1:
        return a, b
    return b.T, a.T


def _simplex_lp(c, a_ub, b_ub, slack: bool = False):
    """maximize c.x with x on the simplex and a_ub x <= b_ub; (value, x) or None.

    With `slack`, the last variable is a free slack outside the simplex.
    """
    n = len(c)
    n_simplex = n - 1 if slack else n
    res = linprog(
        -np.asarray(c, dtype=float),
        A_ub=np.asarray(a_ub, dtype=float) if len(a_ub) else None,
        b_ub=np.asarray(b_ub, dtype=float) if len(b_ub) else None,
        A_eq=np.r_[np.ones(n_simplex), np.zeros(n - n_simplex)][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * n_simplex + [(None, None)] * (n - n_simplex),
        method="highs",
    )
    if res.status != 0:
        return None
    return -res.fun, res.x


def reply_values(lead: np.ndarray, fol: np.ndarray) -> list[float | None]:
    """Per follower reply f: the leader's best payoff over commitments that make
    f a follower best reply (None when no commitment does)."""
    n_lead, n_fol = lead.shape
    out = []
    for f in range(n_fol):
        rows = [fol[:, g] - fol[:, f] for g in range(n_fol) if g != f]
        sol = _simplex_lp(lead[:, f], rows, [0.0] * len(rows))
        out.append(None if sol is None else sol[0])
    return out


def reply_margin(fol: np.ndarray, f: int) -> float:
    """Largest c such that some commitment makes reply f beat every other
    reply by at least c (negative when f is never a strict best reply)."""
    n_lead, n_fol = fol.shape
    if n_fol == 1:
        return math.inf
    rows = [np.r_[fol[:, g] - fol[:, f], 1.0] for g in range(n_fol) if g != f]
    value, _ = _simplex_lp([0.0] * n_lead + [1.0], rows, [0.0] * len(rows), slack=True)
    return value


def stackelberg_reference(u1, u2, leader: int) -> dict:
    """Optimistic Stackelberg value, reply and per-reply values by linprog."""
    lead, fol = orient(u1, u2, leader)
    per = reply_values(lead, fol)
    feasible = [v for v in per if v is not None]
    value = max(feasible)
    reply = per.index(value)
    return {"value": value, "reply": reply, "per_reply": per}


def prior_stackelberg_value(games, weights, leader: int) -> float:
    return sum(w * stackelberg_reference(g["u1"], g["u2"], leader)["value"]
               for g, w in zip(games, weights))


def mimic_gain(games) -> float:
    """Player 1's gain from always claiming the first game in the scripted pair.

    When G2 is realized, the scripted follower then plays C after a round of A,
    and the leader's best reply to C earns u1_G2(A,C) instead of u1_G2(B,D).
    The gain is weighted by the prior mass of G2 (one half).
    """
    g2 = games[1]["u1"]
    return 0.5 * (g2[0][0] - g2[1][1])


# ---------------------------------------------------------------------------
# Regrets from the joint mass
# ---------------------------------------------------------------------------


def regrets(mass, u1, u2, player: int) -> tuple[float, float]:
    """(external, swap) regret of `player` from the cumulative joint mass."""
    m = np.asarray(mass, dtype=float)
    if player == 1:
        u = np.asarray(u1, dtype=float)
        cond = m
    else:
        u = np.asarray(u2, dtype=float).T
        cond = m.T
    # cond[a, o]: mass where own action a met opponent action o.
    actual = float(np.sum(u * cond))
    external = float(np.max(u @ cond.sum(axis=0))) - actual
    # Swap: each own action a is replaced by the best a2 against cond[a].
    swap_payoffs = cond @ u.T  # [a, a2]
    swap = float(np.sum(swap_payoffs.max(axis=1))) - actual
    return external, swap


# ---------------------------------------------------------------------------
# References per workload
# ---------------------------------------------------------------------------


def reference(workload: str, spec: dict) -> dict:
    """Values the checks compare against, computed from the spec alone."""
    if workload == "equilibrium_audit":
        return {"sv1": prior_stackelberg_value(FIG1, FIG1_WEIGHTS, 1)}
    if workload == "counterexample":
        return {
            "sv2": prior_stackelberg_value(FIG1, FIG1_WEIGHTS, 2),
            "mimic_gain": mimic_gain(FIG1),
        }
    if workload == "long_horizon":
        return {}
    if workload == "solver":
        return {"games": [solver_game_reference(g) for g in spec["games"]]}
    raise ValueError(f"unknown workload {workload!r}")


def solver_game_reference(game: dict) -> list[dict]:
    """Per leader role: value, reply, per-reply values and target margin."""
    out = []
    for leader in (1, 2):
        ref = stackelberg_reference(game["u1"], game["u2"], leader)
        _, fol = orient(game["u1"], game["u2"], leader)
        ref["margins"] = [reply_margin(fol, f) for f in range(fol.shape[1])]
        out.append(ref)
    return out


def solver_game_usable(ref: list[dict]) -> bool:
    """Keep a game only when every answer is decided with room to spare: each
    reply is clearly feasible or clearly not, the best reply is unique, and
    the target reply admits a strict margin."""
    for r in ref:
        if any(abs(c) <= 1e-6 for c in r["margins"]):
            return False
        if r["margins"][r["reply"]] <= 1e-3:
            return False
        feasible = sorted((v for v in r["per_reply"] if v is not None), reverse=True)
        if len(feasible) > 1 and feasible[0] - feasible[1] <= 1e-6:
            return False
        if any((v is None) != (c < 0) for v, c in zip(r["per_reply"], r["margins"])):
            return False
    return True


# ---------------------------------------------------------------------------
# Checks per workload
# ---------------------------------------------------------------------------


def _deviation(out_devs, player: int, name: str) -> dict | None:
    return next((d for d in out_devs if d["player"] == player and d["name"] == name), None)


def check_equilibrium_audit(spec: dict, ref: dict, out: dict) -> list[str]:
    bad = []
    eps = spec["epsilon"]
    if out["verdict"] != "pass":
        bad.append(f"verdict {out['verdict']!r}, expected 'pass'")
    if len(out["deviations"]) != spec["runs"] - 1:
        bad.append(f"{len(out['deviations'])} deviations, expected {spec['runs'] - 1}")
    for d in out["deviations"]:
        if not d["lower_bound"] <= eps:
            bad.append(f"deviation {d['player']}:{d['name']} lower bound {d['lower_bound']} > {eps}")
    u1 = out["u1_prior_weighted"]
    if u1 is None or abs(u1 - ref["sv1"]) > spec["u1_tol"]:
        bad.append(f"baseline U1 {u1} not within {spec['u1_tol']} of SV1 {ref['sv1']}")
    # Common random numbers: these deviations replay the baseline's trials,
    # so every paired difference is 0. The CI is prior-stratified and left
    # undefined (None) when a game that realized has a single trial.
    realized = out["realized"]
    if len(realized) != spec["trials"]:
        bad.append(f"{len(realized)} realized games, expected {spec['trials']}")
    counts = [realized.count(i) for i in range(len(FIG1_WEIGHTS))]
    ci = None if min(counts) == 1 else 0.0
    for player, name in ((1, "stackelberg_leader"), (2, "mimic:G1"), (2, "mimic:G2")):
        d = _deviation(out["deviations"], player, name)
        if d is None or d["gain"] != 0.0 or d["ci95"] != ci:
            bad.append(f"deviation {player}:{name} should replay the baseline "
                       f"(gain 0.0, CI {ci}), got {d}")
    return bad


def check_counterexample(spec: dict, ref: dict, out: dict) -> list[str]:
    bad = []
    claims, audit = out["claims"], out["audit"]
    gamma = (1.0 - spec["p_star"]) / (1.0 + spec["p_star"])
    if abs(claims["benchmark_value"] - ref["sv2"]) > VALUE_TOL:
        bad.append(f"benchmark_value {claims['benchmark_value']} != SV2 {ref['sv2']}")
    if abs(claims["u2"] - ref["sv2"]) > spec["tol"]:
        bad.append(f"U2 {claims['u2']} not within {spec['tol']} of SV2 {ref['sv2']}")
    if claims["contradiction"] is not True:
        bad.append("claims report no contradiction")
    if not claims["csp2_BD"]["mass"] >= 0.95:
        bad.append(f"csp2_BD {claims['csp2_BD']['mass']} < 0.95")
    for key in ("csp1_BD", "csp1_AD"):
        if not claims[key]["mass"] <= gamma / 8 + spec["tol"]:
            bad.append(f"{key} {claims[key]['mass']} > gamma/8 + {spec['tol']}")
    if audit["verdict"] != "fail":
        bad.append(f"audit verdict {audit['verdict']!r}, expected 'fail'")
    if [1, "mimic:G1"] not in audit["failing"]:
        bad.append("(1, mimic:G1) missing from the failing deviations")
    d = _deviation(audit["deviations"], 1, "mimic:G1")
    if d is None or abs(d["gain"] - ref["mimic_gain"]) > spec["tol"]:
        bad.append(f"mimic:G1 gain {d and d['gain']} not within {spec['tol']} of {ref['mimic_gain']}")
    return bad


def check_long_horizon(spec: dict, ref: dict, out: dict) -> list[str]:
    bad = []
    u1, u2 = spec["game"]["u1"], spec["game"]["u2"]
    n = len(u1)
    payoff_range = max(map(max, u1)) - min(map(min, u1))
    avgs = []
    for row in out["curves"]:
        t = row["t"]
        avg = row["swap_regret1"] / t
        bound = 3.0 * payoff_range * math.sqrt(n * math.log(n) / t)
        if not avg <= bound:
            bad.append(f"t={t}: average swap regret {avg} > {bound}")
        avgs.append(avg)
    if not all(a > b for a, b in zip(avgs, avgs[1:])):
        bad.append(f"average swap regret not strictly decreasing: {avgs}")
    horizon = out["horizon"]
    sums = {k: 0.0 for k in ("ext_regret1", "swap_regret1", "ext_regret2", "swap_regret2")}
    for k, trial in enumerate(out["trials"]):
        mass = np.asarray(trial["csp_mass"]) * horizon
        for player in (1, 2):
            ext, swap = regrets(mass, u1, u2, player)
            for name, mine in ((f"ext_regret{player}", ext), (f"swap_regret{player}", swap)):
                theirs = trial[name]
                sums[name] += theirs
                if abs(theirs - mine) > REGRET_TOL * max(1.0, abs(mine)):
                    bad.append(f"trial {k} {name} {theirs} != recomputed {mine}")
    for name, total in sums.items():
        mean = total / len(out["trials"])
        if abs(out["regrets"][name]["mean"] - mean) > REGRET_TOL * max(1.0, abs(mean)):
            bad.append(f"report {name} mean {out['regrets'][name]['mean']} != {mean}")
    # Against a constant column, player 1's average utility approaches the
    # best-reply value of that column.
    col = spec["constant_column"]
    best = max(row[col] for row in u1)
    gaps = [abs(best - row["avg_u1"]) for row in out["curves"]]
    if not gaps[-1] <= spec["utility_tol"]:
        bad.append(f"final average U1 {out['curves'][-1]['avg_u1']} not within "
                   f"{spec['utility_tol']} of best reply value {best}")
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        bad.append(f"gap to the best-reply value not shrinking: {gaps}")
    return bad


def _in_simplex(x, n: int) -> bool:
    return len(x) == n and min(x) >= -1e-9 and abs(sum(x) - 1.0) <= 1e-9


def check_solver(spec: dict, ref: dict, out: dict) -> list[str]:
    bad = []
    delta = spec["delta"]
    for gi, (game, refs, outs) in enumerate(zip(spec["games"], ref["games"], out["games"])):
        for r, o in zip(refs, outs):
            where = f"game {gi} leader {o['leader']}"
            lead, fol = orient(game["u1"], game["u2"], o["leader"])
            n_lead, n_fol = lead.shape
            if abs(o["value"] - r["value"]) > VALUE_TOL:
                bad.append(f"{where}: value {o['value']} != {r['value']}")
            for f, (mine, theirs) in enumerate(zip(r["per_reply"], o["per_reply"])):
                theirs = None if theirs == -math.inf else theirs
                if (mine is None) != (theirs is None) or (
                    mine is not None and abs(mine - theirs) > VALUE_TOL
                ):
                    bad.append(f"{where}: reply {f} value {theirs} != {mine}")
            if o["reply"] != r["reply"]:
                bad.append(f"{where}: reply {o['reply']} != {r['reply']}")
                continue
            x = np.asarray(o["strategy"])
            if not _in_simplex(o["strategy"], n_lead):
                bad.append(f"{where}: leader strategy off the simplex")
                continue
            fol_pay = x @ fol
            if fol_pay[r["reply"]] < fol_pay.max() - 1e-7:
                bad.append(f"{where}: reply {r['reply']} is not a best reply to the commitment")
            if abs(float(x @ lead[:, r["reply"]]) - r["value"]) > VALUE_TOL:
                bad.append(f"{where}: commitment does not earn the value")
            mix = np.asarray(o["pc_mix"])
            if not _in_simplex(o["pc_mix"], n_lead):
                bad.append(f"{where}: perturbed commitment off the simplex")
                continue
            pay = mix @ fol
            others = np.delete(pay, r["reply"])
            gap = float(pay[r["reply"]] - others.max()) if others.size else math.inf
            if not gap > 0.0:
                bad.append(f"{where}: target reply is not the unique best reply (gap {gap})")
            if gap < o["pc_margin"] - 1e-9:
                bad.append(f"{where}: achieved gap {gap} below reported margin {o['pc_margin']}")
            want = delta * r["margins"][r["reply"]]
            if abs(o["pc_margin"] - want) > VALUE_TOL:
                bad.append(f"{where}: margin {o['pc_margin']} != delta * c = {want}")
    if len(out["games"]) != len(spec["games"]):
        bad.append(f"{len(out['games'])} games solved, expected {len(spec['games'])}")
    return bad


CHECKS = {
    "equilibrium_audit": check_equilibrium_audit,
    "counterexample": check_counterexample,
    "long_horizon": check_long_horizon,
    "solver": check_solver,
}
