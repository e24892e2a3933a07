"""One workload inside a fresh interpreter.

Reads a job as JSON on stdin, sets the workload up (imports, config loading
and validation, game and prior construction), then either stops ("setup"),
repeats the timed phase until the time budget is spent ("measure"), or runs
it once untraced and once traced followed by the per-layer probes ("trace").
Set-up and measurement run under a `calibrate.Speedometer`, whose unit times
are returned with the results. Writes one JSON object to stdout. The
benchmark's `run.py` starts it; the checks run there, outside this process,
so they do not add to its memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

from calibrate import Speedometer

ROOT = Path(__file__).resolve().parent.parent
TRACE_PROBE = {"config": "configs/reveal_follow.json", "horizon": 200, "trials": 8}
KIND_ROUNDS = 3000


def load_config(spec: dict):
    from stratlab import cli

    overrides = argparse.Namespace(
        set=None, seed=spec["seed"], trials=spec["trials"], horizon=spec.get("horizon")
    )
    return cli.load_config(str(ROOT / spec["config"]), overrides)


def prepare(workload: str, spec: dict):
    """Set the workload up; returns op(threads) -> output dict."""
    from stratlab import audit, engine, games, solve

    if workload == "solver":
        matrices = [games.game_matrix(f"g{i}", g["u1"], g["u2"]) for i, g in enumerate(spec["games"])]
        delta = spec["delta"]

        def op(threads):
            out = []
            for g in matrices:
                per_leader = []
                for leader in (1, 2):
                    sol = solve.stackelberg_value(g, leader)
                    mix, margin = solve.perturbed_commitment(g, leader, delta)
                    per_leader.append({
                        "leader": leader, "value": sol.value,
                        "strategy": list(sol.leader_strategy), "reply": sol.follower_action,
                        "per_reply": list(sol.per_follower_action_values),
                        "pc_mix": list(mix), "pc_margin": margin,
                    })
                out.append(per_leader)
            return {"games": out}

        return op

    cfg = load_config(spec)
    if workload == "equilibrium_audit":
        def op(threads):
            r = audit.audit_pne(cfg, epsilon=spec["epsilon"], threads=threads)
            return {"verdict": r.verdict, "deviations": r.deviations,
                    "u1_prior_weighted": r.baseline.prior_weighted_u1,
                    "realized": [s.realized for s in r.baseline.summaries]}
    elif workload == "counterexample":
        def op(threads):
            claims = audit.verify_claims(cfg, p_star=spec["p_star"], tol=spec["tol"],
                                         threads=threads)
            r = audit.audit_pne(cfg, epsilon=spec["epsilon"], threads=threads)
            return {"claims": claims.to_dict(),
                    "audit": {"verdict": r.verdict, "deviations": r.deviations,
                              "failing": [list(f) for f in r.failing]}}
    elif workload == "long_horizon":
        def op(threads):
            r = engine.estimate(cfg, threads=threads)
            return {"horizon": r.horizon, "curves": r.checkpoint_curves, "regrets": r.regrets,
                    "trials": [{"csp_mass": s.csp_mass, "ext_regret1": s.ext_regret1,
                                "swap_regret1": s.swap_regret1, "ext_regret2": s.ext_regret2,
                                "swap_regret2": s.swap_regret2} for s in r.summaries]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return op


def peak_rss_kb() -> int:
    """Peak resident set of this process or any reaped child (pool workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def measure(op, threads: int, seconds: float, speed) -> dict:
    """Repeat the timed phase until the budget is spent: another repetition
    starts while at least half of one still fits, so runs last `seconds` on
    average whatever the length of one repetition. Each repetition's wall
    time is also scaled by the calibration units that fell inside it."""
    walls, raw_walls, outputs, errors, durations = [], [], [], [], []
    start = perf_counter()
    while True:
        first, first_fork = len(speed.samples), speed.forks
        t0 = perf_counter()
        try:
            out = op(threads)
        except Exception as e:  # a raising repetition counts as a failed operation
            errors.append(repr(e))
        else:
            wall = perf_counter() - t0
            raw_walls.append(wall)
            walls.append(speed.scale(wall, first, first_fork))
            outputs.append(out)
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) / 2 > seconds:
            break
    return {"walls": walls, "raw_walls": raw_walls, "outputs": outputs, "errors": errors,
            "rss_kb": peak_rss_kb()}


# ---------------------------------------------------------------------------
# Traced run and per-layer probes
# ---------------------------------------------------------------------------


def solve_probe(games_spec: list[dict]) -> None:
    from stratlab import games, solve

    for i, g in enumerate(games_spec):
        m = games.game_matrix(f"probe{i}", g["u1"], g["u2"])
        for leader in (1, 2):
            solve.stackelberg_value(m, leader)
            solve.perturbed_commitment(m, leader, 0.1)


def sweep(seed: int, probe_games: list[dict]) -> None:
    """A small pass through every layer, for the layers the workload skips."""
    from stratlab import audit

    cfg = load_config({**TRACE_PROBE, "seed": seed})
    audit.verify_claims(cfg, p_star=0.0)
    audit.audit_pne(cfg, epsilon=0.1)
    solve_probe(probe_games)


def kind_round_us(seed: int) -> dict[str, float]:
    """µs per act+observe round of each learner kind against a uniform opponent."""
    from stratlab.games import FeedbackRecord, load_prior
    from stratlab.learners import LearnerSpec, learner_init

    fig1 = load_prior("fig1:gamma=1")
    swap = load_config({"config": "configs/swap_decay.json", "seed": seed, "trials": 1})
    cases = (
        ("constant_action", {"action": 0}, 1, fig1),
        ("stackelberg_leader", {}, 1, fig1),
        ("reveal_then_follow_leader", {}, 1, fig1),
        ("best_responder", {}, 2, fig1),
        ("infer_then_commit_follower", {}, 2, fig1),
        ("no_swap_regret_bandit", {}, 2, fig1),
        ("no_swap_regret_full", {}, 1, swap.prior),
    )
    out = {}
    for kind, params, role, prior in cases:
        g = prior.games[0]
        own = g.u1 if role == 1 else tuple(zip(*g.u2))  # own[a][o]
        n_opp = len(own[0])
        opp = tuple([1.0 / n_opp] * n_opp)
        row_value = [sum(v * p for v, p in zip(row, opp)) for row in own]
        learner = learner_init(LearnerSpec(kind, params), role, prior, 0, Random(seed))
        t0 = perf_counter()
        for _ in range(KIND_ROUNDS):
            x = learner.act()
            u = sum(xa * r for xa, r in zip(x, row_value))
            learner.observe(FeedbackRecord(x, opp, u))
        out[f"learners.{kind}.round_us"] = (perf_counter() - t0) / KIND_ROUNDS * 1e6
    return out


def engine_probes(seed: int) -> dict[str, float]:
    from stratlab.engine import ExperimentConfig, run_summaries
    from stratlab.games import SignalModel, load_prior
    from stratlab.learners import LearnerSpec

    const = LearnerSpec("constant_action", {"action": 0})

    def cfg(horizon, trials):
        return ExperimentConfig(load_prior("fig1:gamma=1"), SignalModel(1.0, 0.0), const, const,
                                horizon=horizon, trials=trials, master_seed=seed,
                                tail_window=horizon)

    idle = cfg(20_000, 2)
    t0 = perf_counter()
    run_summaries(idle, 1)
    idle_us = (perf_counter() - t0) / (idle.trials * idle.horizon) * 1e6
    tiny = cfg(1, 2)
    diffs = []
    for _ in range(5):
        t0 = perf_counter()
        run_summaries(tiny, 1)
        t1 = perf_counter()
        run_summaries(tiny, 2)
        diffs.append((perf_counter() - t1) - (t1 - t0))
    return {"engine.idle_pair.us_per_trial_round": idle_us,
            "engine.pool_start.ms": statistics.median(diffs) * 1e3}


def setup_probes(spec: dict) -> dict[str, float]:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import stratlab.cli; print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(3)]
    cfg_spec = spec if "config" in spec else {
        "config": "configs/leader_vs_learner_audit.json", "seed": spec["seed"], "trials": 8}
    loads = []
    for _ in range(5):
        t0 = perf_counter()
        load_config(cfg_spec)
        loads.append(perf_counter() - t0)
    return {"setup.import.ms": statistics.median(imports) * 1e3,
            "cli.load_config.ms": statistics.median(loads) * 1e3}


def trace(op, spec: dict) -> dict:
    """Untraced then traced pass at threads=1, then the per-layer probes."""
    from tracer import Tracer, layer_metrics, span_table

    t0 = perf_counter()
    plain_out = op(1)
    plain = perf_counter() - t0
    tr = Tracer()
    tr.install()
    try:
        t0 = perf_counter()
        traced_out = op(1)
        traced = perf_counter() - t0
    finally:
        tr.uninstall()
    probe = Tracer()
    probe.install()
    try:
        sweep(spec["seed"], spec["probe_games"])
    finally:
        probe.uninstall()
    measured, fallback = layer_metrics(tr), layer_metrics(probe)
    metrics, source = {}, {}
    for name, value in measured.items():
        use_probe = value is None
        metrics[name] = fallback[name] if use_probe else value
        source[name] = "probe" if use_probe else "workload"
    for extra in (kind_round_us(spec["seed"]), engine_probes(spec["seed"]), setup_probes(spec)):
        metrics.update(extra)
        source.update(dict.fromkeys(extra, "probe"))
    metrics["trace.overhead_s"] = traced - plain
    source["trace.overhead_s"] = "workload"
    return {
        "outputs": [plain_out, traced_out], "walls": [plain], "errors": [],
        "metrics": metrics, "source": source,
        "overhead": {"untraced_wall_s": plain, "traced_wall_s": traced,
                     "overhead_s": traced - plain, "overhead_share": (traced - plain) / plain},
        "spans": span_table(tr), "probe_spans": span_table(probe),
    }


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    if job["mode"] == "trace":  # traced timings stay unscaled: no timer in the spans
        op = prepare(job["workload"], job["spec"])
        setup_end = perf_counter()
        result = trace(op, job["spec"])
    else:
        with Speedometer() as speed:
            op = prepare(job["workload"], job["spec"])
            setup_end = perf_counter()
            setup_units = list(speed.samples)
            if job["mode"] == "measure":
                result = measure(op, job["spec"]["threads"], job["seconds"], speed)
            else:
                result = {}
        result["setup_units"] = setup_units
    result["setup_end"] = setup_end
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
