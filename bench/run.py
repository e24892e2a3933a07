"""stratlab benchmark: one workload, its end-to-end metrics and its checks.

    python3 bench/run.py --workload equilibrium_audit --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds `src/` and `configs/`. The
workload's inputs are made from --seed. Each set-up and each measurement
runs in a fresh interpreter (`child.py`); this process builds the inputs,
computes the reference values with numpy and scipy, checks every output and
prints the metrics. Times are scaled to a reference host speed measured
while they run (calibrate.py). The last line of stdout is one JSON object.
With --trace 1 it reports the per-layer metrics instead and writes the spans
to bench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Speedometer, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 9  # set-up-only interpreters, after one that compiles the bytecode
SOLVER_SIZES = (2, 4, 8)
SOLVER_GAMES_PER_SIZE = 16
PROBE_GAMES_PER_SIZE = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> (unit, module, end-to-end metric it should move, workloads it shows on)
PER_LAYER = {
    "engine.run_summaries.calls": ("count", "engine", "wall_s", "equilibrium_audit, counterexample"),
    "engine.trial_rounds": ("count", "engine", "throughput_per_s", "equilibrium_audit, counterexample"),
    "engine.run_summaries.ms_p50": ("ms", "engine", "wall_s", "equilibrium_audit"),
    "engine.loop_self.us_per_trial_round": ("us", "engine", "wall_s", "counterexample"),
    "engine.idle_pair.us_per_trial_round": ("us", "engine", "wall_s", "counterexample"),
    "engine.pool_start.ms": ("ms", "engine", "wall_s", "equilibrium_audit"),
    "engine.summarize.ms": ("ms", "engine", "wall_s", "counterexample"),
    "engine.estimate_csps.ms": ("ms", "engine", "wall_s", "counterexample"),
    "learners.act.us": ("us", "learners", "wall_s", "equilibrium_audit, long_horizon"),
    "learners.observe.us": ("us", "learners", "wall_s", "equilibrium_audit, long_horizon"),
    "learners.act.calls": ("count", "learners", "wall_s", "equilibrium_audit, long_horizon"),
    "learners.constant_action.round_us": ("us", "learners", "wall_s", "all simulation workloads"),
    "learners.stackelberg_leader.round_us": ("us", "learners", "wall_s", "equilibrium_audit"),
    "learners.reveal_then_follow_leader.round_us": ("us", "learners", "wall_s", "counterexample"),
    "learners.best_responder.round_us": ("us", "learners", "wall_s", "equilibrium_audit, counterexample"),
    "learners.infer_then_commit_follower.round_us": ("us", "learners", "wall_s", "counterexample"),
    "learners.no_swap_regret_bandit.round_us": ("us", "learners", "wall_s", "equilibrium_audit"),
    "learners.no_swap_regret_full.round_us": ("us", "learners", "wall_s", "long_horizon"),
    "learners.regrets_from_mass.us": ("us", "learners", "wall_s", "long_horizon, counterexample"),
    "audit.runs": ("count", "audit", "wall_s", "equilibrium_audit, counterexample"),
    "audit.self.ms": ("ms", "audit", "wall_s", "equilibrium_audit, counterexample"),
    "audit.paired_gain.us": ("us", "audit", "wall_s", "equilibrium_audit, counterexample"),
    **{
        f"solve.{fn}.us.n{n}": ("us", "solve", "throughput_per_s", "solver")
        for fn in ("stackelberg_value", "perturbed_commitment") for n in SOLVER_SIZES
    },
    "solve.calls": ("count", "solve", "wall_s", "equilibrium_audit"),
    "lp.lp_solve.calls": ("count", "lp", "throughput_per_s", "solver"),
    "lp.lp_solve.us_p50": ("us", "lp", "throughput_per_s", "solver"),
    "lp.lp_solve.us_p99": ("us", "lp", "throughput_per_s", "solver"),
    "setup.import.ms": ("ms", "cli", "setup_s", "all"),
    "cli.load_config.ms": ("ms", "cli", "setup_s", "all"),
    "trace.overhead_s": ("s", "bench", "none (traced minus untraced wall_s)", "all"),
}

WORKLOADS = ("equilibrium_audit", "counterexample", "long_horizon", "solver")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_games(rng: random.Random, per_size: int, checks) -> tuple[list[dict], list]:
    """Integer-payoff n x n games whose answers are decided with a margin,
    as judged by the independent LP (see checks.solver_game_usable), and
    their references."""
    games, refs = [], []
    for n in SOLVER_SIZES:
        while len(games) < per_size * (SOLVER_SIZES.index(n) + 1):
            g = {"n": n,
                 "u1": [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)],
                 "u2": [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]}
            ref = checks.solver_game_reference(g)
            if checks.solver_game_usable(ref):
                games.append(g)
                refs.append(ref)
    return games, refs


def build_spec(workload: str, seed: int, trace: bool, checks) -> tuple[dict, dict]:
    """Inputs of one workload, made from the seed alone, and the reference
    values its checks compare against."""
    if workload == "equilibrium_audit":
        spec = {"config": "configs/leader_vs_learner_audit.json", "horizon": 8000, "trials": 8,
                "epsilon": 0.5, "threads": 2, "runs": 14, "u1_tol": 0.05}
    elif workload == "counterexample":
        spec = {"config": "configs/reveal_follow.json", "horizon": 1000, "trials": 32,
                "p_star": 0.0, "tol": 0.05, "epsilon": 0.1, "threads": 1, "runs": 16}
    elif workload == "long_horizon":
        raw = json.loads((ROOT / "configs/swap_decay.json").read_text())
        (entry,) = raw["prior"]["games"]
        spec = {"config": "configs/swap_decay.json", "horizon": None, "trials": 2, "threads": 1,
                "runs": 1, "full_horizon": raw["horizon"],
                "game": {"u1": entry["game"]["u1"], "u2": entry["game"]["u2"]},
                "constant_column": raw["spec2"]["params"]["action"], "utility_tol": 0.01}
    elif workload == "solver":
        games, refs = random_games(random.Random(seed), SOLVER_GAMES_PER_SIZE, checks)
        spec = {"games": games, "delta": 0.1, "threads": 1}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["seed"] = seed
    if trace:
        spec["probe_games"] = random_games(random.Random(f"probe-{seed}"),
                                           PROBE_GAMES_PER_SIZE, checks)[0]
    ref = {"games": refs} if workload == "solver" else checks.reference(workload, spec)
    return spec, ref


def work_units(workload: str, spec: dict) -> int:
    """Trial-rounds the experiments request, or games solved."""
    if workload == "solver":
        return len(spec["games"])
    horizon = spec["horizon"] or spec["full_horizon"]
    return spec["runs"] * spec["trials"] * horizon


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_child(workload: str, spec: dict, mode: str, seconds: float = 0.0) -> tuple[dict, float]:
    """Run child.py; returns its result and its set-up time (launch to the
    first timed call)."""
    job = json.dumps({"workload": workload, "spec": spec, "mode": mode, "seconds": seconds})
    launched = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=job,
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    result = json.loads(proc.stdout)
    return result, result["setup_end"] - launched


def check_outputs(workload: str, spec: dict, ref: dict, outputs: list[dict],
                  checks) -> tuple[int, bool]:
    """(outputs failing their checks, whether the passing ones are identical:
    the same inputs must give the same outputs)."""
    check = checks.CHECKS[workload]
    passed = []
    for i, out in enumerate(outputs):
        problems = check(spec, ref, out)
        if problems:
            sys.stderr.write(f"output {i} failed its checks:\n  " + "\n  ".join(problems[:10]) + "\n")
        else:
            passed.append(out)
    return len(outputs) - len(passed), all(out == passed[0] for out in passed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "stratlab").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: no stratlab sources under {ROOT}", file=sys.stderr)
        return 2
    import checks  # numpy and scipy, only once the program is known to be there

    spec, ref = build_spec(args.workload, args.seed, bool(args.trace), checks)
    # The first interpreter compiles the sources; later ones find the bytecode.
    # A set-up is scaled by the units timed in its own interpreter and by
    # those this process times meanwhile, on the other vCPU.
    run_child(args.workload, spec, "setup")
    raw_setups, setups = [], []
    if not args.trace:
        speed = Speedometer()
        for _ in range(SETUP_SAMPLES):
            first = len(speed.samples)
            with speed:
                sample, span = run_child(args.workload, spec, "setup")
            here = speed.samples[first:]
            raw_setups.append(span)
            setups.append(scale(span, sample["setup_units"], sum(here), len(here)))
    mode = "trace" if args.trace else "measure"
    result, _ = run_child(args.workload, spec, mode, args.seconds)

    failed, same = check_outputs(args.workload, spec, ref, result["outputs"], checks)
    failed += len(result["errors"])
    for err in result["errors"]:
        sys.stderr.write(f"operation raised: {err}\n")
    attempted = len(result["outputs"]) + len(result["errors"])
    if not result["walls"]:
        print("error: every operation failed", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = {k: {"value": result["metrics"][k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        table = [{"name": k, "unit": unit, "value": result["metrics"][k],
                  "source": result["source"][k], "module": module, "moves": moves, "on": on}
                 for k, (unit, module, moves, on) in PER_LAYER.items()]
        record = {"workload": args.workload, "seed": args.seed, "overhead": result["overhead"],
                  "per_layer": table, "spans": result["spans"],
                  "probe_spans": result["probe_spans"]}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    else:
        # Times are in seconds at the reference host speed (calibrate.py);
        # the raw figures go to the result file.
        wall = statistics.mean(result["walls"])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "throughput_per_s": work_units(args.workload, spec) / wall,
            "peak_rss_mb": result["rss_kb"] / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        record = {"workload": args.workload, "seed": args.seed, "walls": result["walls"],
                  "raw_walls": result["raw_walls"], "setups": setups, "raw_setups": raw_setups,
                  "spec": spec, "first_output": result["outputs"][0]}
        path = OUT / f"result-{args.workload}-seed{args.seed}.json"

    line = {"correct": same, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = line
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
