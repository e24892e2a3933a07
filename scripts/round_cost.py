#!/usr/bin/env python3
"""Cost of one simulated round: µs per trial-round of a checkout's engine.

For every config in configs/ it times the baseline pair, and on configs whose
player 2 is `no_swap_regret_bandit` also each deviation of player 1 from
audit.default_library that resolves to the stackelberg_leader class (the
commitment itself and its signal-forcing mimics) against that bandit. Each
pair runs its first --trials trials through the engine's trial function at
--horizon rounds, in this process; a row reports the fastest of --repeats
timings divided by trials x horizon. The process-wide perturbed-commitment
memo, where the checkout has one, is emptied before every timing, so each
timing solves the same LPs as a fresh process.

The code measured is the one under --src (default: this checkout), so two
checkouts can be compared from one copy of this script; run them in turns,
since the host's speed drifts.

Example:
    python3 scripts/round_cost.py --src ../parent/src --horizon 4000 --repeats 5
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def pairs(cli, audit, engine, learners, horizon: int, trials: int):
    """(config name, pair name, config) of every pair timed, in a fixed order."""
    sizes = argparse.Namespace(set=None, seed=None, trials=trials, horizon=horizon)
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = cli.load_config(str(path), sizes)
        yield path.stem, "baseline", cfg
        if cfg.spec2.kind != "no_swap_regret_bandit":
            continue
        for name, spec in audit.default_library(cfg).player1:
            if learners.canonical_spec(spec)[0] is learners.StackelbergLeader:
                yield path.stem, name, engine.with_spec(cfg, 1, spec)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory whose stratlab is timed")
    ap.add_argument("--horizon", type=int, default=4000)
    ap.add_argument("--trials", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if min(args.horizon, args.trials, args.repeats) < 1:
        ap.error("--horizon, --trials and --repeats must be >= 1")
    sys.path.insert(0, str(args.src.resolve()))
    from stratlab import audit, cli, engine, learners

    memo = getattr(learners, "_COMMITMENTS", {})
    print(f"# {args.src.resolve()}: min of {args.repeats} timings, "
          f"{args.trials} trial(s) x {args.horizon} rounds")
    print(f"{'config':<26} {'pair':<20} {'us/round':>9}")
    for config, name, cfg in pairs(cli, audit, engine, learners, args.horizon, args.trials):
        best = float("inf")
        for _ in range(args.repeats):
            memo.clear()
            t0 = perf_counter()
            for k in range(args.trials):
                engine._simulate(cfg, k)
            best = min(best, perf_counter() - t0)
        print(f"{config:<26} {name:<20} {best / (args.trials * args.horizon) * 1e6:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
