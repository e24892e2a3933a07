#!/usr/bin/env python3
"""Cost of the Stackelberg solves: µs and LP solves per call of
`stackelberg_value` and `perturbed_commitment`.

For each n in {2, 4, 8} it draws --games n x n games from a fixed seed,
with integer payoffs in [-99, 99] as in the benchmark's `solver` workload,
and keeps those whose perturbed commitment exists for both leaders. Each
function is called on every kept game for both leaders (perturbed_commitment
at delta = 0.1), and a row reports the fastest of --repeats timings of that
pass divided by its calls, and the LP solves per call, counted in a separate
untimed pass by the benchmark's tracer (bench/tracer.py), which wraps
`solve.lp_solve` as the `lp.lp_solve` of its traced runs.

With --against PATH (another checkout, or its src/ directory) that checkout's
stratlab is imported too, as the package `stratlab_against`, and every pass
is timed --repeats times on each side, the side that runs first alternating
from one pair of timings to the next. A row then reports each side's median
and LP solves per call, the interquartile range of the other side's timings,
the ratio of the medians (this side over the other), the pairs this side won
and the verdict of `round_cost.py`'s rule: `faster` or `slower` only when one
side won at least 9 in 10 of the pairs and the medians differ by more than
that IQR, else `unresolved`.

Example:
    python3 scripts/solve_cost.py --games 16 --repeats 5
    python3 scripts/solve_cost.py --against ../parent --repeats 11
"""

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

from round_cost import ROOT, compare, load, source

SIZES = (2, 4, 8)
SEED = 1
CALLS = {
    "stackelberg_value": lambda solve, g, leader: solve.stackelberg_value(g, leader),
    "perturbed_commitment": lambda solve, g, leader: solve.perturbed_commitment(g, leader, 0.1),
}


def payoffs(n: int, count: int) -> list:
    """count pairs (u1, u2) of n x n integer payoff matrices drawn from SEED."""
    rng = random.Random(f"{SEED}:{n}")
    return [tuple([[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)] for _ in range(2))
            for _ in range(count)]


def has_commitment(side, u1, u2) -> bool:
    """Whether side's perturbed commitment of the game exists for both leaders."""
    solve, games, errors = side
    try:
        for leader in (1, 2):
            solve.perturbed_commitment(games.game_matrix("g", u1, u2), leader, 0.1)
    except errors.AssumptionViolatedError:
        return False
    return True


def timing(solve, fn: str, matrices: list) -> float:
    """Seconds to call fn on every game of matrices for both leaders."""
    call = CALLS[fn]
    t0 = perf_counter()
    for g in matrices:
        for leader in (1, 2):
            call(solve, g, leader)
    return perf_counter() - t0


def load_tracer():
    """The benchmark's bench/tracer.py as a module (bench/ is no package)."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def lp_solves(solve, fn: str, matrices: list) -> int:
    """LP solves of one untimed pass of timing(solve, fn, matrices)."""
    tr = load_tracer().Tracer()
    tr.patch(solve, "lp_solve", "lp.lp_solve")
    try:
        timing(solve, fn, matrices)
    finally:
        tr.uninstall()
    return tr.count("lp.lp_solve")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, default=None,
                    help="another checkout (or its src/) to time in turns with this one")
    ap.add_argument("--games", type=int, default=16, help="games drawn per n")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if min(args.games, args.repeats) < 1:
        ap.error("--games and --repeats must be >= 1")
    srcs = [ROOT / "src"] + ([source(args.against.resolve())] if args.against else [])
    sides = []
    for src, name in zip(srcs, ("stratlab", "stratlab_against")):
        load(src, name)
        sides.append([importlib.import_module(f"{name}.{m}") for m in ("solve", "games", "errors")])
    rows = []  # (fn, n, kept games, per side: (solve, games of that side))
    for n in SIZES:
        kept = [p for p in payoffs(n, args.games)
                if all(has_commitment(side, *p) for side in sides)]
        for fn in CALLS:
            rows.append((fn, n, len(kept), [
                (solve, [games.game_matrix("g", *p) for p in kept]) for solve, games, _ in sides]))
    if args.against is None:
        print(f"# {srcs[0]}: min of {args.repeats} timings, both leaders")
        print(f"{'function':<22} {'n':>2} {'games':>5} {'us/call':>9} {'lp/call':>8}")
        for fn, n, kept, [(solve, matrices)] in rows:
            calls = 2 * kept or 1
            best = min(timing(solve, fn, matrices) for _ in range(args.repeats))
            print(f"{fn:<22} {n:>2} {kept:>5} {best * 1e6 / calls:9.2f} "
                  f"{lp_solves(solve, fn, matrices) / calls:8.2f}")
        return 0
    print(f"# this: {srcs[0]}\n# against: {srcs[1]}\n"
          f"# medians of {args.repeats} paired timings, both leaders")
    print(f"{'function':<22} {'n':>2} {'games':>5} {'this us':>9} {'against':>9} {'IQR':>7} "
          f"{'ratio':>6} {'wins':>7} {'verdict':>10} {'this lp':>8} {'against':>8}")
    for fn, n, kept, per_side in rows:
        calls = 2 * kept or 1
        times: tuple[list, list] = ([], [])
        for r in range(args.repeats):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                solve, matrices = per_side[side]
                times[side].append(timing(solve, fn, matrices))
        this, against = (statistics.median(t) * 1e6 / calls for t in times)
        iqr, wins, verdict = compare(*times)
        lps = [lp_solves(solve, fn, matrices) / calls for solve, matrices in per_side]
        print(f"{fn:<22} {n:>2} {kept:>5} {this:9.2f} {against:9.2f} {iqr * 1e6 / calls:7.2f} "
              f"{this / against:6.3f} {f'{wins}/{args.repeats}':>7} "
              f"{verdict:>10} {lps[0]:8.2f} {lps[1]:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
