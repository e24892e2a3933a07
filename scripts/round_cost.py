#!/usr/bin/env python3
"""Cost of one simulated round: µs per trial-round of a checkout's engine.

For every config in configs/ (or each one named by --config: a config of
configs/ by name, or a path to a config JSON) it times the baseline pair, and on configs whose player 2 is `no_swap_regret_bandit` also
each deviation of player 1 from audit.default_library that resolves to the
stackelberg_leader class (the commitment itself and its signal-forcing
mimics) against that bandit. Each
pair runs its first --trials trials through the engine's trial function at
--horizon rounds, in this process; a row reports the fastest of --repeats
timings divided by trials x horizon. The process-wide perturbed-commitment
memo, where the checkout has one, is emptied before every timing, so each
timing solves the same LPs as a fresh process. The `repeat` column is the
share of those trial-rounds whose two strategies are the objects played the
round before (rounds the engine can replay), from a separate untimed pass.

The code measured is the one under --src (default: this checkout). With
--against PATH (another checkout, or its src/ directory) that checkout's
stratlab is imported too, as the package `stratlab_against`, and every pair is
timed --repeats times on each side, the side that runs first alternating from
one pair of timings to the next, so both sides see the same drift of the
host's speed. A row then reports each side's median, the interquartile range
of the other side's timings, the ratio of the medians (this side over the
other), the number of timing pairs this side won, a verdict and this side's
repeat share. The verdict is `faster` or `slower` only when one side won at
least 9 in 10 of the pairs and the medians differ by more than that IQR;
otherwise the row is `unresolved`, as a change within the host's noise is.

Example:
    python3 scripts/round_cost.py --horizon 4000 --repeats 5
    python3 scripts/round_cost.py --against ../parent --horizon 5000 --repeats 9
    python3 scripts/round_cost.py --config swap_decay --config reveal_follow
    python3 scripts/round_cost.py --config my_pair.json --against ../parent
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

from bench_record import spread

ROOT = Path(__file__).resolve().parent.parent


def config_paths(names) -> tuple[list[Path], list[str]]:
    """(paths of the configs to time, names that are neither a config of
    configs/ nor a file): every shipped config when names is None."""
    shipped = {p.stem: p for p in sorted((ROOT / "configs").glob("*.json"))}
    if names is None:
        return list(shipped.values()), []
    paths = [shipped.get(name) or Path(name) for name in dict.fromkeys(names)]
    return [p for p in paths if p.is_file()], [str(p) for p in paths if not p.is_file()]


def pairs(audit, cli, engine, learners, paths: list, horizon: int, trials: int):
    """(config name, pair name, config) of every pair timed, in a fixed order."""
    sizes = argparse.Namespace(set=None, seed=None, trials=trials, horizon=horizon)
    for path in paths:
        cfg = cli.load_config(str(path), sizes)
        yield path.stem, "baseline", cfg
        if cfg.spec2.kind != "no_swap_regret_bandit":
            continue
        lib = audit.default_library(cfg)  # a checkout before the mapping has .player1
        for name, spec in lib[1] if isinstance(lib, dict) else lib.player1:
            if learners.canonical_spec(spec)[0] is learners.StackelbergLeader:
                yield path.stem, name, engine.with_spec(cfg, 1, spec)


def source(path: Path) -> Path:
    """The src/ directory of the checkout at path, or path itself when it is
    not a checkout (then it is taken to be a src/ directory)."""
    return path / "src" if (path / "src" / "stratlab").is_dir() else path


def load(src: Path, name: str) -> list:
    """[audit, cli, engine, learners] of the stratlab package under src/,
    imported as the package `name` (its modules import each other relatively)."""
    init = src / "stratlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return [importlib.import_module(f"{name}.{m}") for m in ("audit", "cli", "engine", "learners")]


def timing(engine, learners, cfg, trials: int) -> float:
    """Seconds to simulate trials 0..trials-1 of cfg, with the process-wide
    perturbed-commitment memo (where the checkout has one) emptied first."""
    getattr(learners, "_COMMITMENTS", {}).clear()
    t0 = perf_counter()
    for k in range(trials):
        engine._simulate(cfg, k)
    return perf_counter() - t0


def repeat_share(engine, cfg, trials: int) -> float:
    """Share of the trial-rounds of trials 0..trials-1 of cfg whose two
    strategies are the objects of the trial's round before, read from the
    feedback records in an untimed pass that wraps each learner's observe."""
    init = engine.learner_init
    played: list = []  # per learner made, its own strategy of every round

    def spying_init(*args):
        learner = init(*args)
        observe, seen = learner.observe, []
        played.append(seen)

        def spied(fb):
            seen.append(fb.own_strategy)
            observe(fb)

        learner.observe = spied
        return learner

    engine.learner_init = spying_init
    try:
        for k in range(trials):
            engine._simulate(cfg, k)
    finally:
        engine.learner_init = init
    repeats = sum(x0 is x1 and y0 is y1
                  for xs, ys in zip(played[0::2], played[1::2])
                  for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
    return repeats / sum(map(len, played[0::2]))


def compare(this: list, against: list) -> tuple[float, int, str]:
    """(IQR of against, pairs this won, verdict) of paired timings this[r],
    against[r]: `faster` or `slower` when the side with the lower median won
    at least 9 in 10 of the pairs and the medians differ by more than the
    IQR, else `unresolved`."""
    gap = statistics.median(this) - statistics.median(against)
    iqr = spread(against)["iqr"]
    wins = sum(a < b for a, b in zip(this, against))
    won = wins if gap < 0 else sum(a > b for a, b in zip(this, against))
    if 10 * won >= 9 * len(this) and abs(gap) > iqr:
        return iqr, wins, "faster" if gap < 0 else "slower"
    return iqr, wins, "unresolved"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory whose stratlab is timed")
    ap.add_argument("--against", type=Path, default=None,
                    help="another checkout (or its src/) to time in turns with --src")
    ap.add_argument("--horizon", type=int, default=4000)
    ap.add_argument("--trials", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--config", action="append", metavar="NAME",
                    help="time only the pairs of this config of configs/, or of this "
                         "config JSON file (repeatable)")
    args = ap.parse_args(argv)
    if min(args.horizon, args.trials, args.repeats) < 1:
        ap.error("--horizon, --trials and --repeats must be >= 1")
    paths, unknown = config_paths(args.config)
    if unknown:
        ap.error(f"no config named {', '.join(unknown)} in configs/, and no such file")
    sides = [args.src.resolve()]
    if args.against is not None:
        sides.append(source(args.against.resolve()))
    modules = [load(src, name) for src, name in zip(sides, ("stratlab", "stratlab_against"))]
    tables = [{(c, n): cfg for c, n, cfg in pairs(*m, paths, args.horizon, args.trials)}
              for m in modules]
    us = 1e6 / (args.trials * args.horizon)
    size = f"{args.trials} trial(s) x {args.horizon} rounds"
    if args.against is None:
        _, _, engine, learners = modules[0]
        print(f"# {sides[0]}: min of {args.repeats} timings, {size}")
        print(f"{'config':<26} {'pair':<20} {'us/round':>9} {'repeat':>7}")
        for (config, name), cfg in tables[0].items():
            best = min(timing(engine, learners, cfg, args.trials) for _ in range(args.repeats))
            repeat = repeat_share(engine, cfg, args.trials)
            print(f"{config:<26} {name:<20} {best * us:9.2f} {repeat:7.1%}")
        return 0
    print(f"# this: {sides[0]}\n# against: {sides[1]}\n"
          f"# medians of {args.repeats} paired timings, {size}")
    print(f"{'config':<26} {'pair':<20} {'this us':>9} {'against':>9} {'IQR':>7} {'ratio':>6} "
          f"{'wins':>7} {'verdict':>10} {'repeat':>7}")
    for key in [k for k in tables[0] if k in tables[1]]:
        times: tuple[list, list] = ([], [])
        for r in range(args.repeats):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                _, _, engine, learners = modules[side]
                times[side].append(timing(engine, learners, tables[side][key], args.trials))
        this, against = (statistics.median(t) * us for t in times)
        iqr, wins, verdict = compare(*times)
        iqr *= us
        repeat = repeat_share(modules[0][2], tables[0][key], args.trials)
        print(f"{key[0]:<26} {key[1]:<20} {this:9.2f} {against:9.2f} {iqr:7.2f} "
              f"{this / against:6.3f} {f'{wins}/{args.repeats}':>7} {verdict:>10} {repeat:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
