"""Command-line front end.

Subcommands: stackval, simulate, audit, claims, reveal, learn. Experiment
configs are JSON files (see configs/ in the repository and the README for the
schema); every simulation command accepts --seed/--trials/--horizon shortcuts
and dotted-path overrides like --set signal_model.p2=0.5. Exit codes: 0 on
success/pass, 2 on a failing verdict, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .audit import BELIEF_KINDS, audit_pne, belief_trace, revelation_analysis, verify_claims
from .engine import ExperimentConfig, estimate, estimate_csps, write_csv
from .errors import InvalidArgumentError, check_type
from .games import (
    SignalModel,
    load_game,
    load_prior,
    prior_from_dict,
    prior_to_dict,
)
from .learners import LearnerSpec
from .solve import stackelberg_value, stackval_prior


def config_from_dict(d: dict) -> ExperimentConfig:
    unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise InvalidArgumentError(f"unknown config key(s) {', '.join(map(repr, unknown))}")

    def typed(value, key, kind="integer"):
        return check_type(value, f"config key {key!r}", kind)

    try:
        prior_spec = d["prior"]
        prior = (
            load_prior(prior_spec) if isinstance(prior_spec, str) else prior_from_dict(prior_spec)
        )
        sm = d["signal_model"]
        if not isinstance(sm, dict):
            raise InvalidArgumentError(f"config key 'signal_model' must be an object, got {sm!r}")
        cps = d.get("checkpoints", ())
        if not isinstance(cps, (list, tuple)):
            raise InvalidArgumentError(f"config key 'checkpoints' must be a list, got {cps!r}")
        cfg = ExperimentConfig(
            prior=prior,
            signal_model=SignalModel(
                float(typed(sm["p1"], "signal_model.p1", "number")),
                float(typed(sm["p2"], "signal_model.p2", "number")),
            ),
            spec1=LearnerSpec.from_dict(d["spec1"]),
            spec2=LearnerSpec.from_dict(d["spec2"]),
            horizon=typed(d["horizon"], "horizon"),
            trials=typed(d.get("trials", 32), "trials"),
            feedback_mode=d.get("feedback_mode", "full"),
            pure_realization=typed(d.get("pure_realization", False), "pure_realization", "boolean"),
            master_seed=typed(d.get("master_seed", 0), "master_seed"),
            checkpoints=tuple(typed(c, "checkpoints") for c in cps),
            tail_window=typed(d.get("tail_window", 10_000), "tail_window"),
            tail_threshold=float(typed(d.get("tail_threshold", 0.9), "tail_threshold", "number")),
        )
    except KeyError as e:
        raise InvalidArgumentError(f"experiment config missing key {e}") from e
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "prior": prior_to_dict(cfg.prior),
        "signal_model": {"p1": cfg.signal_model.p1, "p2": cfg.signal_model.p2},
        "spec1": cfg.spec1.to_dict(),
        "spec2": cfg.spec2.to_dict(),
        "horizon": cfg.horizon,
        "trials": cfg.trials,
        "feedback_mode": cfg.feedback_mode,
        "pure_realization": cfg.pure_realization,
        "master_seed": cfg.master_seed,
        "checkpoints": list(cfg.checkpoints),
        "tail_window": cfg.tail_window,
        "tail_threshold": cfg.tail_threshold,
    }


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one dotted-path override (e.g. signal_model.p2=0.5) in place.

    Intermediate keys must exist; the final key must exist too, except under a
    "params" object where new learner parameters may be introduced (the
    learner spec then checks them against its kind's param table).
    """
    path, sep, value = assignment.partition("=")
    if not sep:
        raise InvalidArgumentError(f"override {assignment!r} is not key=value")
    keys = path.split(".")
    node = raw
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise InvalidArgumentError(f"override path {path!r} does not exist")
        node = node[k]
    last = keys[-1]
    if not isinstance(node, dict):
        raise InvalidArgumentError(f"override path {path!r} does not exist")
    if last not in node and keys[-2:-1] != ["params"]:
        raise InvalidArgumentError(f"override key {path!r} does not exist")
    try:
        node[last] = json.loads(value)
    except json.JSONDecodeError:
        node[last] = value


def load_config(path: str, args) -> ExperimentConfig:
    with open(path) as f:
        raw = json.load(f)
    for assignment in args.set or ():
        apply_override(raw, assignment)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.horizon is not None:
        raw["horizon"] = args.horizon
        raw.pop("checkpoints", None)  # stale checkpoints may exceed the new horizon
    return config_from_dict(raw)


def _sanitize(obj):
    """Make a report JSON-safe: non-finite floats become null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def emit(report: dict, args, filename: str | None = None) -> None:
    payload = json.dumps(_sanitize(report), indent=2)
    print(payload)
    out_dir = args.out or os.environ.get("STRATLAB_OUT")
    if out_dir and filename:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, filename), "w") as f:
            f.write(payload + "\n")


def cmd_stackval(args) -> int:
    if (args.game is None) == (args.prior is None):
        raise InvalidArgumentError("stackval needs exactly one of --game / --prior")
    if args.game is not None:
        g = load_game(args.game)
        sol = stackelberg_value(g, args.player)
        emit(
            {
                "game": g.name,
                "player": args.player,
                "value": sol.value,
                "leader_strategy": list(sol.leader_strategy),
                "follower_action": sol.follower_action,
                "follower_action_label": (
                    g.action_labels2 if args.player == 1 else g.action_labels1
                )[sol.follower_action],
                "per_follower_action_values": list(sol.per_follower_action_values),
            },
            args,
            "stackval.json",
        )
    else:
        prior = load_prior(args.prior)
        per_game = []
        for g, w in prior.entries:
            sol = stackelberg_value(g, args.player)
            per_game.append(
                {
                    "game": g.name,
                    "weight": w,
                    "value": sol.value,
                    "leader_strategy": list(sol.leader_strategy),
                    "follower_action": sol.follower_action,
                }
            )
        emit(
            {
                "player": args.player,
                "per_game": per_game,
                "expected_value": stackval_prior(prior, args.player),
            },
            args,
            "stackval.json",
        )
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args)
    report = estimate(cfg, threads=args.threads)
    out_dir = args.out or os.environ.get("STRATLAB_OUT") or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    write_csv(report, csv_path)
    csp = estimate_csps(cfg, summaries=report.summaries)
    summary = {
        "config": config_to_dict(cfg),
        "estimate": report.to_dict(),
        "csp": csp.to_dict(cfg.prior),
        "csv": csv_path,
    }
    emit(summary, args, "summary.json")
    return 0


def report_trials(report) -> None:
    """One stderr line of trial counts, kept out of the JSON report."""
    print(
        f"trials: {report.trials_simulated} simulated, "
        f"{report.trials_reused} reused",
        file=sys.stderr,
    )


def cmd_audit(args) -> int:
    cfg = load_config(args.config, args)
    report = audit_pne(cfg, epsilon=args.epsilon, threads=args.threads)
    report_trials(report)
    emit(report.to_dict(), args, "audit.json")
    return 0 if report.verdict == "pass" else 2


def cmd_claims(args) -> int:
    cfg = load_config(args.config, args)
    report = verify_claims(cfg, p_star=args.p_star, tol=args.tol, threads=args.threads)
    report_trials(report)
    emit(report.to_dict(), args, "claims.json")
    return 2 if report.contradiction else 0


def cmd_reveal(args) -> int:
    prior = load_prior(args.prior)
    report = revelation_analysis(prior, args.player)
    emit(report.to_dict(), args, "reveal.json")
    return 0


def cmd_learn(args) -> int:
    cfg = load_config(args.config, args)
    report = belief_trace(
        cfg, belief_kind=args.belief, tau=args.tau, player=args.player, threads=args.threads
    )
    emit(report.to_dict(), args, "learn.json")
    return 0 if report.success else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stratlab",
        description="Repeated Bayesian-game laboratory: benchmarks, simulations, audits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="experiment config JSON path")
            sp.add_argument("--seed", type=int, default=None, help="override master seed")
            sp.add_argument("--trials", type=int, default=None)
            sp.add_argument("--horizon", type=int, default=None)
            sp.add_argument(
                "--set",
                action="append",
                metavar="KEY=VALUE",
                help="dotted-path config override, e.g. signal_model.p2=0.5",
            )
        sp.add_argument("--threads", type=int, default=1, help="trial worker processes")
        sp.add_argument("--out", default=None, help="output directory (env STRATLAB_OUT)")

    sp = sub.add_parser("stackval", help="optimistic Stackelberg value of a game or prior")
    sp.add_argument("--game", default=None, help="builtin ref or game JSON path")
    sp.add_argument("--prior", default=None, help="builtin ref or prior JSON path")
    sp.add_argument("--player", type=int, choices=(1, 2), required=True)
    common(sp, config=False)
    sp.set_defaults(fn=cmd_stackval)

    sp = sub.add_parser("simulate", help="run trials; write CSV and JSON summary")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("audit", help="meta-game epsilon-PNE audit against the deviation library")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("claims", help="two-game counterexample claims verifier")
    common(sp)
    sp.add_argument("--p-star", dest="p_star", type=float, required=True)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.set_defaults(fn=cmd_claims)

    sp = sub.add_parser("reveal", help="one-round revelation analysis of a prior")
    sp.add_argument("--prior", required=True)
    sp.add_argument("--player", type=int, choices=(1, 2), required=True)
    common(sp, config=False)
    sp.set_defaults(fn=cmd_reveal)

    sp = sub.add_parser("learn", help="belief-trace learning meter")
    common(sp)
    sp.add_argument("--belief", choices=BELIEF_KINDS, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--player", type=int, choices=(1, 2), default=2)
    sp.set_defaults(fn=cmd_learn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidArgumentError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
