#!/usr/bin/env python3
"""Golden hashes: one `name sha256` line per report of the shipped configs.

Each hash is taken over json.dumps(report.to_dict(), sort_keys=True), so two
checkouts print the same line exactly when that report is bit-identical. The
runs are reduced to horizon <= 2000 and trials <= 32. Covered: estimate and
estimate_csps on every config in configs/; audit_pne and verify_claims on
leader_vs_learner_audit and reveal_follow; belief_trace for every belief kind
that applies to the example41_* configs.

Example:
    python3 scripts/golden.py --threads 2
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratlab.audit import audit_pne, belief_trace, verify_claims  # noqa: E402
from stratlab.cli import load_config  # noqa: E402
from stratlab.engine import estimate, estimate_csps  # noqa: E402

HORIZON = 2000
TRIALS = 32
AUDITED = ("leader_vs_learner_audit", "reveal_follow")
BELIEFS = (
    ("example41_external", "nearest_best_response"),
    ("example41_external", "utility_likelihood"),
    ("example41_external", "last_side_signal"),
    ("example41_learn", "nearest_best_response"),
    ("example41_learn", "utility_likelihood"),
)


def reduced(name: str):
    """The shipped config, loaded as the CLI does with --trials and --horizon."""
    path = ROOT / "configs" / f"{name}.json"
    raw = json.loads(path.read_text())
    sizes = argparse.Namespace(
        set=None,
        seed=None,
        trials=min(raw["trials"], TRIALS),
        horizon=min(raw["horizon"], HORIZON),
    )
    return load_config(str(path), sizes)


def reports(threads: int):
    """(name, to_dict()) of every covered report, in a fixed order."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = reduced(path.stem)
        yield f"estimate/{path.stem}", estimate(cfg, threads).to_dict()
        yield f"estimate_csps/{path.stem}", estimate_csps(cfg, threads).to_dict(cfg.prior)
    for name in AUDITED:
        cfg = reduced(name)
        yield f"audit_pne/{name}", audit_pne(cfg, threads=threads).to_dict()
        yield f"verify_claims/{name}", verify_claims(cfg, p_star=0.0, threads=threads).to_dict()
    for name, kind in BELIEFS:
        cfg = reduced(name)
        yield f"belief_trace/{name}/{kind}", belief_trace(cfg, kind, 0.05, threads=threads).to_dict()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, default=1, help="trial worker processes")
    args = ap.parse_args()
    for name, payload in reports(args.threads):
        text = json.dumps(payload, sort_keys=True)
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
