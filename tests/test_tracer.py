"""bench/tracer.py still finds every stratlab name it patches.

The benchmark's traced runs (bench/run.py --trace 1) replace stratlab
functions at the module attributes their callers look up, so renaming one
of them breaks those runs; this test makes it fail the suite too.
"""

import json
import sys
from pathlib import Path

from stratlab import audit, solve
from stratlab.engine import ExperimentConfig
from stratlab.games import two_game_family_g1

ROOT = Path(__file__).resolve().parent.parent


def test_installed_tracer_sees_every_layer_and_uninstall_restores_it():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import solve_cost
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    tracer = solve_cost.load_tracer()
    raw = json.loads((ROOT / "configs" / "reveal_follow.json").read_text())
    cfg = ExperimentConfig.from_dict({**raw, "horizon": 50, "trials": 2})
    tr = tracer.Tracer()
    tr.install()
    patched = list(tr._patches)  # (owner, attribute, original object)
    try:
        audit.audit_pne(cfg)
        solve.perturbed_commitment(two_game_family_g1(1.0), 1, 0.1)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr)
    for name in ("lp.lp_solve.calls", "learners.act.calls", "engine.run_summaries.calls"):
        assert metrics[name] > 0, name
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
