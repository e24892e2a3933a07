"""The benchmark's own output checks hold on the current code.

bench/run.py rejects a run whose outputs fail bench/checks.py, and counts
each such output as a failed operation. This test builds each workload's
inputs as bench/run.py does, runs its operation once in process through
bench/child.py's `prepare`, and asks the same check, so that an output the
benchmark would reject fails the suite too. The checks need numpy and scipy.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    """bench/<name>.py as a module (bench/ is no package; its modules import
    calibrate by name, so bench/ is on sys.path while they load)."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def bench():
    return load("run"), load("child"), load("checks")


@pytest.mark.parametrize(
    "workload, seed",
    [("equilibrium_audit", 1), ("counterexample", 1), ("long_horizon", 1),
     ("solver", 1), ("solver", 2), ("solver", 3)],
)
def test_one_benchmark_operation_passes_its_checks(bench, workload, seed):
    run, child, checks = bench
    spec, ref = run.build_spec(workload, seed, False, checks)
    out = child.prepare(workload, spec)(spec["threads"])
    assert checks.CHECKS[workload](spec, ref, out) == []
