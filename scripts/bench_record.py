#!/usr/bin/env python3
"""Benchmark record: summarize a checkout's `bench/run.py` results as
`BENCH_<n>.json` at the root of this repository.

Reads every `bench/out/result-<workload>-seed<n>.json` of the checkout (and
any `trace-<workload>-seed<n>.json` beside them) and writes the checkout's
git SHA (and whether src/ differs from it, with a digest of src/), the host (CPU model and vCPU count from /proc/cpuinfo), the Python,
numpy and scipy versions, the seeds, and per workload the median, quartiles
and per-seed values of the four end-to-end metrics, with the operations
attempted and failed. Traced runs add their per-layer metrics by seed.
`--before` names the parent's record, which the new one is compared with.
The runs are taken to be of BENCHMARK.json's `run_seconds`, on one host.

Example (results of seeds 1-10 of each workload already in bench/out):
    python3 scripts/bench_record.py --number 12 --before BENCH_11.json
    python3 scripts/bench_record.py --number 11 --checkout ../parent   # another checkout's results
"""

import argparse
import hashlib
import json
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "setup_s", "throughput_per_s", "peak_rss_mb")
RESULT = re.compile(r"(result|trace)-(\w+)-seed(\d+)\.json")


def host() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text()
    models = re.findall(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    return {
        "cpu_model": models[0] if models else platform.processor(),
        "vcpus": len(re.findall(r"^processor\s*:", cpuinfo, re.M)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def source_digest(checkout: Path) -> str:
    """sha256 over the paths and contents of the checkout's src/ files, so a
    record names the measured program even before it is committed."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and interquartile range."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(out_dir: Path) -> dict:
    runs: dict = {}  # workload -> kind -> seed -> file contents
    for path in sorted(out_dir.glob("*-seed*.json")):
        m = RESULT.fullmatch(path.name)
        if m:
            kind, workload, seed = m.group(1), m.group(2), int(m.group(3))
            runs.setdefault(workload, {}).setdefault(kind, {})[seed] = json.loads(path.read_text())
    workloads = {}
    for workload, kinds in sorted(runs.items()):
        results = dict(sorted(kinds.get("result", {}).items()))
        entry = {
            "seeds": list(results),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "all_correct": all(r["result"]["correct"] for r in results.values()),
        }
        if results:
            for name in END_TO_END:
                by_seed = {s: r["result"]["metrics"][name]["value"] for s, r in results.items()}
                entry[name] = {**spread(list(by_seed.values())), "by_seed": by_seed}
        traces = dict(sorted(kinds.get("trace", {}).items()))
        if traces:
            entry["trace_seeds"] = list(traces)
            names = [m["name"] for m in next(iter(traces.values()))["per_layer"]]
            entry["per_layer"] = {
                name: {s: next(m["value"] for m in t["per_layer"] if m["name"] == name)
                       for s, t in traces.items()}
                for name in names
            }
        workloads[workload] = entry
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", type=int, required=True, help="n in the name BENCH_<n>.json")
    ap.add_argument("--before", default=None, help="file name of the parent's record")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose bench/out is read and whose HEAD is recorded")
    args = ap.parse_args(argv)
    out_dir = args.checkout / "bench" / "out"
    workloads = summarize(out_dir)
    if not workloads:
        print(f"error: no result files under {out_dir}", file=sys.stderr)
        return 1
    git = ["git", "-C", str(args.checkout)]
    sha = subprocess.run([*git, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run([*git, "diff", "--quiet", "HEAD", "--", "src"]).returncode != 0
    record = {
        "record": f"BENCH_{args.number}.json",
        "git_sha": sha,
        "src_uncommitted_changes": dirty,
        "src_sha256": source_digest(args.checkout),
        "host": host(),
        "command": "python3 bench/run.py --workload W --seed S --seconds "
                   f"{json.loads((ROOT / 'BENCHMARK.json').read_text())['run_seconds']} --trace 0",
        "seeds": sorted({s for w in workloads.values() for s in w["seeds"]}),
        "before": args.before,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}: " + ", ".join(f"{w} ({len(e['seeds'])} seeds)"
                                             for w, e in workloads.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
