"""Spans and call counters recorded from the benchmark's own code.

`Tracer.install` replaces public stratlab functions at the module attributes
their callers look up (for example `stratlab.audit.run_summaries`), so the
program itself is unchanged. Coarse calls become spans with a name, start,
end, parent and self time; per-round calls (learner `act`/`observe`) and
other fine-grained calls are accumulated as a count and a total time. A
span's self time is its duration minus the time of the spans and counted
calls made directly inside it.
"""

from __future__ import annotations

import functools
import math
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # name -> [count, total seconds]; `samples` keeps per-call durations
        # for lp.lp_solve, whose percentiles are reported.
        self.calls: dict[str, list] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[list] = []  # open frames: [covered seconds, span id or None]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def timed(self, fn, name: str, span: bool = False, attrs=None, keep: bool = False):
        """Wrap fn so each call is recorded as a span or counted under name."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(self.spans)
                self.spans.append({
                    "id": span_id, "name": name, "parent": self._parent_span(),
                    "attrs": attrs(*args, **kwargs) if attrs else {},
                })
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if span:
                    self.spans[span_id].update(start=t0, end=t1, self=dur - frame[0])
                else:
                    slot = self.calls.get(name)
                    if slot is None:
                        slot = self.calls[name] = [0, 0.0]
                    slot[0] += 1
                    slot[1] += dur
                    if keep:
                        self.samples.setdefault(name, []).append(dur)

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, **kw))

    def install(self) -> None:
        """Wrap the public functions that each stratlab layer calls."""
        import stratlab.audit as audit
        import stratlab.engine as engine
        import stratlab.learners as learners
        import stratlab.solve as solve

        def cfg_attrs(cfg, threads=1, *rest, **kw):
            return {"trial_rounds": cfg.trials * cfg.horizon, "threads": threads}

        def game_attrs(g, *rest, **kw):
            return {"n": g.n1}

        for owner, attr, name in (
            (audit, "audit_pne", "audit.audit_pne"),
            (audit, "verify_claims", "audit.verify_claims"),
            (engine, "estimate", "engine.estimate"),
            (audit, "summarize", "engine.summarize"),
            (engine, "summarize", "engine.summarize"),
            (audit, "estimate_csps", "engine.estimate_csps"),
        ):
            self.patch(owner, attr, name, span=True)
        self.patch(audit, "run_summaries", "engine.run_summaries", span=True, attrs=cfg_attrs)
        self.patch(engine, "run_summaries", "engine.run_summaries", span=True, attrs=cfg_attrs)
        self.patch(solve, "stackelberg_value", "solve.stackelberg_value", span=True,
                   attrs=game_attrs)
        self.patch(solve, "perturbed_commitment", "solve.perturbed_commitment", span=True,
                   attrs=game_attrs)
        self.patch(audit, "paired_gain", "audit.paired_gain")
        self.patch(engine, "regrets_from_mass", "learners.regrets_from_mass")
        self.patch(learners, "stackelberg_value", "solve.in_simulation")
        self.patch(learners, "perturbed_commitment", "solve.in_simulation")
        self.patch(solve, "lp_solve", "lp.lp_solve", keep=True)

        init = self.timed(engine.learner_init, "learners.init")

        def learner_init(*args, **kwargs):
            learner = init(*args, **kwargs)
            learner.act = self.timed(learner.act, "learners.act")
            learner.observe = self.timed(learner.observe, "learners.observe")
            return learner

        self._patches.append((engine, "learner_init", engine.learner_init))
        engine.learner_init = learner_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def count(self, name: str) -> int:
        return self.calls.get(name, (0, 0.0))[0]

    def mean_us(self, name: str) -> float | None:
        n, total = self.calls.get(name, (0, 0.0))
        return total / n * 1e6 if n else None


def _p(values: list[float], q: float) -> float:
    """q-th percentile (0-100) by the nearest-rank rule."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def layer_metrics(tr: Tracer) -> dict[str, float | None]:
    """Per-layer figures of one traced phase; None where the phase never
    entered the layer."""
    m: dict[str, float | None] = {}
    runs = tr.named("engine.run_summaries")
    rounds = sum(s["attrs"]["trial_rounds"] for s in runs)
    m["engine.run_summaries.calls"] = len(runs)
    m["engine.trial_rounds"] = rounds
    m["engine.run_summaries.ms_p50"] = (
        statistics.median(s["end"] - s["start"] for s in runs) * 1e3 if runs else None
    )
    m["engine.loop_self.us_per_trial_round"] = (
        sum(s["self"] for s in runs) / rounds * 1e6 if rounds else None
    )
    for name in ("engine.summarize", "engine.estimate_csps"):
        spans = tr.named(name)
        m[f"{name}.ms"] = (
            statistics.mean(s["end"] - s["start"] for s in spans) * 1e3 if spans else None
        )
    m["learners.act.us"] = tr.mean_us("learners.act")
    m["learners.observe.us"] = tr.mean_us("learners.observe")
    m["learners.act.calls"] = tr.count("learners.act")
    m["learners.regrets_from_mass.us"] = tr.mean_us("learners.regrets_from_mass")
    audits = tr.named("audit.audit_pne") + tr.named("audit.verify_claims")
    audit_ids = {s["id"] for s in audits}
    m["audit.runs"] = sum(1 for s in runs if s["parent"] in audit_ids)
    m["audit.self.ms"] = sum(s["self"] for s in audits) * 1e3 if audits else None
    m["audit.paired_gain.us"] = tr.mean_us("audit.paired_gain")
    solve_ids = {s["id"] for s in tr.spans if s["name"].startswith("solve.")}
    for name in ("solve.stackelberg_value", "solve.perturbed_commitment"):
        for n in (2, 4, 8):
            # Calls made by other solve functions are part of their caller.
            durs = [s["end"] - s["start"] for s in tr.named(name)
                    if s["attrs"]["n"] == n and s["parent"] not in solve_ids]
            m[f"{name}.us.n{n}"] = statistics.median(durs) * 1e6 if durs else None
    m["solve.calls"] = tr.count("solve.in_simulation")
    lp = tr.samples.get("lp.lp_solve", [])
    m["lp.lp_solve.calls"] = len(lp)
    m["lp.lp_solve.us_p50"] = statistics.median(lp) * 1e6 if lp else None
    m["lp.lp_solve.us_p99"] = _p(lp, 99) * 1e6 if lp else None
    return m


def span_table(tr: Tracer) -> list[dict]:
    """Spans as plain rows, times relative to the first span's start."""
    if not tr.spans:
        return []
    t0 = min(s["start"] for s in tr.spans)
    return [
        {"id": s["id"], "name": s["name"], "parent": s["parent"], "attrs": s["attrs"],
         "start_ms": (s["start"] - t0) * 1e3, "end_ms": (s["end"] - t0) * 1e3,
         "self_ms": s["self"] * 1e3}
        for s in tr.spans
    ]
