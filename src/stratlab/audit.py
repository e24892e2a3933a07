"""Meta-game analysis: approximate pure-Nash audits against a deviation
library, the two-game claims verifier, one-round revelation analysis, and
learning-success belief meters.

The pure-Nash notion audited here is a finite-horizon surrogate of the
asymptotic definition: a pair passes at threshold epsilon when no deviation in
the library improves the deviating player's prior-expected average utility by
more than epsilon with 95% confidence. Deviation runs share the baseline's
random streams (common random numbers), so gains are paired per trial and by
realized game, which makes the scripted counterexamples essentially
noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    BeliefProbe,
    EstimateReport,
    ExperimentConfig,
    TrialSummary,
    Z_95_ONE_SIDED,
    estimate_csps,
    mean_ci,
    run_summaries,
    stratified_mean_ci,
    summarize,
    with_spec,
)
from .errors import AssumptionViolatedError, InvalidArgumentError
from .games import Prior, pure, two_game_family_g1, two_game_family_g2
from .learners import LearnerSpec, canonical_spec
from .solve import perturbed_commitment, stackelberg_value, stackval_prior


# ---------------------------------------------------------------------------
# Deviation library and PNE audit
# ---------------------------------------------------------------------------


def default_library(cfg: ExperimentConfig) -> dict[int, tuple[tuple[str, LearnerSpec], ...]]:
    """{1: player 1's deviations, 2: player 2's}, each a tuple of named specs
    legal for the player's role: every deviation the impossibility arguments
    actually use. These are all constant actions, per-round best reply,
    Stackelberg commitment, signal-forcing mimics of the player's own
    algorithm, and (for player 2) the scripted infer-then-commit follower.
    Left out: the Stackelberg commitment where a game of the prior has none,
    and under bandit feedback the deviations whose class requires full
    information."""
    prior = cfg.prior

    def build(player: int, own_spec: LearnerSpec):
        labels = prior.games[0].action_labels1 if player == 1 else prior.games[0].action_labels2
        devs = [
            (f"constant:{lab}", LearnerSpec("constant_action", {"action": a}))
            for a, lab in enumerate(labels)
        ]
        devs.append(("best_responder", LearnerSpec("best_responder")))
        try:  # a perturbed commitment exists at every delta or at none
            for g in prior.games:
                perturbed_commitment(g, player, 1.0)
            devs.append(("stackelberg_leader", LearnerSpec("stackelberg_leader")))
        except AssumptionViolatedError:
            pass
        for i in range(prior.support_size):
            devs.append(
                (f"mimic:G{i + 1}", LearnerSpec("mimic_deviation", {"base": own_spec, "signal": i}))
            )
        if player == 2:
            devs.append(("infer_then_commit", LearnerSpec("infer_then_commit_follower")))
        if cfg.feedback_mode == "bandit":
            devs = [d for d in devs if not canonical_spec(d[1])[0].requires_full_info]
        return tuple(devs)

    return {1: build(1, cfg.spec1), 2: build(2, cfg.spec2)}


def paired_gain(
    prior: Prior,
    base: list[TrialSummary],
    dev: list[TrialSummary],
    player: int,
) -> tuple[float, float | None]:
    """Prior-stratified mean and 95% CI of per-trial utility differences.

    Trials are paired by index (common random numbers give both runs the same
    realized game per trial). Falls back to the raw paired mean when some
    positive-weight game never realized.
    """
    diffs = [
        (d.avg_u1 - b.avg_u1) if player == 1 else (d.avg_u2 - b.avg_u2)
        for b, d in zip(base, dev)
    ]
    if all(b.realized == d.realized for b, d in zip(base, dev)):
        groups: dict[int, list[float]] = {}
        for b, x in zip(base, diffs):
            groups.setdefault(b.realized, []).append(x)
        gain, ci = stratified_mean_ci(prior, groups)
        if gain is not None:
            return gain, ci
    return mean_ci(diffs)


def _run_with_deviations(
    cfg: ExperimentConfig, deviations: list[tuple[int, LearnerSpec]], threads: int
) -> tuple[list[TrialSummary], list[list[TrialSummary]], int, int]:
    """Baseline summaries, one summary list per (player, spec) deviation, and
    the numbers of trials simulated and reused, from one run_summaries pass."""
    n = cfg.trials
    cfgs = [cfg] + [with_spec(cfg, player, spec) for player, spec in deviations]
    results = run_summaries(cfg, threads, jobs=[(c, k) for c in cfgs for k in range(n)])
    runs = [results[i : i + n] for i in range(0, len(results), n)]
    reused = sum(s.reused for s in results)
    return runs[0], runs[1:], len(results) - reused, reused


@dataclass
class AuditReport:
    epsilon: float
    baseline: EstimateReport
    # rows: {player, name, gain, ci95, lower_bound}
    deviations: list
    max_gain: dict
    verdict: str  # "pass" | "fail"
    failure: tuple[int, str] | None
    failing: list  # every deviation whose gain lower bound exceeds epsilon
    # Telemetry, kept out of to_dict(): trials simulated, and trials copied
    # from an identical one (engine.run_summaries).
    trials_simulated: int
    trials_reused: int

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "failure": None
            if self.failure is None
            else {"player": self.failure[0], "deviation": self.failure[1]},
            "failing": [{"player": p, "deviation": n} for p, n in self.failing],
            "max_gain": self.max_gain,
            "baseline": self.baseline.to_dict(),
            "deviations": self.deviations,
        }


def audit_pne(cfg: ExperimentConfig, epsilon: float = 0.5, threads: int = 1) -> AuditReport:
    """Run the experiment once per (player, deviation) of default_library(cfg)
    and compare gains.

    All runs go through one run_summaries pass, which simulates each distinct
    trial once. Fails when any deviation gain's lower 95% confidence bound
    exceeds epsilon. A pass is evidence at the configured horizon against
    default_library's deviations, not a proof of meta-game equilibrium.
    """
    if not 0 < epsilon < math.inf:
        raise InvalidArgumentError(f"epsilon must be finite and positive, got {epsilon!r}")
    lib = default_library(cfg)
    named = [(player, name, spec) for player in (1, 2) for name, spec in lib[player]]
    base_summaries, dev_runs, simulated, reused = _run_with_deviations(
        cfg, [(player, spec) for player, _, spec in named], threads
    )
    baseline = summarize(cfg, base_summaries)
    rows = []
    failing = []
    worst = None  # (lower_bound, player, name); ties resolve to the later entry
    max_gain = {1: -math.inf, 2: -math.inf}
    for (player, name, _), dev_summaries in zip(named, dev_runs):
        gain, ci = paired_gain(cfg.prior, base_summaries, dev_summaries, player)
        lower = gain - ci if ci is not None else gain
        rows.append(
            {
                "player": player,
                "name": name,
                "gain": gain,
                "ci95": ci,
                "lower_bound": lower,
            }
        )
        max_gain[player] = max(max_gain[player], gain)
        if lower > epsilon:
            failing.append((player, name))
            if worst is None or lower >= worst[0]:
                worst = (lower, player, name)
    verdict = "pass" if worst is None else "fail"
    return AuditReport(
        epsilon=epsilon,
        baseline=baseline,
        deviations=rows,
        max_gain={"player1": max_gain[1], "player2": max_gain[2]},
        verdict=verdict,
        failure=None if worst is None else (worst[1], worst[2]),
        failing=failing,
        trials_simulated=simulated,
        trials_reused=reused,
    )


# ---------------------------------------------------------------------------
# Claims verifier for the two-game counterexample family
# ---------------------------------------------------------------------------


@dataclass
class ClaimsReport:
    gamma: float
    p_star: float
    tol: float
    benchmark_value: float
    u2: float
    u2_ci: float | None
    benchmark_achieved: bool
    csp1_bd: float | None
    csp1_bd_se: float | None
    csp1_ad: float | None
    csp1_ad_se: float | None
    csp2_bd: float | None
    csp2_bd_se: float | None
    check_csp1_bd: bool
    check_csp1_ad: bool
    check_csp2_bd: bool
    mimic_gain: float
    mimic_gain_ci: float | None
    contradiction: bool
    # Telemetry, kept out of to_dict() as in AuditReport.
    trials_simulated: int
    trials_reused: int

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "p_star": self.p_star,
            "tol": self.tol,
            "benchmark_value": self.benchmark_value,
            "u2": self.u2,
            "u2_ci95": self.u2_ci,
            "benchmark_achieved": self.benchmark_achieved,
            "csp1_BD": {"mass": self.csp1_bd, "se": self.csp1_bd_se, "bound_ok": self.check_csp1_bd},
            "csp1_AD": {"mass": self.csp1_ad, "se": self.csp1_ad_se, "bound_ok": self.check_csp1_ad},
            "csp2_BD": {"mass": self.csp2_bd, "se": self.csp2_bd_se, "bound_ok": self.check_csp2_bd},
            "mimic_gain": {"gain": self.mimic_gain, "ci95": self.mimic_gain_ci},
            "contradiction": self.contradiction,
        }


def verify_claims(
    cfg: ExperimentConfig, p_star: float, tol: float = 0.05, threads: int = 1
) -> ClaimsReport:
    """Check the counterexample mechanics on the builtin two-game family.

    Estimates CSP_1(B,D), CSP_1(A,D), CSP_2(B,D) and the player-2 benchmark,
    evaluates the three inequalities (thresholds gamma/8, gamma/8, 1/2) with
    one-sided 95% bounds, estimates the mimic-first-game deviation gain for
    player 1, and flags the contradiction (benchmark achieved together with a
    strictly profitable deviation means the pair cannot be an equilibrium).
    """
    if not 0.0 <= p_star < 1.0:
        raise InvalidArgumentError("p_star must lie in [0,1)")
    if not 0 <= tol < math.inf:
        raise InvalidArgumentError(f"tol must be finite and non-negative, got {tol!r}")
    gamma = (1.0 - p_star) / (1.0 + p_star)
    expect = (two_game_family_g1(gamma), two_game_family_g2(gamma))
    prior = cfg.prior
    if prior.support_size != 2:
        raise InvalidArgumentError("claims verifier requires the two-game family prior")
    for g, e, w in zip(prior.games, expect, prior.weights):
        if abs(w - 0.5) > 1e-9:
            raise InvalidArgumentError("claims verifier requires uniform weights")
        if g.u1 != e.u1 or g.u2 != e.u2:
            raise InvalidArgumentError(
                f"prior games do not match the builtin family at gamma={gamma:g}"
            )
    if cfg.signal_model.p2 > p_star + 1e-12:
        raise InvalidArgumentError("claims verifier requires p2 <= p_star")

    mimic_spec = LearnerSpec("mimic_deviation", {"base": cfg.spec1, "signal": 0})
    base_summaries, (dev_summaries,), simulated, reused = _run_with_deviations(
        cfg, [(1, mimic_spec)], threads
    )
    est = summarize(cfg, base_summaries)
    csps = estimate_csps(cfg, summaries=base_summaries)

    def mixture_cell(realized, a, b):
        """Mass and standard error of CSP_realized(a, b) under the signal mixture."""
        mix = csps.by_game[realized]
        if mix is None:
            return None, None
        return mix.mass[a][b], csps.game_se[realized][a][b]

    # Action indices in the builtin family: B = row 1, D = column 1, A = row 0.
    csp1_bd, se1_bd = mixture_cell(0, 1, 1)
    csp1_ad, se1_ad = mixture_cell(0, 0, 1)
    csp2_bd, se2_bd = mixture_cell(1, 1, 1)

    z = Z_95_ONE_SIDED

    def upper_ok(mass, se, bound):
        return mass is not None and mass + z * se <= bound + tol

    def lower_ok(mass, se, bound):
        return mass is not None and mass - z * se >= bound - tol

    benchmark = stackval_prior(prior, 2)
    u2 = est.prior_weighted_u2 if est.prior_weighted_u2 is not None else est.mean_u2
    u2_ci = est.prior_weighted_ci_u2 if est.prior_weighted_u2 is not None else est.ci_u2
    achieved = u2 >= benchmark - tol

    mimic_gain, mimic_ci = paired_gain(prior, base_summaries, dev_summaries, 1)

    gain_positive = mimic_gain - (mimic_ci or 0.0) > 0.0
    return ClaimsReport(
        gamma=gamma,
        p_star=p_star,
        tol=tol,
        benchmark_value=benchmark,
        u2=u2,
        u2_ci=u2_ci,
        benchmark_achieved=achieved,
        csp1_bd=csp1_bd,
        csp1_bd_se=se1_bd,
        csp1_ad=csp1_ad,
        csp1_ad_se=se1_ad,
        csp2_bd=csp2_bd,
        csp2_bd_se=se2_bd,
        check_csp1_bd=upper_ok(csp1_bd, se1_bd, gamma / 8.0),
        check_csp1_ad=upper_ok(csp1_ad, se1_ad, gamma / 8.0),
        check_csp2_bd=lower_ok(csp2_bd, se2_bd, 0.5),
        mimic_gain=mimic_gain,
        mimic_gain_ci=mimic_ci,
        contradiction=achieved and gain_positive,
        trials_simulated=simulated,
        trials_reused=reused,
    )


# ---------------------------------------------------------------------------
# One-round revelation analysis
# ---------------------------------------------------------------------------


@dataclass
class RevelationReport:
    player: int
    # per own action: {action, label, ranges: [[lo, hi] per game], revealing}
    actions: list
    any_revealing: bool

    def to_dict(self) -> dict:
        return {
            "player": self.player,
            "actions": self.actions,
            "any_revealing": self.any_revealing,
        }


def revelation_analysis(prior: Prior, player: int) -> RevelationReport:
    """Flag pure actions whose per-game own-utility ranges are pairwise
    disjoint across the support: playing one identifies the realized game from
    a single round of own-utility feedback."""
    if prior.support_size < 2:
        raise InvalidArgumentError("revelation analysis needs support of at least 2 games")
    g0 = prior.games[0]
    n_own = g0.n1 if player == 1 else g0.n2
    labels = g0.action_labels1 if player == 1 else g0.action_labels2
    own = [g.own_payoffs(player) for g in prior.games]
    actions = []
    any_rev = False
    for a in range(n_own):
        # Attainable own utility of pure a in each game, over opponent replies.
        ranges = [(min(rows[a]), max(rows[a])) for rows in own]
        disjoint = True
        for i in range(len(ranges)):
            for j in range(i + 1, len(ranges)):
                lo_i, hi_i = ranges[i]
                lo_j, hi_j = ranges[j]
                if not (hi_i < lo_j or hi_j < lo_i):
                    disjoint = False
        actions.append(
            {
                "action": a,
                "label": labels[a],
                "ranges": [[lo, hi] for lo, hi in ranges],
                "revealing": disjoint,
            }
        )
        any_rev = any_rev or disjoint
    return RevelationReport(player, actions, any_rev)


# ---------------------------------------------------------------------------
# Belief meters
# ---------------------------------------------------------------------------

BELIEF_KINDS = ("nearest_best_response", "utility_likelihood", "last_side_signal")


@dataclass
class BeliefTraceReport:
    kind: str
    player: int
    tau: float
    checkpoints: tuple[int, ...]
    errors: tuple[float, ...]  # Pr[belief != realized game] per checkpoint
    final_error: float
    success: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "player": self.player,
            "tau": self.tau,
            "checkpoints": list(self.checkpoints),
            "errors": list(self.errors),
            "final_error": self.final_error,
            "success": self.success,
        }


def belief_trace(
    cfg: ExperimentConfig,
    belief_kind: str,
    tau: float,
    player: int = 2,
    threads: int = 1,
) -> BeliefTraceReport:
    """Estimate the error of a history-based belief across trials.

    Checkpoint t reports the belief formed from history strictly before round
    t (so checkpoint 1 is the prior mode); the final error uses the full
    history. nearest_best_response classifies the player's running average
    strategy against the opponent-led Stackelberg replies (support 2 only);
    utility_likelihood keeps the games whose matrices are consistent with all
    observed (strategy, utility) pairs within 1e-6; last_side_signal reads the
    traced player's external signal channel.
    """
    if belief_kind not in BELIEF_KINDS:
        raise InvalidArgumentError(f"unknown belief kind {belief_kind!r}")
    if not 0 <= tau <= 1:
        raise InvalidArgumentError(f"tau must be in [0, 1], got {tau!r}")
    if player not in (1, 2):
        raise InvalidArgumentError("player must be 1 or 2")
    targets = None
    if belief_kind == "nearest_best_response":
        if cfg.prior.support_size != 2:
            raise InvalidArgumentError("nearest_best_response requires a 2-game prior")
        n_own = cfg.prior.n1 if player == 1 else cfg.prior.n2
        targets = tuple(
            pure(n_own, stackelberg_value(g, 3 - player).follower_action) for g in cfg.prior.games
        )
    if belief_kind == "last_side_signal":
        spec = cfg.spec1 if player == 1 else cfg.spec2
        if not canonical_spec(spec)[0].needs_side_signal:
            raise InvalidArgumentError(
                "last_side_signal belief requires the traced player to consume side signals"
            )
    probe = BeliefProbe(kind=belief_kind, player=player, targets=targets)
    summaries = run_summaries(cfg, threads, probe)
    n = len(summaries)
    m = len(cfg.checkpoints)
    errors = tuple(
        sum(s.belief_errors[i] for s in summaries) / n for i in range(m)
    )
    final = sum(s.belief_errors[m] for s in summaries) / n
    return BeliefTraceReport(
        kind=belief_kind,
        player=player,
        tau=tau,
        checkpoints=cfg.checkpoints,
        errors=errors,
        final_error=final,
        success=final <= tau,
    )
