"""Trial simulation and Monte-Carlo estimation.

Each trial draws (game, signals) from its own deterministic streams, runs the
two learners for T rounds, and folds the trajectory into running aggregates
(cumulative joint action mass, utilities, checkpoint snapshots), so memory
stays flat at any horizon. Trials are independent and may run across a worker
pool; aggregation is keyed by trial index, so worker count never changes any
reported number.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
from dataclasses import dataclass, field, replace

from .errors import InvalidArgumentError
from .games import (
    CSP,
    FeedbackRecord,
    Prior,
    SignalModel,
    mix_csps,
    prior_draw,
    pure,
    sample_index,
    sample_signal,
    signal_weights,
)
from .learners import LearnerSpec, canonical_spec, learner_init, regrets_from_mass
from .rng import (
    ENV_STREAM,
    LEARNER1_STREAM,
    LEARNER2_STREAM,
    REALIZE1_STREAM,
    REALIZE2_STREAM,
    SIDE1_STREAM,
    SIDE2_STREAM,
    stream,
)

CSV_HEADER = (
    "trial,realized_game,s1,s2,t,avg_u1,avg_u2,"
    "ext_regret1,ext_regret2,swap_regret1,swap_regret2"
)

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
Z_95_ONE_SIDED = 1.6448536269514722


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Powers of two up to the horizon, plus the horizon itself."""
    cps = []
    c = 1
    while c < horizon:
        cps.append(c)
        c *= 2
    cps.append(horizon)
    return tuple(cps)


@dataclass(frozen=True)
class ExperimentConfig:
    prior: Prior
    signal_model: SignalModel
    spec1: LearnerSpec
    spec2: LearnerSpec
    horizon: int
    trials: int = 32
    feedback_mode: str = "full"  # "full" | "bandit"
    pure_realization: bool = False
    master_seed: int = 0
    checkpoints: tuple[int, ...] = ()
    # Convergence diagnostic: fraction of the trailing `tail_window` rounds in
    # which a player puts >= tail_threshold mass on each action.
    tail_window: int = 10_000
    tail_threshold: float = 0.9

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidArgumentError("horizon must be >= 1")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if self.tail_window < 1:
            raise InvalidArgumentError("tail_window must be >= 1")
        if self.feedback_mode not in ("full", "bandit"):
            raise InvalidArgumentError(f"bad feedback_mode {self.feedback_mode!r}")
        if not self.checkpoints:
            object.__setattr__(self, "checkpoints", default_checkpoints(self.horizon))
        else:
            cps = tuple(sorted(set(int(c) for c in self.checkpoints)))
            if cps[0] < 1 or cps[-1] > self.horizon:
                raise InvalidArgumentError("checkpoints must lie in [1, horizon]")
            object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class BeliefProbe:
    """Declarative belief tracker folded inside the trial loop (see audit)."""

    kind: str  # nearest_best_response | utility_likelihood | last_side_signal
    player: int
    targets: tuple[tuple[float, ...], ...] | None = None
    tol: float = 1e-6


@dataclass
class TrialSummary:
    trial_index: int
    realized: int
    s1: int
    s2: int
    avg_u1: float
    avg_u2: float
    csp_mass: tuple[tuple[float, ...], ...]
    ext_regret1: float
    ext_regret2: float
    swap_regret1: float
    swap_regret2: float
    # One row per configured checkpoint:
    # (t, avg_u1, avg_u2, ext1, ext2, swap1, swap2)
    checkpoint_rows: tuple[tuple[float, ...], ...]
    tail_counts1: tuple[int, ...]
    tail_counts2: tuple[int, ...]
    tail_rounds: int
    # 0/1 belief errors per checkpoint plus final, when a probe was attached.
    belief_errors: tuple[int, ...] | None = None
    # Telemetry: True on a copy of another job's simulation (run_summaries).
    reused: bool = field(default=False, compare=False, repr=False)


def environment_draw(cfg: ExperimentConfig, trial_index: int) -> tuple[int, int, int]:
    """The (realized game, signal 1, signal 2) draw of a trial."""
    env = stream(cfg.master_seed, trial_index, ENV_STREAM)
    realized = prior_draw(cfg.prior, env)
    s1 = sample_signal(cfg.prior, realized, cfg.signal_model.p1, env)
    s2 = sample_signal(cfg.prior, realized, cfg.signal_model.p2, env)
    return realized, s1, s2


class _BeliefFold:
    """Per-trial belief evaluation at checkpoint rounds (history before t)."""

    def __init__(self, probe: BeliefProbe, cfg: ExperimentConfig, realized: int):
        self.probe = probe
        self.prior = cfg.prior
        self.realized = realized
        self.mode = cfg.prior.mode()
        n = len(cfg.prior.entries)
        self.consistent = [True] * n
        own_n = cfg.prior.n1 if probe.player == 1 else cfg.prior.n2
        self.cum_own = [0.0] * own_n
        self.rounds_seen = 0
        self.last_side = None
        if probe.kind == "utility_likelihood":
            # own-payoff rows per candidate game: rows[k][own][opp]
            self.rows = [g.own_payoffs(probe.player) for g in cfg.prior.games]

    def current_belief(self) -> int:
        kind = self.probe.kind
        if kind == "last_side_signal":
            return self.mode if self.last_side is None else self.last_side
        if kind == "nearest_best_response":
            if self.rounds_seen == 0:
                return self.mode
            inv = 1.0 / self.rounds_seen
            avg = [v * inv for v in self.cum_own]
            dists = []
            for target in self.probe.targets:
                dists.append(sum(abs(a - b) for a, b in zip(avg, target)))
            best = min(dists)
            winners = [i for i, d in enumerate(dists) if d <= best + 1e-12]
            return winners[0] if len(winners) == 1 else self.mode
        # utility_likelihood: highest-prior-weight consistent game.
        best_i, best_w = None, -1.0
        for i, (_, w) in enumerate(self.prior.entries):
            if self.consistent[i] and w > best_w + 1e-12:
                best_i, best_w = i, w
        return self.mode if best_i is None else best_i

    def error(self) -> int:
        return 0 if self.current_belief() == self.realized else 1

    def fold_round(self, own_strategy, own_utility):
        self.rounds_seen += 1
        kind = self.probe.kind
        if kind == "nearest_best_response":
            for i, v in enumerate(own_strategy):
                if v:
                    self.cum_own[i] += v
        elif kind == "utility_likelihood":
            tol = self.probe.tol
            for k, rows in enumerate(self.rows):
                if not self.consistent[k]:
                    continue
                # Attainable own utility given this strategy: sweep the
                # opponent's pure replies o, dotting rows[own][o] with the
                # played own mixture.
                lo, hi = math.inf, -math.inf
                for o in range(len(rows[0])):
                    v = 0.0
                    for a, wa in enumerate(own_strategy):
                        if wa:
                            v += rows[a][o] * wa
                    if v < lo:
                        lo = v
                    if v > hi:
                        hi = v
                if not (lo - tol <= own_utility <= hi + tol):
                    self.consistent[k] = False


def _simulate(
    cfg: ExperimentConfig, trial_index: int, probe: BeliefProbe | None = None
) -> TrialSummary:
    prior = cfg.prior
    realized, s1, s2 = environment_draw(cfg, trial_index)
    g = prior.games[realized]
    u1m, u2m = g.u1, g.u2
    n1, n2 = g.n1, g.n2
    seed = cfg.master_seed

    l1 = learner_init(cfg.spec1, 1, prior, s1, stream(seed, trial_index, LEARNER1_STREAM))
    l2 = learner_init(cfg.spec2, 2, prior, s2, stream(seed, trial_index, LEARNER2_STREAM))
    side1 = stream(seed, trial_index, SIDE1_STREAM) if l1.needs_side_signal else None
    side2 = stream(seed, trial_index, SIDE2_STREAM) if l2.needs_side_signal else None
    if cfg.pure_realization:
        real1 = stream(seed, trial_index, REALIZE1_STREAM)
        real2 = stream(seed, trial_index, REALIZE2_STREAM)
        onehots1 = [pure(n1, a) for a in range(n1)]
        onehots2 = [pure(n2, b) for b in range(n2)]

    full_info = cfg.feedback_mode == "full"
    horizon = cfg.horizon
    mass = [[0.0] * n2 for _ in range(n1)]
    cum_u1 = cum_u2 = 0.0
    cps = cfg.checkpoints
    cp_pos = 0
    cp_rows = []
    tail_start = horizon - min(cfg.tail_window, horizon)
    thresh = cfg.tail_threshold
    tail1 = [0] * n1
    tail2 = [0] * n2
    fold = _BeliefFold(probe, cfg, realized) if probe is not None else None
    belief_errors = [] if probe is not None else None

    for t in range(1, horizon + 1):
        if side1 is not None:
            acc = l1.side_signal_accuracy(t)
            q = realized if side1.random() < acc else prior_draw(prior, side1)
            l1.receive_side_signal(q)
            if fold is not None and probe.player == 1:
                fold.last_side = q
        if side2 is not None:
            acc = l2.side_signal_accuracy(t)
            q = realized if side2.random() < acc else prior_draw(prior, side2)
            l2.receive_side_signal(q)
            if fold is not None and probe.player == 2:
                fold.last_side = q
        if fold is not None and cp_pos < len(cps) and t == cps[cp_pos]:
            belief_errors.append(fold.error())

        x = l1.act()
        y = l2.act()
        if cfg.pure_realization:
            x = onehots1[sample_index(x, real1)]
            y = onehots2[sample_index(y, real2)]

        uu1 = uu2 = 0.0
        for a, xa in enumerate(x):
            if xa:
                row1 = u1m[a]
                row2 = u2m[a]
                mrow = mass[a]
                for b, yb in enumerate(y):
                    if yb:
                        w = xa * yb
                        mrow[b] += w
                        uu1 += row1[b] * w
                        uu2 += row2[b] * w
        cum_u1 += uu1
        cum_u2 += uu2

        if t > tail_start:
            for a, xa in enumerate(x):
                if xa >= thresh:
                    tail1[a] += 1
                    break
            for b, yb in enumerate(y):
                if yb >= thresh:
                    tail2[b] += 1
                    break
        if fold is not None:
            fold.fold_round(x if probe.player == 1 else y, uu1 if probe.player == 1 else uu2)

        l1.observe(FeedbackRecord(x, y if full_info else None, uu1))
        l2.observe(FeedbackRecord(y, x if full_info else None, uu2))

        if cp_pos < len(cps) and t == cps[cp_pos]:
            cp_pos += 1
            r1 = regrets_from_mass(mass, g, 1)
            r2 = regrets_from_mass(mass, g, 2)
            cp_rows.append(
                (
                    float(t),
                    cum_u1 / t,
                    cum_u2 / t,
                    r1.external_regret,
                    r2.external_regret,
                    r1.swap_regret,
                    r2.swap_regret,
                )
            )

    if fold is not None:
        belief_errors.append(fold.error())

    inv = 1.0 / horizon
    # Checkpoints need not include the horizon, so final regrets are computed
    # from the full-run mass rather than read off the last checkpoint row.
    fr1 = regrets_from_mass(mass, g, 1)
    fr2 = regrets_from_mass(mass, g, 2)
    return TrialSummary(
        trial_index=trial_index,
        realized=realized,
        s1=s1,
        s2=s2,
        avg_u1=cum_u1 * inv,
        avg_u2=cum_u2 * inv,
        csp_mass=tuple(tuple(v * inv for v in row) for row in mass),
        ext_regret1=fr1.external_regret,
        ext_regret2=fr2.external_regret,
        swap_regret1=fr1.swap_regret,
        swap_regret2=fr2.swap_regret,
        checkpoint_rows=tuple(cp_rows),
        tail_counts1=tuple(tail1),
        tail_counts2=tuple(tail2),
        tail_rounds=horizon - tail_start,
        belief_errors=None if belief_errors is None else tuple(belief_errors),
    )


def trial_key(cfg: ExperimentConfig, trial_index: int, draw: tuple[int, int, int]) -> tuple:
    """What a trial's summary depends on besides its index and signals (see
    run_summaries); draw is the trial's environment_draw."""
    players = []
    seeded = cfg.pure_realization
    for spec, signal in ((cfg.spec1, draw[1]), (cfg.spec2, draw[2])):
        cls, params, forced = canonical_spec(spec)
        signal = signal if forced is None else forced
        # An out-of-range forced signal stays in the key, so that it raises.
        if not cls.reads_signal and 0 <= signal < cfg.prior.support_size:
            signal = None
        players.append((cls, params, signal))
        seeded = seeded or cls.draws_randomness or cls.needs_side_signal
    seed = (cfg.master_seed, trial_index) if seeded else None
    return (*players, cfg.prior, draw[0], cfg.horizon, cfg.checkpoints, cfg.tail_window,
            cfg.tail_threshold, cfg.feedback_mode, cfg.pure_realization, seed)


def run_summaries(
    cfg: ExperimentConfig,
    threads: int = 1,
    probe: BeliefProbe | None = None,
    jobs: list[tuple[ExperimentConfig, int]] | None = None,
) -> list[TrialSummary]:
    """Trial summaries of a job list, in job order.

    A job is a (config, trial index) pair; the default list is every trial
    of cfg. Jobs with equal trial keys share one simulation: the first is
    simulated, and each other one gets a copy, marked `reused`, with its own
    trial_index, s1 and s2. The key holds each player's canonical spec
    (mimics resolved) and effective signal (None for a class that never
    reads it), the prior, the realized game, and the horizon, checkpoint,
    tail and feedback fields; it holds the seed and the trial index only when
    a learner draws from its random stream or takes side signals, or under
    pure_realization. The simulated jobs run in this process at threads == 1,
    otherwise through one fork-based worker pool. Results are identical for
    any thread count: each trial derives its own random streams from its
    config and index.
    """
    if threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    if jobs is None:
        jobs = [(cfg, k) for k in range(cfg.trials)]
    draws = [environment_draw(job_cfg, k) for job_cfg, k in jobs]
    keys = [trial_key(job_cfg, k, draw) for (job_cfg, k), draw in zip(jobs, draws)]
    first: dict = {}  # trial key -> index of the job that is simulated
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    tasks = [(*jobs[i], probe) for i in first.values()]
    if threads == 1 or len(tasks) == 1:
        done = [_simulate(*task) for task in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(threads) as pool:
            # Chunks of one task: trial costs differ across the configs of one
            # job list, and a larger chunk can leave one worker idle while the
            # other still works through a chunk of slow trials.
            done = pool.starmap(_simulate, tasks, chunksize=1)
    simulated = dict(zip(first.values(), done))
    out = []
    for i, ((_, k), (_, s1, s2), key) in enumerate(zip(jobs, draws, keys)):
        s = simulated[first[key]]
        out.append(s if first[key] == i else replace(s, trial_index=k, s1=s1, s2=s2, reused=True))
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def mean_ci(values, z: float = Z_95) -> tuple[float, float | None]:
    """Sample mean and normal-approximation half-width (None below 2 values)."""
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return m, None
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, z * math.sqrt(var / n)


def _group_stats(values_by_key: dict) -> dict:
    out = {}
    for k in sorted(values_by_key):
        u1s, u2s = values_by_key[k]
        m1, c1 = mean_ci(u1s)
        m2, c2 = mean_ci(u2s)
        out[k] = {
            "count": len(u1s),
            "mean_u1": m1,
            "ci_u1": c1,
            "mean_u2": m2,
            "ci_u2": c2,
        }
    return out


@dataclass
class EstimateReport:
    """Monte-Carlo aggregate of an experiment.

    mean_* are plain trial averages; prior_weighted_* reweight the
    per-realized-game conditional means by the exact prior (a stratified
    estimator of the prior-expected average utility, free of realized-game
    sampling noise). CIs are normal-approximation 95% half-widths over the
    configured trial count.
    """

    trials: int
    horizon: int
    checkpoints: tuple[int, ...]
    mean_u1: float
    ci_u1: float | None
    mean_u2: float
    ci_u2: float | None
    prior_weighted_u1: float | None
    prior_weighted_ci_u1: float | None
    prior_weighted_u2: float | None
    prior_weighted_ci_u2: float | None
    per_game: dict
    per_signal_pair: dict
    regrets: dict
    checkpoint_curves: list
    tail: dict
    summaries: list = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "horizon": self.horizon,
            "checkpoints": list(self.checkpoints),
            "u1": {
                "mean": self.mean_u1,
                "ci95": self.ci_u1,
                "prior_weighted": self.prior_weighted_u1,
                "prior_weighted_ci95": self.prior_weighted_ci_u1,
            },
            "u2": {
                "mean": self.mean_u2,
                "ci95": self.ci_u2,
                "prior_weighted": self.prior_weighted_u2,
                "prior_weighted_ci95": self.prior_weighted_ci_u2,
            },
            "per_game": {str(k): v for k, v in self.per_game.items()},
            "per_signal_pair": {f"{k[0]},{k[1]}": v for k, v in self.per_signal_pair.items()},
            "regrets": self.regrets,
            "checkpoint_curves": self.checkpoint_curves,
            "tail": self.tail,
        }


def stratified_mean_ci(prior: Prior, values_by_game: dict) -> tuple[float | None, float | None]:
    """Prior-weighted combination of per-realized-game means: (value, ci95).

    values_by_game maps a realized game index to its per-trial values.
    Returns (None, None) when a positive-weight game never realized; the CI is
    None when any contributing group has fewer than 2 trials.
    """
    total = 0.0
    var = 0.0
    have_ci = True
    for i, w in enumerate(prior.weights):
        if w == 0.0:
            continue
        values = values_by_game.get(i)
        if values is None:
            return None, None
        m, ci = mean_ci(values)
        total += w * m
        if ci is None:
            have_ci = False
        else:
            var += (w * ci / Z_95) ** 2
    return total, Z_95 * math.sqrt(var) if have_ci else None


def estimate(cfg: ExperimentConfig, threads: int = 1) -> EstimateReport:
    """Monte-Carlo estimates over independent trials."""
    summaries = run_summaries(cfg, threads)
    return summarize(cfg, summaries)


def summarize(cfg: ExperimentConfig, summaries: list[TrialSummary]) -> EstimateReport:
    """Aggregate precomputed trial summaries (see estimate for the one-shot path)."""
    u1s = [s.avg_u1 for s in summaries]
    u2s = [s.avg_u2 for s in summaries]
    m1, c1 = mean_ci(u1s)
    m2, c2 = mean_ci(u2s)

    by_game: dict = {}
    by_pair: dict = {}
    for s in summaries:
        by_game.setdefault(s.realized, ([], []))
        by_game[s.realized][0].append(s.avg_u1)
        by_game[s.realized][1].append(s.avg_u2)
        by_pair.setdefault((s.s1, s.s2), ([], []))
        by_pair[(s.s1, s.s2)][0].append(s.avg_u1)
        by_pair[(s.s1, s.s2)][1].append(s.avg_u2)
    per_game = _group_stats(by_game)
    per_pair = _group_stats(by_pair)
    for i, g in enumerate(cfg.prior.games):
        if i in per_game:
            per_game[i]["game"] = g.name

    sw1, sc1 = stratified_mean_ci(cfg.prior, {k: v[0] for k, v in by_game.items()})
    sw2, sc2 = stratified_mean_ci(cfg.prior, {k: v[1] for k, v in by_game.items()})

    regrets = {}
    for name, vals in (
        ("ext_regret1", [s.ext_regret1 for s in summaries]),
        ("ext_regret2", [s.ext_regret2 for s in summaries]),
        ("swap_regret1", [s.swap_regret1 for s in summaries]),
        ("swap_regret2", [s.swap_regret2 for s in summaries]),
    ):
        m, c = mean_ci(vals)
        regrets[name] = {"mean": m, "ci95": c}

    curves = []
    n = len(summaries)
    for idx, t in enumerate(cfg.checkpoints):
        row = [0.0] * 6
        for s in summaries:
            r = s.checkpoint_rows[idx]
            for j in range(6):
                row[j] += r[1 + j]
        curves.append(
            {
                "t": t,
                "avg_u1": row[0] / n,
                "avg_u2": row[1] / n,
                "ext_regret1": row[2] / n,
                "ext_regret2": row[3] / n,
                "swap_regret1": row[4] / n,
                "swap_regret2": row[5] / n,
            }
        )

    tail_rounds = sum(s.tail_rounds for s in summaries)
    tail = {
        "window": min(cfg.tail_window, cfg.horizon),
        "threshold": cfg.tail_threshold,
        "player1": [
            sum(s.tail_counts1[a] for s in summaries) / tail_rounds
            for a in range(cfg.prior.n1)
        ],
        "player2": [
            sum(s.tail_counts2[b] for s in summaries) / tail_rounds
            for b in range(cfg.prior.n2)
        ],
    }

    return EstimateReport(
        trials=cfg.trials,
        horizon=cfg.horizon,
        checkpoints=cfg.checkpoints,
        mean_u1=m1,
        ci_u1=c1,
        mean_u2=m2,
        ci_u2=c2,
        prior_weighted_u1=sw1,
        prior_weighted_ci_u1=sc1,
        prior_weighted_u2=sw2,
        prior_weighted_ci_u2=sc2,
        per_game=per_game,
        per_signal_pair=per_pair,
        regrets=regrets,
        checkpoint_curves=curves,
        tail=tail,
        summaries=summaries,
    )


@dataclass
class CspReport:
    """Empirical correlated strategy profiles bucketed by (realized game, s2),
    plus per-realized-game mixtures assembled with the exact signal weights."""

    by_pair: dict  # (realized, s2) -> CSP
    counts: dict  # (realized, s2) -> trial count
    cell_se: dict  # (realized, s2) -> per-cell standard error matrix
    by_game: dict  # realized -> CSP | None (absent ingredient bucket)
    p2: float

    def to_dict(self, prior: Prior) -> dict:
        labels1 = prior.games[0].action_labels1
        labels2 = prior.games[0].action_labels2

        def csp_cells(c: CSP):
            return {
                labels1[a]: {labels2[b]: c.mass[a][b] for b in range(len(labels2))}
                for a in range(len(labels1))
            }

        return {
            "p2": self.p2,
            "by_signal_pair": {
                f"{k[0]},{k[1]}": {"count": self.counts[k], "mass": csp_cells(v)}
                for k, v in sorted(self.by_pair.items())
            },
            "by_game": {
                str(k): None if v is None else csp_cells(v)
                for k, v in sorted(self.by_game.items())
            },
        }


def estimate_csps(
    cfg: ExperimentConfig, threads: int = 1, summaries: list[TrialSummary] | None = None
) -> CspReport:
    """Bucketed CSP estimates; buckets never fabricated when empty."""
    if summaries is None:
        summaries = run_summaries(cfg, threads)
    prior = cfg.prior
    n1, n2 = prior.n1, prior.n2
    acc: dict = {}
    for s in summaries:
        key = (s.realized, s.s2)
        if key not in acc:
            acc[key] = [0, [[0.0] * n2 for _ in range(n1)], [[0.0] * n2 for _ in range(n1)]]
        slot = acc[key]
        slot[0] += 1
        for a in range(n1):
            row = s.csp_mass[a]
            for b in range(n2):
                slot[1][a][b] += row[b]
                slot[2][a][b] += row[b] * row[b]

    by_pair = {}
    counts = {}
    cell_se = {}
    for key, (n, tot, totsq) in sorted(acc.items()):
        mean = [[tot[a][b] / n for b in range(n2)] for a in range(n1)]
        by_pair[key] = CSP(tuple(tuple(r) for r in mean))
        counts[key] = n
        se = [[0.0] * n2 for _ in range(n1)]
        if n >= 2:
            for a in range(n1):
                for b in range(n2):
                    var = max(0.0, (totsq[a][b] - n * mean[a][b] ** 2) / (n - 1))
                    se[a][b] = math.sqrt(var / n)
        cell_se[key] = tuple(tuple(r) for r in se)

    p2 = cfg.signal_model.p2
    by_game: dict = {}
    for i in range(prior.support_size):
        parts = [(w, by_pair.get((i, j))) for j, w in signal_weights(prior, i, p2)]
        if parts and all(c is not None for _, c in parts):
            total_w = sum(w for w, _ in parts)
            by_game[i] = mix_csps([(w / total_w, c) for w, c in parts])
        else:
            by_game[i] = None
    return CspReport(by_pair, counts, cell_se, by_game, p2)


def csv_rows(report: EstimateReport):
    """One row per (trial, checkpoint), matching CSV_HEADER."""
    for s in report.summaries:
        for row in s.checkpoint_rows:
            yield (
                s.trial_index,
                s.realized,
                s.s1,
                s.s2,
                int(row[0]),
                row[1],
                row[2],
                row[3],
                row[4],
                row[5],
                row[6],
            )


def write_csv(report: EstimateReport, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER.split(","))
        for row in csv_rows(report):
            w.writerow(row)


def with_spec(cfg: ExperimentConfig, player: int, spec: LearnerSpec) -> ExperimentConfig:
    """Copy of cfg with one player's learner spec replaced."""
    if player == 1:
        return replace(cfg, spec1=spec)
    if player == 2:
        return replace(cfg, spec2=spec)
    raise InvalidArgumentError(f"player must be 1 or 2, got {player}")
