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
import functools
import math
import multiprocessing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from operator import attrgetter
from random import Random

from .errors import InvalidArgumentError, check_type
from .games import (
    CSP,
    FeedbackRecord,
    Prior,
    SignalModel,
    add_up,
    load_prior,
    prior_draw,
    prior_from_dict,
    prior_to_dict,
    pure,
    sample_index,
    sample_signal,
    signal_weights,
)
from .learners import LearnerSpec, canonical_spec, learner_init, payoffs_against, regrets_from_mass
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

# The per-checkpoint path columns: a checkpoint row holds t, then these in
# this order; the last four are also TrialSummary's final regrets.
PATH_COLUMNS = ("avg_u1", "avg_u2", "ext_regret1", "ext_regret2", "swap_regret1", "swap_regret2")
CSV_HEADER = ",".join(("trial", "realized_game", "s1", "s2", "t", *PATH_COLUMNS))

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
Z_95_ONE_SIDED = 1.6448536269514722
# utility_likelihood keeps a game while each observed own utility lies within
# this distance of the range the game allows for the played strategy.
BELIEF_TOL = 1e-6


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Powers of two up to the horizon, plus the horizon itself."""
    cps = []
    c = 1
    while c < horizon:
        cps.append(c)
        c *= 2
    cps.append(horizon)
    return tuple(cps)


# The JSON kind (check_type) of each config field of a plain type.
_JSON_KINDS = {"int": "integer", "float": "number", "bool": "boolean", "tuple[int, ...]": "list"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, and the one home of its JSON format (from_dict,
    to_dict): every field is checked here, whether the config is built in
    code or read from JSON."""

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
        for f in fields(self):
            if f.type in _JSON_KINDS:
                check_type(getattr(self, f.name), f"config key {f.name!r}", _JSON_KINDS[f.type])
        object.__setattr__(self, "tail_threshold", float(self.tail_threshold))
        if self.horizon < 1:
            raise InvalidArgumentError("horizon must be >= 1")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if self.tail_window < 1:
            raise InvalidArgumentError("tail_window must be >= 1")
        # rng.derive_seed reads the seed modulo 2**64: outside this range two
        # seeds would name the same streams.
        if not 0 <= self.master_seed < 1 << 64:
            raise InvalidArgumentError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        # Above 1/2 at most one action can carry the threshold mass, which is
        # what the tail count of _simulate assumes.
        if not 0.5 < self.tail_threshold <= 1.0:
            raise InvalidArgumentError(
                f"tail_threshold must lie in (0.5, 1], got {self.tail_threshold!r}"
            )
        if self.feedback_mode not in ("full", "bandit"):
            raise InvalidArgumentError(f"bad feedback_mode {self.feedback_mode!r}")
        # The one place where a spec's legality is decided, mimics resolved;
        # a throwaway learner checks the kind's own params, role and horizon.
        for player, spec in enumerate((self.spec1, self.spec2), 1):
            name = f"spec{player}"
            cls, _, forced = canonical_spec(spec)
            if cls.requires_full_info and self.feedback_mode == "bandit":
                raise InvalidArgumentError(f"{name} ({spec.kind}) requires full-information feedback")
            if forced is not None and not 0 <= forced < self.prior.support_size:
                raise InvalidArgumentError(f"{name} forces signal {forced}, out of range")
            learner_init(spec, player, self.prior, 0, Random(0)).check_horizon(self.horizon)
        # Compiled here, as the learners' steps are, so that forked pool
        # workers inherit it.
        _emit_account(self.prior.n1, self.prior.n2)
        if not self.checkpoints:
            object.__setattr__(self, "checkpoints", default_checkpoints(self.horizon))
        else:
            cps = tuple(sorted({check_type(c, "checkpoint", "integer") for c in self.checkpoints}))
            if cps[0] < 1 or cps[-1] > self.horizon:
                raise InvalidArgumentError("checkpoints must lie in [1, horizon]")
            object.__setattr__(self, "checkpoints", cps)

    @classmethod
    def from_dict(cls, d: dict) -> ExperimentConfig:
        """The config of a JSON object shaped as to_dict writes it; `prior`
        may also be a builtin reference or a prior file path."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidArgumentError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise InvalidArgumentError(f"experiment config missing key {f.name!r}")
        sm = d["signal_model"]
        if not isinstance(sm, dict) or sorted(sm) != ["p1", "p2"]:
            raise InvalidArgumentError(
                f"config key 'signal_model' must be an object with keys 'p1' and 'p2', got {sm!r}"
            )
        prior = d["prior"]
        return cls(**{
            **d,
            "prior": load_prior(prior) if isinstance(prior, str) else prior_from_dict(prior),
            "signal_model": SignalModel(**sm),
            "spec1": LearnerSpec.from_dict(d["spec1"]),
            "spec2": LearnerSpec.from_dict(d["spec2"]),
        })

    def to_dict(self) -> dict:
        """The JSON object of this config, with the prior written inline."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "prior": prior_to_dict(self.prior),
            "signal_model": asdict(self.signal_model),
            "spec1": self.spec1.to_dict(),
            "spec2": self.spec2.to_dict(),
            "checkpoints": list(self.checkpoints),
        }


@dataclass(frozen=True)
class BeliefProbe:
    """Declarative belief tracker folded inside the trial loop (see audit)."""

    kind: str  # nearest_best_response | utility_likelihood | last_side_signal
    player: int
    targets: tuple[tuple[float, ...], ...] | None = None


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
    # One row per configured checkpoint: (t, *PATH_COLUMNS)
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

    def __init__(self, probe: BeliefProbe, cfg: ExperimentConfig, realized: int, learner):
        self.probe = probe
        self.learner = learner  # the traced player's
        self.prior = cfg.prior
        self.realized = realized
        self.mode = cfg.prior.mode()
        n = len(cfg.prior.entries)
        self.consistent = [True] * n
        own_n = cfg.prior.n1 if probe.player == 1 else cfg.prior.n2
        self.cum_own = [0.0] * own_n
        self.rounds_seen = 0
        if probe.kind == "utility_likelihood":
            # own-payoff columns per candidate game: cols[k][opp][own]
            self.cols = [tuple(zip(*g.own_payoffs(probe.player))) for g in cfg.prior.games]

    def current_belief(self) -> int:
        kind = self.probe.kind
        if kind == "last_side_signal":  # read after the round's side signal
            return self.learner.game
        if kind == "nearest_best_response":
            if self.rounds_seen == 0:
                return self.mode
            inv = 1.0 / self.rounds_seen
            avg = [v * inv for v in self.cum_own]
            dists = []
            for target in self.probe.targets:
                dists.append(add_up(abs(a - b) for a, b in zip(avg, target)))
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
            for k, cols in enumerate(self.cols):
                if not self.consistent[k]:
                    continue
                # Attainable own utility given this strategy: its payoff
                # against each of the opponent's pure replies.
                values = payoffs_against(cols, own_strategy)
                if not (min(values) - BELIEF_TOL <= own_utility <= max(values) + BELIEF_TOL):
                    self.consistent[k] = False


@functools.cache
def _emit_account(n1: int, n2: int):
    """The accounting of one fresh round of an n1 x n2 game, compiled on
    first use.

    bind(mass, u1, u2) -> account binds a trial's mass rows and the realized
    game's payoffs; account(x, y) -> (uu1, uu2) adds x_a * y_b to mass[a][b]
    for every cell where both are nonzero and returns both players' expected
    utilities. The code is straight-line on local variables. It visits the
    cells a-major and does the float operations of nested loops over x and y
    in their order, so it is bit-identical to them (tests/test_engine.py
    keeps those loops as its oracle): each sum starts at 0.0 and adds
    u_ab * w cell by cell. Replayed rounds do not come here (_simulate)."""
    def unpack(names) -> str:  # a tuple target, "(a, b, )"
        return "(" + "".join(f"{name}, " for name in names) + ")"

    body = [f"{unpack(f'x{a}' for a in range(n1))} = x",
            f"{unpack(f'y{b}' for b in range(n2))} = y", "uu1 = uu2 = 0.0"]
    for a in range(n1):
        body.append(f"if x{a}:")
        for b in range(n2):
            body += [f"    if y{b}:", f"        w = x{a} * y{b}", f"        m{a}[{b}] += w",
                     f"        uu1 += p{a}_{b} * w", f"        uu2 += q{a}_{b} * w"]
    src = "".join([
        "def bind(mass, u1, u2):\n",
        f"    {unpack(f'm{a}' for a in range(n1))} = mass\n",
        *(f"    {unpack(unpack(f'{v}{a}_{b}' for b in range(n2)) for a in range(n1))} = {u}\n"
          for v, u in (("p", "u1"), ("q", "u2"))),
        "    def account(x, y):\n",
        *(f"        {line}\n" for line in body + ["return uu1, uu2"]),
        "    return account\n",
    ])
    namespace: dict = {}
    exec(compile(src, f"<fresh-round accounting, {n1} x {n2}>", "exec"), namespace)
    return namespace["bind"]


def _simulate(
    cfg: ExperimentConfig, trial_index: int, probe: BeliefProbe | None = None
) -> TrialSummary:
    prior = cfg.prior
    realized, s1, s2 = environment_draw(cfg, trial_index)
    g = prior.games[realized]
    n1, n2 = g.n1, g.n2
    seed = cfg.master_seed

    l1 = learner_init(cfg.spec1, 1, prior, s1, stream(seed, trial_index, LEARNER1_STREAM))
    l2 = learner_init(cfg.spec2, 2, prior, s2, stream(seed, trial_index, LEARNER2_STREAM))
    sides = [  # (learner, its side-signal stream), player 1 first
        (lrn, stream(seed, trial_index, tag))
        for lrn, tag in ((l1, SIDE1_STREAM), (l2, SIDE2_STREAM))
        if lrn.needs_side_signal
    ]
    pure_real = cfg.pure_realization
    if pure_real:
        real1 = stream(seed, trial_index, REALIZE1_STREAM)
        real2 = stream(seed, trial_index, REALIZE2_STREAM)
        onehots1 = [pure(n1, a) for a in range(n1)]
        onehots2 = [pure(n2, b) for b in range(n2)]

    full_info = cfg.feedback_mode == "full"
    horizon = cfg.horizon
    mass = [[0.0] * n2 for _ in range(n1)]
    account = _emit_account(n1, n2)(mass, g.u1, g.u2)
    cum_u1 = cum_u2 = 0.0
    cps = iter(cfg.checkpoints)
    next_cp = next(cps)  # 0 once every checkpoint has passed
    cp_rows = []
    tail_start = horizon - min(cfg.tail_window, horizon)
    thresh = cfg.tail_threshold
    tail1 = [0] * n1
    tail2 = [0] * n2
    fold = None if probe is None else _BeliefFold(probe, cfg, realized, l1 if probe.player == 1 else l2)
    belief_errors = [] if probe is not None else None
    # Bound after learner_init, which may wrap them; a replayed round leaves each record as filled.
    act1, act2, observe1, observe2 = l1.act, l2.act, l1.observe, l2.observe
    fb1 = FeedbackRecord(None, None, 0.0)
    fb2 = FeedbackRecord(None, None, 0.0)
    # The last round's pair, and its (mass row, column, weight) cells and tail
    # actions, built once the pair repeats.
    last_x = last_y = cells = None

    for t in range(1, horizon + 1):
        for lrn, side in sides:
            acc = lrn.side_signal_accuracy(t)
            lrn.receive_side_signal(realized if side.random() < acc else prior_draw(prior, side))
        if fold is not None and t == next_cp:
            belief_errors.append(fold.error())

        x = act1()
        y = act2()
        if pure_real:
            x = onehots1[sample_index(x, real1)]
            y = onehots2[sample_index(y, real2)]

        # Learners never mutate a strategy they returned, so the same two
        # objects as last round replay its accounting: the same mass cells,
        # utilities (uu1, uu2), tail actions and feedback records.
        if x is last_x and y is last_y:
            if cells is None:
                cells = [(mass[a], b, xa * yb) for a, xa in enumerate(x) if xa
                         for b, yb in enumerate(y) if yb]
                tail_a = next((a for a, xa in enumerate(x) if xa >= thresh), None)
                tail_b = next((b for b, yb in enumerate(y) if yb >= thresh), None)
            for mrow, b, w in cells:
                mrow[b] += w
            if t > tail_start:
                if tail_a is not None:
                    tail1[tail_a] += 1
                if tail_b is not None:
                    tail2[tail_b] += 1
        else:
            last_x, last_y, cells = x, y, None
            uu1, uu2 = account(x, y)
            if t > tail_start:
                for a, xa in enumerate(x):
                    if xa >= thresh:
                        tail1[a] += 1
                        break
                for b, yb in enumerate(y):
                    if yb >= thresh:
                        tail2[b] += 1
                        break
            fb1.own_strategy, fb1.own_utility = x, uu1
            fb2.own_strategy, fb2.own_utility = y, uu2
            if full_info:
                fb1.opponent_strategy, fb2.opponent_strategy = y, x
        cum_u1 += uu1
        cum_u2 += uu2
        if fold is not None:
            fold.fold_round(x if probe.player == 1 else y, uu1 if probe.player == 1 else uu2)
        observe1(fb1)
        observe2(fb2)

        if t == next_cp:
            next_cp = next(cps, 0)
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


# Every config field but those that trial_key reads in resolved form (specs,
# signal model and seed) and trials, which no single trial reads: a field
# added later enters the key by default.
_KEYED_FIELDS = attrgetter(*(
    f.name for f in fields(ExperimentConfig)
    if f.name not in ("spec1", "spec2", "signal_model", "trials", "master_seed")
))


def trial_key(cfg: ExperimentConfig, trial_index: int, draw: tuple[int, int, int]) -> tuple:
    """What a trial's summary depends on besides its index and signals (see
    run_summaries); draw is the trial's environment_draw."""
    players = []
    seeded = cfg.pure_realization
    for spec, signal in ((cfg.spec1, draw[1]), (cfg.spec2, draw[2])):
        cls, params, forced = canonical_spec(spec)
        signal = signal if forced is None else forced
        if not cls.reads_signal:
            signal = None
        players.append((cls, params, signal))
        seeded = seeded or cls.draws_randomness or cls.needs_side_signal
    seed = (cfg.master_seed, trial_index) if seeded else None
    return (*players, draw[0], *_KEYED_FIELDS(cfg), seed)


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
    reads it), the realized game, and every other config field but trials
    (_KEYED_FIELDS); it holds the seed and the trial index only when
    a learner draws from its random stream or takes side signals, or under
    pure_realization. The simulated jobs run in this process at threads == 1,
    otherwise through one fork-based pool of at most one worker per simulated
    job. Results are identical for any thread count: each trial derives its
    own random streams from its config and index.
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
        with ctx.Pool(min(threads, len(tasks))) as pool:
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
    m = add_up(values) / n
    if n < 2:
        return m, None
    var = add_up((v - m) ** 2 for v in values) / (n - 1)
    return m, z * math.sqrt(var / n)


def weighted_mean_ci(parts, z: float = Z_95) -> tuple[float, float | None]:
    """Sum of w * mean over (w, mean, ci) parts, and the half-width at z of
    that sum, z * sqrt(sum (w * ci / z)^2); the half-width is None when any
    part's ci is None."""
    total = 0.0
    var = 0.0
    have_ci = True
    for w, m, ci in parts:
        total += w * m
        if ci is None:
            have_ci = False
        else:
            var += (w * ci / z) ** 2
    return total, z * math.sqrt(var) if have_ci else None


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
    parts = []
    for i, w in enumerate(prior.weights):
        if w == 0.0:
            continue
        values = values_by_game.get(i)
        if values is None:
            return None, None
        parts.append((w, *mean_ci(values)))
    return weighted_mean_ci(parts)


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
    for name in PATH_COLUMNS[2:]:
        m, c = mean_ci([getattr(s, name) for s in summaries])
        regrets[name] = {"mean": m, "ci95": c}

    curves = []
    n = len(summaries)
    width = len(PATH_COLUMNS)
    for idx, t in enumerate(cfg.checkpoints):
        row = [0.0] * width
        for s in summaries:
            r = s.checkpoint_rows[idx]
            for j in range(width):
                row[j] += r[1 + j]
        curves.append({"t": t, **{name: v / n for name, v in zip(PATH_COLUMNS, row)}})

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
    plus per-realized-game mixtures assembled with the exact signal weights.

    Standard errors are per cell: the two-pass sample estimate (0.0 for a
    one-trial bucket), and for a mixture the weighted combination of its
    buckets' errors (weighted_mean_ci).
    """

    by_pair: dict  # (realized, s2) -> CSP
    counts: dict  # (realized, s2) -> trial count
    cell_se: dict  # (realized, s2) -> per-cell standard error matrix
    by_game: dict  # realized -> CSP | None (absent ingredient bucket)
    game_se: dict  # realized -> per-cell standard error matrix | None
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


def estimate_csps(cfg: ExperimentConfig, summaries: list[TrialSummary]) -> CspReport:
    """Bucketed CSP estimates from cfg's trial summaries; buckets never
    fabricated when empty."""
    prior = cfg.prior
    n1, n2 = prior.n1, prior.n2

    def flat(matrix):
        return [v for row in matrix for v in row]

    def split(cells):
        """A CSP and its standard-error matrix from row-major (mean, se) cells."""
        rows = [cells[a * n2 : (a + 1) * n2] for a in range(n1)]
        return (
            CSP(tuple(tuple(m for m, _ in row) for row in rows)),
            tuple(tuple(se for _, se in row) for row in rows),
        )

    buckets: dict = {}
    for s in summaries:
        buckets.setdefault((s.realized, s.s2), []).append(s.csp_mass)
    by_pair = {}
    counts = {}
    cell_se = {}
    for key, masses in sorted(buckets.items()):
        cells = [mean_ci(values, z=1.0) for values in zip(*map(flat, masses))]
        # A one-trial bucket has no spread to estimate: its SE reads 0.0.
        by_pair[key], cell_se[key] = split([(m, se or 0.0) for m, se in cells])
        counts[key] = len(masses)

    p2 = cfg.signal_model.p2
    by_game: dict = {}
    game_se: dict = {}
    for i in range(prior.support_size):
        weights = signal_weights(prior, i, p2)
        if any((i, j) not in by_pair for j, _ in weights):
            by_game[i] = game_se[i] = None
            continue
        total_w = add_up(w for _, w in weights)
        parts = [(w / total_w, flat(by_pair[i, j].mass), flat(cell_se[i, j])) for j, w in weights]
        by_game[i], game_se[i] = split(
            [
                weighted_mean_ci([(w, m[c], se[c]) for w, m, se in parts], z=1.0)
                for c in range(n1 * n2)
            ]
        )
    return CspReport(by_pair, counts, cell_se, by_game, game_se, p2)


def csv_rows(report: EstimateReport):
    """One row per (trial, checkpoint), matching CSV_HEADER."""
    for s in report.summaries:
        for row in s.checkpoint_rows:
            yield (s.trial_index, s.realized, s.s1, s.s2, int(row[0]), *row[1:])


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
