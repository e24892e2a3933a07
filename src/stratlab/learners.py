"""The algorithm zoo: adaptive strategies for repeated play, plus regret meters.

Every learner follows the same per-round protocol: act() returns a mixed
strategy (a tuple of floats), then observe(FeedbackRecord) delivers feedback.
Learners only ever see the game through their pre-play signal and through
feedback; nothing here touches the realized game directly, which is what makes
signal-forcing deviations (mimic_deviation) well defined.

Bandit-feedback learners emit sampled one-hot strategies: importance-weighted
estimates need the observed utility to belong to the sampled action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from .errors import InvalidArgumentError, ProtocolViolationError, check_type
from .games import (
    FeedbackRecord,
    GameMatrix,
    MixedStrategy,
    Prior,
    pure,
    sample_index,
)
from .solve import perturbed_commitment, stackelberg_value

KINDS = (
    "constant_action",
    "multiplicative_weights",
    "bandit_exp3",
    "no_swap_regret_full",
    "no_swap_regret_bandit",
    "stackelberg_leader",
    "best_responder",
    "mimic_deviation",
    "reveal_then_follow_leader",
    "infer_then_commit_follower",
    "external_signal_leader",
)

MIMIC_PARAMS = ("base", "signal")


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative learner configuration; see KINDS for valid kinds. Params
    must be named in the kind's param table (`param_defaults`)."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown learner kind {self.kind!r}")
        mimic = self.kind == "mimic_deviation"
        allowed = MIMIC_PARAMS if mimic else _CLASSES[self.kind].param_defaults
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise InvalidArgumentError(
                f"unknown param(s) {', '.join(map(repr, unknown))} for learner kind {self.kind!r}"
            )
        # Params are numbers; a mimic's only number is its forced signal index.
        integer = ("signal",) if mimic else _CLASSES[self.kind].integer_params
        for name, value in self.params.items():
            if not (mimic and name == "base"):
                kind = "integer" if name in integer else "number"
                check_type(value, f"param {name!r} of learner kind {self.kind!r}", kind)
        if mimic and "base" in self.params:
            base = self.params["base"]
            if not isinstance(base, LearnerSpec):
                base = LearnerSpec.from_dict(base)  # validates the base's params
            if base.kind == "mimic_deviation":
                raise InvalidArgumentError("mimic_deviation cannot wrap itself")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "LearnerSpec":
        try:
            return LearnerSpec(d["kind"], dict(d.get("params", {})))
        except (KeyError, TypeError) as e:
            raise InvalidArgumentError(f"malformed learner spec: {e}") from e


class Learner:
    """Base class enforcing the act/observe protocol.

    `param_defaults` is the kind's param table: every accepted param and its
    default (None where the param is required or the default is adaptive);
    the params named in `integer_params` must be ints, the others numbers.
    `reads_signal` is False only for classes whose play never depends on
    their pre-play signal, and `draws_randomness` is True only for classes
    that draw from their random stream `rng`.
    """

    param_defaults: dict = {}
    integer_params: tuple = ()
    requires_full_info = False
    needs_side_signal = False
    reads_signal = True
    draws_randomness = False

    def __init__(self, spec: LearnerSpec, role: int, prior: Prior, signal: int, rng: Random):
        if role not in (1, 2):
            raise InvalidArgumentError(f"role must be 1 or 2, got {role}")
        if not 0 <= signal < prior.support_size:
            raise InvalidArgumentError(f"signal index {signal} out of range")
        self.spec = spec
        self.role = role
        self.prior = prior
        self.signal = signal
        self.rng = rng
        self.n_own = prior.n1 if role == 1 else prior.n2
        self.n_opp = prior.n2 if role == 1 else prior.n1
        self.t = 1
        self._awaiting_feedback = False

    def _param(self, name: str):
        return self.spec.params.get(name, self.param_defaults[name])

    def act(self) -> MixedStrategy:
        if self._awaiting_feedback:
            raise ProtocolViolationError("act called twice without observe")
        s = self._act()
        self._awaiting_feedback = True
        return s

    def observe(self, fb: FeedbackRecord) -> None:
        if not self._awaiting_feedback:
            raise ProtocolViolationError("observe called before act")
        if self.requires_full_info and fb.opponent_strategy is None:
            raise ProtocolViolationError(
                f"{self.spec.kind} requires full-information feedback"
            )
        self._observe(fb)
        self._awaiting_feedback = False
        self.t += 1

    def _act(self) -> MixedStrategy:
        raise NotImplementedError

    def _observe(self, fb: FeedbackRecord) -> None:
        pass


def learner_init(
    spec: LearnerSpec, role: int, prior: Prior, signal: int, rng: Random
) -> Learner:
    """Instantiate a learner's per-trial state.

    mimic_deviation resolves here: it is exactly its base learner initialized
    with the forced signal index.
    """
    if spec.kind == "mimic_deviation":
        base, forced = _mimic_parts(spec)
        return learner_init(base, role, prior, forced, rng)
    cls = _CLASSES[spec.kind]
    return cls(spec, role, prior, signal, rng)


def _mimic_parts(spec: LearnerSpec) -> tuple[LearnerSpec, int]:
    """A mimic_deviation's base spec and forced signal index."""
    try:
        base = spec.params["base"]
        forced = spec.params["signal"]
    except KeyError as e:
        raise InvalidArgumentError(f"mimic_deviation missing param {e}") from e
    if not isinstance(base, LearnerSpec):
        base = LearnerSpec.from_dict(base)
    return base, forced


def _payoffs_against(rows, opp) -> list[float]:
    """Own payoff of each action (a row of rows[own][opp]) against the
    opponent's mixture opp, summed over the actions opp plays."""
    support = [(o, po) for o, po in enumerate(opp) if po]
    values = []
    for row in rows:
        v = 0.0
        for o, po in support:
            v += row[o] * po
        values.append(v)
    return values


class ConstantAction(Learner):
    param_defaults = {"action": None}
    integer_params = ("action",)
    reads_signal = False

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        action = self._param("action")
        if action is None:
            raise InvalidArgumentError("constant_action requires param 'action'")
        self._strategy = pure(self.n_own, action)

    def _act(self):
        return self._strategy


class _HedgeCore(Learner):
    """Shared machinery: log-weights, softmax, payoff normalization."""

    param_defaults = {"eta": None}

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        lo, hi = prior.payoff_range(role)
        self._u_lo = lo
        self._u_scale = 1.0 / (hi - lo) if hi > lo else 1.0
        eta = self._param("eta")
        if eta is not None and not eta > 0:
            raise InvalidArgumentError(f"eta must be positive, got {eta!r}")
        self._eta_fixed = eta
        self._log_n = math.log(self.n_own) if self.n_own > 1 else 0.0

    def _normalize(self, u: float) -> float:
        return (u - self._u_lo) * self._u_scale

    def _eta(self) -> float:
        if self._eta_fixed is not None:
            return self._eta_fixed
        return math.sqrt(self._log_n / self.t)

    @staticmethod
    def _softmax(lw: Sequence[float]) -> list[float]:
        m = max(lw)
        es = [math.exp(v - m) for v in lw]
        s = sum(es)
        return [e / s for e in es]


class MultiplicativeWeights(_HedgeCore):
    """Hedge over own actions; full information. Reward vectors are computed
    from the signaled game's own-payoff matrix against the observed opponent
    strategy."""

    requires_full_info = True

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        self._rows = prior.games[signal].own_payoffs(role)
        self._lw = [0.0] * self.n_own

    def _act(self):
        return tuple(self._softmax(self._lw))

    def _observe(self, fb):
        eta = self._eta()
        lw = self._lw
        for a, r in enumerate(_payoffs_against(self._rows, fb.opponent_strategy)):
            lw[a] += eta * self._normalize(r)


class _BanditPlay(_HedgeCore):
    """Bandit-feedback play: a one-hot draw from the exploration mixture
    (1 - gamma) * base + gamma / n, gamma_t = min(1, sqrt(n ln n / t)) unless
    fixed by the `exploration` param. The mixture is kept for the
    importance-weighted estimate of the drawn action's reward."""

    param_defaults = {"eta": None, "exploration": None}
    reads_signal = False
    draws_randomness = True

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        explore = self._param("exploration")
        if explore is not None and not 0.0 <= explore <= 1.0:
            raise InvalidArgumentError(f"exploration must be in [0,1], got {explore!r}")
        self._explore_fixed = explore
        self._played = [1.0 / self.n_own] * self.n_own
        self._last_action = 0
        self._onehots = [pure(self.n_own, a) for a in range(self.n_own)]

    def _gamma(self) -> float:
        if self._explore_fixed is not None:
            return self._explore_fixed
        return min(1.0, math.sqrt(self.n_own * self._log_n / self.t)) if self.n_own > 1 else 0.0

    def _sample(self, base: Sequence[float]) -> MixedStrategy:
        n = self.n_own
        self._round_gamma = gamma = self._gamma()  # read again by _estimate
        p = [(1.0 - gamma) * v + gamma / n for v in base]
        self._played = p
        a = sample_index(p, self.rng)
        self._last_action = a
        return self._onehots[a]

    def _estimate(self, fb) -> tuple[int, float, float]:
        """(drawn action, importance-weighted reward estimate, step size)."""
        a = self._last_action
        est = self._normalize(fb.own_utility) / self._played[a]
        step = self._eta_fixed if self._eta_fixed is not None else self._round_gamma / self.n_own
        return a, est, step


class BanditExp3(_BanditPlay):
    """EXP3: sampled one-hot play with importance-weighted reward estimates."""

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        self._lw = [0.0] * self.n_own

    def _act(self):
        return self._sample(self._softmax(self._lw))

    def _observe(self, fb):
        a, est, step = self._estimate(fb)
        self._lw[a] += step * est


def stationary_distribution(q: Sequence[Sequence[float]]) -> list[float]:
    """A distribution pi with pi q = pi for the row-stochastic matrix q.

    Exact, with no iteration and no tolerance: the closed form
    (q10, q01) / (q01 + q10) at n = 2, and above it Grassmann-Taksar-Heyman
    elimination (Operations Research 1985), which only adds, multiplies and
    divides non-negative numbers and never reads the diagonal.

    Eliminating state k censors the chain to states 0..k-1; s_k is k's mass
    towards them. Dividing k's row by s_k (rather than the column entering k,
    as GTH is usually written) and rescaling the partial pi at each step of
    the back-substitution keep every intermediate in [0, 1], so a subnormal
    s_k cannot overflow. Underflow can also make s_k exactly 0: then k is
    absorbing in the chain censored to 0..k, so pi is 0 below k and follows
    by back-substitution from pi_k = 1. At n = 2 this gives (0, 1) when
    q01 + q10 == 0.
    """
    n = len(q)
    if n == 1:
        return [1.0]
    if n == 2:
        q01, q10 = q[0][1], q[1][0]
        s = q01 + q10
        return [q10 / s, q01 / s] if s else [0.0, 1.0]
    a = [list(row) for row in q]
    exits = [0.0] * n  # s_k
    first = 0  # the states below it get no stationary mass
    for k in range(n - 1, 0, -1):
        ak = a[k]
        s = sum(ak[:k])
        if not s:
            first = k
            break
        exits[k] = s
        if k == 1:  # the rest of the step would only write entries never read
            break
        for j in range(k):
            ak[j] /= s
        for i in range(k):
            ai = a[i]
            f = ai[k]
            if f:
                for j in range(k):
                    ai[j] += f * ak[j]
    # pi[first..j] holds the stationary distribution of the chain censored
    # to states 0..j, normalised to sum 1.
    pi = [0.0] * n
    pi[first] = 1.0
    for j in range(first + 1, n):
        v = 0.0
        for i in range(first, j):
            v += pi[i] * a[i][j]
        t = exits[j] + v
        c = exits[j] / t
        for i in range(first, j):
            pi[i] *= c
        pi[j] = v / t
    return pi


class _SwapRegretCore(_HedgeCore):
    """Expert reduction: one hedge instance per own action; play the stationary
    distribution of the experts' recommendation matrix, solved exactly (see
    stationary_distribution)."""

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        n = self.n_own
        self._lw = [[0.0] * n for _ in range(n)]
        self._p = [1.0 / n] * n

    def _recommendations(self) -> list[list[float]]:
        return [self._softmax(lw) for lw in self._lw]


class NoSwapRegretFull(_SwapRegretCore):
    requires_full_info = True

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        self._rows = prior.games[signal].own_payoffs(role)

    def _act(self):
        self._p = stationary_distribution(self._recommendations())
        return tuple(self._p)

    def _observe(self, fb):
        rewards = [self._normalize(r) for r in _payoffs_against(self._rows, fb.opponent_strategy)]
        eta = self._eta()
        p = self._p
        lw = self._lw
        for e in range(self.n_own):
            scale = eta * p[e]
            if scale:
                lwe = lw[e]
                for b, rb in enumerate(rewards):
                    lwe[b] += scale * rb


class NoSwapRegretBandit(_BanditPlay, _SwapRegretCore):
    """Same reduction under bandit feedback: the stationary distribution is
    the base of the exploration mixture (see _BanditPlay)."""

    def _act(self):
        self._p = stationary_distribution(self._recommendations())
        return self._sample(self._p)

    def _observe(self, fb):
        a, est, eta = self._estimate(fb)
        p = self._p
        lw = self._lw
        for e in range(self.n_own):
            scale = eta * p[e]
            if scale:
                lw[e][a] += scale * est


class _EpochedCommitment(Learner):
    """Doubling-trick scaffolding: within an epoch of horizon T_m the learner
    commits to a strategy computed at perturbation delta = T_m^(-b)."""

    # b in the schedule delta = T_m^(-b), 0 < b < 1-a
    param_defaults = {"b": 0.25, "initial_epoch": 64}
    integer_params = ("initial_epoch",)

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        b = self._param("b")
        if not 0.0 < b < 1.0:
            raise InvalidArgumentError(f"delta exponent b must be in (0,1), got {b!r}")
        self._b = b
        self.epoch_horizon = self._param("initial_epoch")
        if self.epoch_horizon < 1:
            raise InvalidArgumentError("initial_epoch must be >= 1")
        self._cache: dict[tuple[int, int], MixedStrategy] = {}

    def delta(self) -> float:
        return self.epoch_horizon ** (-self._b)

    def _commitment(self, game_index: int) -> MixedStrategy:
        key = (game_index, self.epoch_horizon)
        s = self._cache.get(key)
        if s is None:
            s, _ = perturbed_commitment(self.prior.games[game_index], self.role, self.delta())
            self._cache[key] = s
        return s

    def _advance_epoch(self):
        while self.t > self.epoch_horizon:
            self.epoch_horizon *= 2


class StackelbergLeader(_EpochedCommitment):
    """Commits every round to the signaled game's perturbed Stackelberg
    commitment; trusts the signal as the true game."""

    def _act(self):
        self._advance_epoch()
        return self._commitment(self.signal)


class ExternalSignalLeader(_EpochedCommitment):
    """Commits to the perturbed Stackelberg commitment of the game named by a
    per-round side signal whose accuracy improves as 1 - t^(-decay)."""

    param_defaults = {**_EpochedCommitment.param_defaults, "accuracy_decay": 1.0}
    needs_side_signal = True

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        decay = self._param("accuracy_decay")
        if not decay > 0:
            raise InvalidArgumentError(f"accuracy_decay must be positive, got {decay!r}")
        self._decay = decay
        self._q = signal

    def side_signal_accuracy(self, t: int) -> float:
        return 1.0 - t ** (-self._decay)

    def receive_side_signal(self, index: int) -> None:
        if not 0 <= index < self.prior.support_size:
            raise InvalidArgumentError(f"side signal {index} out of range")
        self._q = index

    def _act(self):
        self._advance_epoch()
        return self._commitment(self._q)


class BestResponder(Learner):
    """Per-round best reply (in the signaled game) to the opponent's previous
    strategy; uniform opponent assumed in round 1. Lowest-index tie-break."""

    requires_full_info = True

    def __init__(self, spec, role, prior, signal, rng):
        super().__init__(spec, role, prior, signal, rng)
        self._rows = prior.games[signal].own_payoffs(role)
        self._last_opp: MixedStrategy | None = None
        self._cached_reply: MixedStrategy | None = None

    def _reply_to(self, opp: Sequence[float]) -> MixedStrategy:
        values = _payoffs_against(self._rows, opp)
        return pure(self.n_own, values.index(max(values)))  # lowest index among ties

    def _act(self):
        if self._last_opp is None:
            return self._round_one()
        if self._cached_reply is None:
            self._cached_reply = self._reply_to(self._last_opp)
        return self._cached_reply

    def _round_one(self) -> MixedStrategy:
        return self._reply_to([1.0 / self.n_opp] * self.n_opp)

    def _observe(self, fb):
        opp = fb.opponent_strategy
        if opp != self._last_opp:
            self._last_opp = opp
            self._cached_reply = None


class RevealThenFollowLeader(BestResponder):
    """Scripted benchmark leader for player 1: round 1 plays the game-indexed
    pure action (signal index mod n1), then best-responds like BestResponder."""

    def __init__(self, spec, role, prior, signal, rng):
        if role != 1:
            raise InvalidArgumentError("reveal_then_follow_leader is a player-1 algorithm")
        super().__init__(spec, role, prior, signal, rng)

    def _round_one(self):
        return pure(self.n_own, self.signal % self.n_own)


class InferThenCommitFollower(Learner):
    """Scripted benchmark follower for player 2: round 1 plays action 0, then
    commits to the optimistic Stackelberg commitment of the game inferred from
    player 1's round-1 action (argmax action mod support size)."""

    requires_full_info = True
    reads_signal = False

    def __init__(self, spec, role, prior, signal, rng):
        if role != 2:
            raise InvalidArgumentError("infer_then_commit_follower is a player-2 algorithm")
        super().__init__(spec, role, prior, signal, rng)
        self._commitment: MixedStrategy | None = None

    def _act(self):
        if self._commitment is None:
            return pure(self.n_own, 0)
        return self._commitment

    def _observe(self, fb):
        if self._commitment is None:
            opp = fb.opponent_strategy
            inferred = max(range(len(opp)), key=lambda a: opp[a]) % self.prior.support_size
            self._commitment = stackelberg_value(
                self.prior.games[inferred], self.role
            ).leader_strategy


_CLASSES = {
    "constant_action": ConstantAction,
    "multiplicative_weights": MultiplicativeWeights,
    "bandit_exp3": BanditExp3,
    "no_swap_regret_full": NoSwapRegretFull,
    "no_swap_regret_bandit": NoSwapRegretBandit,
    "stackelberg_leader": StackelbergLeader,
    "best_responder": BestResponder,
    "reveal_then_follow_leader": RevealThenFollowLeader,
    "infer_then_commit_follower": InferThenCommitFollower,
    "external_signal_leader": ExternalSignalLeader,
}


def canonical_spec(spec: LearnerSpec) -> tuple[type, tuple, int | None]:
    """(learner class, params with defaults filled in as sorted (name, value)
    pairs, forced signal or None).

    mimic_deviation resolves to its base plus the forced signal. Learners
    built from specs whose class and params agree here, given the same
    effective signal and random streams, play identically.
    """
    forced = None
    if spec.kind == "mimic_deviation":
        spec, forced = _mimic_parts(spec)
    cls = _CLASSES[spec.kind]
    return cls, tuple(sorted({**cls.param_defaults, **spec.params}.items())), forced


# ---------------------------------------------------------------------------
# Regret meter (a pure function of the cumulative joint mass)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegretReport:
    external_regret: float
    swap_regret: float
    swap_targets: tuple[int, ...]  # per own action, the best replacement


def regrets_from_mass(
    mass: Sequence[Sequence[float]], g: GameMatrix, player: int
) -> RegretReport:
    """External and swap regret of `player` given the cumulative joint mass.

    The joint mass is a sufficient statistic for both: the best fixed action
    needs only the opponent's marginal, and the best swap function decomposes
    per source action over the conditional opponent mass.
    """
    u = g.own_payoffs(player)
    own_n, opp_n = len(u), len(u[0])
    if player == 1:
        cond = [[mass[a][b] for b in range(opp_n)] for a in range(own_n)]
    else:
        cond = [[mass[b][a] for b in range(opp_n)] for a in range(own_n)]

    actual = 0.0
    opp_marginal = [0.0] * opp_n
    for a in range(own_n):
        row = cond[a]
        ua = u[a]
        for o in range(opp_n):
            actual += ua[o] * row[o]
            opp_marginal[o] += row[o]

    fixed_totals = [
        sum(u[a][o] * opp_marginal[o] for o in range(opp_n)) for a in range(own_n)
    ]
    external = max(fixed_totals) - actual

    swap_total = 0.0
    targets = []
    for a in range(own_n):
        row = cond[a]
        current = sum(u[a][o] * row[o] for o in range(opp_n))
        best_v, best_a = current, a
        for a2 in range(own_n):
            v = sum(u[a2][o] * row[o] for o in range(opp_n))
            if v > best_v + 1e-15:
                best_v, best_a = v, a2
        swap_total += best_v - current
        targets.append(best_a)
    return RegretReport(external, swap_total, tuple(targets))
