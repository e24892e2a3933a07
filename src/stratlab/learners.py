"""The algorithm zoo: adaptive strategies for repeated play, plus regret meters.

Every learner follows the same per-round protocol: act() returns a mixed
strategy (a tuple of floats), then observe(FeedbackRecord) delivers feedback.
Learners only ever see the game through their pre-play signal and through
feedback; nothing here touches the realized game directly, which is what makes
signal-forcing deviations (mimic_deviation) well defined.

The hedge-family kinds (hedge, EXP3 and the two no-swap-regret reductions) play
each round in one compiled step (_emit_step). Bandit-feedback learners emit
sampled one-hot strategies: importance-weighted estimates need the observed
utility to belong to the sampled action.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from .errors import InvalidArgumentError, check_type
from .games import (
    FeedbackRecord,
    GameMatrix,
    MixedStrategy,
    Prior,
    pure,
)
from .solve import perturbed_commitment, stackelberg_value

MIMIC_PARAMS = ("base", "signal")


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative learner configuration; see KINDS for valid kinds. Params
    must be named in the kind's param table (`param_defaults`). A mimic's
    `base` is stored as a LearnerSpec, parsed here from a dict once."""

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
        # Params are finite numbers; a mimic's only number is its forced signal index.
        integer = ("signal",) if mimic else _CLASSES[self.kind].integer_params
        for name, value in self.params.items():
            if not (mimic and name == "base"):
                what = f"param {name!r} of learner kind {self.kind!r}"
                check_type(value, what, "integer" if name in integer else "number")
                if isinstance(value, float) and not math.isfinite(value):
                    raise InvalidArgumentError(f"{what} must be finite, got {value!r}")
        if mimic:
            missing = [name for name in MIMIC_PARAMS if name not in self.params]
            if missing:
                raise InvalidArgumentError(f"mimic_deviation missing param {missing[0]!r}")
            base = self.params["base"]
            if not isinstance(base, LearnerSpec):
                base = LearnerSpec.from_dict(base)  # validates the base's params
                object.__setattr__(self, "params", {**self.params, "base": base})
            if base.kind == "mimic_deviation":
                raise InvalidArgumentError("mimic_deviation cannot wrap itself")

    def to_dict(self) -> dict:
        params = {k: v.to_dict() if k == "base" else v for k, v in self.params.items()}
        return {"kind": self.kind, "params": params}

    @staticmethod
    def from_dict(d: dict) -> "LearnerSpec":
        try:
            return LearnerSpec(d["kind"], dict(d.get("params", {})))
        except (KeyError, TypeError) as e:
            raise InvalidArgumentError(f"malformed learner spec: {e}") from e


class Learner:
    """Base class of the learner kinds; each defines act() and observe(fb),
    and the base observe ignores the feedback. act returns a tuple and never
    mutates one it returned; returning the same object when the strategy
    repeats lets the engine replay the last round's accounting. fb holds the
    round's values only during observe, and a learner never writes to it.

    `param_defaults` is the kind's param table: every accepted param and its
    default (None where the param is required or the default is adaptive);
    the params named in `integer_params` must be ints, the others numbers.
    An instance's `params` is that table filled in from its spec, and its
    `_rows` the signaled game's own_payoffs.
    A config with bandit feedback rejects classes with `requires_full_info`.
    A class with `needs_side_signal` gets a side signal before each round's
    act (receive_side_signal) and keeps the last one in `game`.
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

    def __init__(self, params: dict, role: int, prior: Prior, signal: int, rng: Random):
        if role not in (1, 2):
            raise InvalidArgumentError(f"role must be 1 or 2, got {role}")
        if not 0 <= signal < prior.support_size:
            raise InvalidArgumentError(f"signal index {signal} out of range")
        self.params = params
        self.role = role
        self.prior = prior
        self.signal = signal
        self.rng = rng
        self.n_own = prior.n1 if role == 1 else prior.n2
        self.n_opp = prior.n2 if role == 1 else prior.n1
        self._rows = prior.games[signal].own_payoffs(role)

    def act(self) -> MixedStrategy:
        raise NotImplementedError

    def observe(self, fb: FeedbackRecord) -> None:
        pass

    def check_horizon(self, horizon: int) -> None:
        """Raise InvalidArgumentError if the params cannot play `horizon` rounds."""


def learner_init(
    spec: LearnerSpec, role: int, prior: Prior, signal: int, rng: Random
) -> Learner:
    """Instantiate a learner's per-trial state from its canonical spec: a
    mimic_deviation is exactly its base learner initialized with the forced
    signal index."""
    cls, params, forced = canonical_spec(spec)
    return cls(dict(params), role, prior, signal if forced is None else forced, rng)


def payoffs_against(rows, opp) -> list[float]:
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

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        action = self.params["action"]
        if action is None:
            raise InvalidArgumentError("constant_action requires param 'action'")
        self._strategy = pure(self.n_own, action)

    def act(self):
        return self._strategy


@functools.cache
def _emit_step(n: int, bandit: bool, swap: bool):
    """One round of a hedge-family learner with n actions, compiled on first
    use. Hedge (swap False) keeps one row of n log-weights and plays its
    softmax; the Blum-Mansour reduction (swap True) keeps one row per own
    action, row-major, and plays the stationary distribution of the softmax
    rows.

    step(lw, p, g, r) -> (lw, p) for full information adds g * p_e * r (the
    reduction) or g * r (hedge) to each row e of the log-weights lw (only
    read), with p last round's strategy and r its normalised rewards.
    step(lw, p, g, b, x, u, gamma) -> (lw, p, a, pa) for the bandit adds
    g * p_e * x or g * x to entry b of each row instead, x being the
    estimate for the drawn action b, then draws a from (1 - gamma) * p +
    gamma / n with the uniform draw u, as games.sample_index draws from that
    mixture, and returns a's mixture probability pa. A row whose scale is 0
    is not touched, so g = 0.0 means no update.

    The solve is exact, with no iteration and no tolerance:
    Grassmann-Taksar-Heyman elimination (Operations Research 1985), which
    only adds, multiplies and divides non-negative numbers and never reads
    the diagonal. Eliminating state k censors the chain to states 0..k-1;
    s_k is k's mass towards them. Dividing k's row by s_k (rather than the
    column entering k, as GTH is usually written) and rescaling the partial
    p at each step of the back-substitution keep every intermediate in
    [0, 1], so a subnormal s_k cannot overflow. Underflow can also make s_k
    exactly 0: then k is absorbing in the chain censored to 0..k, so p is 0
    below k and follows by back-substitution from p_k = 1. At n = 2 this is
    (q10, q01) / (q01 + q10), and (0, 1) when q10 == 0.

    The code is straight-line on local variables, so every float operation
    is written out in a fixed order: max is a `>` chain, as builtin max is,
    and every sum is a left-to-right `+` chain, as games.add_up is. Every
    entry of the elimination is finite and non-negative, so adding 0.0 * x
    leaves it unchanged and it needs no zero test. The elimination and the n
    back-substitutions sit in one `while True:` block that each exit leaves
    by `break`, so the update and the draw are written once; the code, and
    so the compile time, grows as n^3 (as n for hedge)."""
    if swap:
        lw = [[f"l{i}_{j}" for j in range(n)] for i in range(n)]
    else:
        lw = [[f"l{j}" for j in range(n)]]
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    flat = ", ".join(x for row in lw for x in row)
    ps = ", ".join(f"p{i}" for i in range(n))

    def back_substitution(first: int) -> list[str]:
        # p{first..j} is the stationary distribution of the chain censored to
        # states 0..j.
        lines = [f"p{first} = 1.0"]
        for j in range(first + 1, n):
            lines.append("v = " + " + ".join(f"p{i} * {a[i][j]}" for i in range(first, j)))
            lines += [f"t = s{j} + v", f"c = s{j} / t"]
            lines += [f"p{i} *= c" for i in range(first, j)]
            lines.append(f"p{j} = v / t")
        return lines + [f"p{i} = 0.0" for i in range(first)] + ["break"]

    # Last round's update; the reduction skips the rows that p gave no weight.
    body = [f"({flat},) = lw", "if g:"] + ([f"    ({ps},) = p"] if swap else [])
    if bandit:
        for col in range(n):
            body.append(f"    {'if' if col == 0 else 'elif'} b == {col}:")
            if swap:
                for e in range(n):
                    body += [f"        s = g * p{e}", f"        if s: {lw[e][col]} += s * x"]
            else:
                body.append(f"        {lw[0][col]} += g * x")
    else:
        body.append(f"    ({', '.join(f'r{j}' for j in range(n))},) = r")
        if swap:
            for e in range(n):
                body += [f"    s = g * p{e}", "    if s:"]
                body += [f"        {x} += s * r{j}" for j, x in enumerate(lw[e])]
        else:
            body += [f"    {x} += g * r{j}" for j, x in enumerate(lw[0])]
    # The softmax of each row: exp(l - max l) over its left-to-right sum, for
    # hedge straight into p; the reduction never reads the diagonal.
    for i, row in enumerate(lw):
        body += [f"m = {row[0]}"] + [f"if {x} > m: m = {x}" for x in row[1:]]
        body += [f"e{j} = exp({x} - m)" for j, x in enumerate(row)]
        body.append(f"s = {' + '.join(f'e{j}' for j in range(n))}")
        if swap:
            body += [f"{a[i][j]} = e{j} / s" for j in range(n) if j != i]
        else:
            body += [f"p{j} = e{j} / s" for j in range(n)]
    if swap:
        # Elimination and back-substitution: every exit sets p0..p{n-1}.
        solve = []
        for k in range(n - 1, 0, -1):
            solve += [f"s{k} = {' + '.join(a[k][:k])}", f"if not s{k}:"]
            solve += ["    " + line for line in back_substitution(k)]
            if k > 1:  # at k = 1 the rest of the step writes only the diagonal
                solve += [f"{a[k][j]} /= s{k}" for j in range(k)]
                solve += [f"{a[i][j]} += {a[i][k]} * {a[k][j]}"
                          for i in range(k) for j in range(k) if i != j]
        body += ["while True:"] + ["    " + line for line in solve + back_substitution(0)]
    out = f"({flat},), ({ps},)"
    if bandit:
        # sample_index on (1 - gamma) * p + gamma / n, with u for its draw:
        # the first index whose running sum of positive mixture weights
        # passes u, else the last positive one.
        body += ["keep = 1.0 - gamma", f"spread = gamma / {n}", "acc = 0.0",
                 "a = 0", "pa = keep * p0 + spread", "while True:",
                 "    if pa > 0.0:", "        acc += pa", "        if u < acc: break"]
        for i in range(1, n):
            body += [f"    w = keep * p{i} + spread", "    if w > 0.0:", "        acc += w",
                     f"        a = {i}", "        pa = w", "        if u < acc: break"]
        body.append("    break")
        out += ", a, pa"
    args = "lw, p, g, b, x, u, gamma" if bandit else "lw, p, g, r"
    src = f"def step({args}):\n" + "".join(f"    {line}\n" for line in body + [f"return {out}"])
    namespace = {"exp": math.exp}
    kind = f"{'bandit' if bandit else 'full-information'} {'swap-regret' if swap else 'hedge'}"
    exec(compile(src, f"<{kind} step, n = {n}>", "exec"), namespace)
    return namespace["step"]


class _HedgeCore(Learner):
    """The hedge family: log-weights `_lw` over own actions, one row for
    hedge, or one row per own action for the Blum-Mansour reduction when the
    class sets `swap`. Payoffs are normalised to [0, 1] by the prior's payoff
    range. observe stores last round's update (its scale `_g`) and act runs
    it in the compiled round step `_step` (see _emit_step), which returns the
    log-weights and the strategy `_p`; the round counter t advances last in
    observe."""

    param_defaults = {"eta": None}
    swap = False

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        lo, hi = prior.payoff_range(role)
        self._u_lo = lo
        self._u_scale = 1.0 / (hi - lo) if hi > lo else 1.0
        eta = self.params["eta"]
        if eta is not None and not eta > 0:
            raise InvalidArgumentError(f"eta must be positive, got {eta!r}")
        self._eta_fixed = eta
        n = self.n_own
        self._log_n = math.log(n)
        self.t = 1
        self._lw = (0.0,) * (n * n if self.swap else n)
        self._p = (1.0 / n,) * n
        self._g = 0.0  # the scale of the update act applies next
        self._step = _emit_step(n, self.draws_randomness, self.swap)  # the bandits draw

    def check_horizon(self, horizon):
        # A round adds at most eta times a reward to a log-weight: 1 under full
        # information, and for a bandit's estimate n / gamma, gamma being the
        # exploration rate at the horizon. gamma = 0 bounds no estimate: it is
        # harmless at n = 1 (the one action has probability 1) and under the
        # adaptive step gamma / n, which is then 0.
        eta, top = self._eta_fixed, 1.0
        if self.draws_randomness:
            gamma = self._explore_fixed
            if gamma is None:
                gamma = min(1.0, math.sqrt(self.n_own * self._log_n / horizon))
            if not gamma and eta is not None and self.n_own > 1:
                raise InvalidArgumentError(
                    f"exploration 0 leaves the bandit's estimates unbounded under fixed eta {eta!r}"
                )
            top = self.n_own / gamma if gamma else 0.0
        if eta is not None and math.isinf(eta * top * horizon):
            raise InvalidArgumentError(f"eta {eta!r} overflows the log-weights within {horizon} rounds")


class _FullInfoPlay(_HedgeCore):
    """Full-information play: the rewards are the normalised own payoffs of
    each action against the observed opponent strategy, recomputed only when
    it differs (!=) from the last one seen, and the step size is eta, else
    sqrt(ln n / t)."""

    requires_full_info = True
    _opp = None  # the opponent strategy that _r was computed against

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        self._r = ()

    def act(self):
        self._lw, self._p = self._step(self._lw, self._p, self._g, self._r)
        self._g = 0.0
        return self._p

    def observe(self, fb):
        opp = fb.opponent_strategy
        if opp != self._opp:
            self._opp = opp
            self._r = [(v - self._u_lo) * self._u_scale for v in payoffs_against(self._rows, opp)]
        self._g = self._eta_fixed if self._eta_fixed is not None else math.sqrt(self._log_n / self.t)
        self.t += 1


class _BanditPlay(_HedgeCore):
    """Bandit-feedback play: a one-hot draw, with one rng.random() in the
    round step, from the exploration mixture (1 - gamma) * p + gamma / n,
    gamma_t = min(1, sqrt(n ln n / t)) unless fixed by the `exploration`
    param. Only the drawn action's mixture probability is kept, for the
    importance-weighted estimate of its reward; the step size is eta, else
    gamma / n."""

    param_defaults = {"eta": None, "exploration": None}
    reads_signal = False
    draws_randomness = True

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        explore = self.params["exploration"]
        if explore is not None and not 0.0 <= explore <= 1.0:
            raise InvalidArgumentError(f"exploration must be in [0,1], got {explore!r}")
        self._explore_fixed = explore
        self._played_a = 1.0 / self.n_own  # the drawn action's mixture probability
        self._last_action = 0
        self._onehots = [pure(self.n_own, a) for a in range(self.n_own)]
        self._x = 0.0  # the estimate for _last_action that act applies next

    def act(self):
        gamma = self._explore_fixed
        if gamma is None:
            gamma = math.sqrt(self.n_own * self._log_n / self.t)
            if gamma > 1.0:
                gamma = 1.0
        self._round_gamma = gamma  # read again by observe
        self._lw, self._p, a, self._played_a = self._step(
            self._lw, self._p, self._g, self._last_action, self._x, self.rng.random(), gamma
        )
        self._g = 0.0
        self._last_action = a
        return self._onehots[a]

    def observe(self, fb):
        self._x = (fb.own_utility - self._u_lo) * self._u_scale / self._played_a
        self._g = self._eta_fixed if self._eta_fixed is not None else self._round_gamma / self.n_own
        self.t += 1


class MultiplicativeWeights(_FullInfoPlay):
    """Hedge over own actions; full information."""


class BanditExp3(_BanditPlay):
    """EXP3 (Auer et al., SIAM J. Computing 2002): hedge under bandit
    feedback, on sampled one-hot play and importance-weighted estimates."""


class NoSwapRegretFull(_FullInfoPlay):
    """No swap regret by the Blum-Mansour reduction (JMLR 2007): one hedge
    instance per own action, playing the stationary distribution of the
    experts' recommendations; full information."""

    swap = True


class NoSwapRegretBandit(_BanditPlay):
    """The same reduction under bandit feedback: the stationary distribution
    is the base of the exploration mixture."""

    swap = True


# perturbed_commitment by (game, role, delta), a pure function of them, for
# every trial of the process: epoched-leader trials ask for the same few.
_COMMITMENTS: dict[tuple[GameMatrix, int, float], MixedStrategy] = {}


class _EpochedCommitment(Learner):
    """Doubling-trick scaffolding: within an epoch of horizon T_m the learner
    commits to the perturbed Stackelberg commitment of the game `game` at
    perturbation delta = T_m^(-b). `_epoch` holds one commitment slot per game
    of the prior, filled on the epoch's first act for that game; observe
    starts the next epoch, of twice the horizon, with a new list once round t
    passes T_m."""

    # b in the schedule delta = T_m^(-b), 0 < b < 1-a
    param_defaults = {"b": 0.25, "initial_epoch": 64}
    integer_params = ("initial_epoch",)

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        b = self.params["b"]
        if not 0.0 < b < 1.0:
            raise InvalidArgumentError(f"delta exponent b must be in (0,1), got {b!r}")
        self._b = b
        self.epoch_horizon = self.params["initial_epoch"]
        if self.epoch_horizon < 1:
            raise InvalidArgumentError("initial_epoch must be >= 1")
        self.game = signal
        self._epoch: list[MixedStrategy | None] = [None] * prior.support_size
        self.t = 1

    def act(self):
        s = self._epoch[self.game]
        if s is None:
            key = (self.prior.games[self.game], self.role, self.epoch_horizon ** (-self._b))
            s = _COMMITMENTS.get(key)
            if s is None:
                s = _COMMITMENTS[key] = perturbed_commitment(*key)[0]
            self._epoch[self.game] = s
        return s

    def observe(self, fb):
        self.t += 1
        if self.t > self.epoch_horizon:
            self.epoch_horizon *= 2
            self._epoch = [None] * self.prior.support_size


class StackelbergLeader(_EpochedCommitment):
    """Commits every round to the signaled game's perturbed Stackelberg
    commitment; trusts the signal as the true game. Every round of an epoch
    returns the one commitment object looked up at its start."""


class ExternalSignalLeader(_EpochedCommitment):
    """Commits to the perturbed Stackelberg commitment of the game named by a
    per-round side signal whose accuracy improves as 1 - t^(-decay)."""

    param_defaults = {**_EpochedCommitment.param_defaults, "accuracy_decay": 1.0}
    needs_side_signal = True

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        decay = self.params["accuracy_decay"]
        if not decay > 0:
            raise InvalidArgumentError(f"accuracy_decay must be positive, got {decay!r}")
        self._decay = decay

    def side_signal_accuracy(self, t: int) -> float:
        return 1.0 - t ** (-self._decay)

    def receive_side_signal(self, index: int) -> None:
        self.game = index


class BestResponder(Learner):
    """Per-round best reply (in the signaled game) to the opponent's previous
    strategy; uniform opponent assumed in round 1. Lowest-index tie-break.
    The reply is computed when the opponent's strategy changes (!=)."""

    requires_full_info = True

    def __init__(self, params, role, prior, signal, rng):
        super().__init__(params, role, prior, signal, rng)
        self._last_opp: MixedStrategy | None = None
        self._reply = self._round_one()

    def _reply_to(self, opp: Sequence[float]) -> MixedStrategy:
        values = payoffs_against(self._rows, opp)
        return pure(self.n_own, values.index(max(values)))  # lowest index among ties

    def act(self):
        return self._reply

    def _round_one(self) -> MixedStrategy:
        return self._reply_to([1.0 / self.n_opp] * self.n_opp)

    def observe(self, fb):
        opp = fb.opponent_strategy
        if opp != self._last_opp:
            self._last_opp = opp
            self._reply = self._reply_to(opp)


class RevealThenFollowLeader(BestResponder):
    """Scripted benchmark leader for player 1: round 1 plays the game-indexed
    pure action (signal index mod n1), then best-responds like BestResponder."""

    def __init__(self, params, role, prior, signal, rng):
        if role != 1:
            raise InvalidArgumentError("reveal_then_follow_leader is a player-1 algorithm")
        super().__init__(params, role, prior, signal, rng)

    def _round_one(self):
        return pure(self.n_own, self.signal % self.n_own)


class InferThenCommitFollower(Learner):
    """Scripted benchmark follower for player 2: round 1 plays action 0, then
    commits to the optimistic Stackelberg commitment of the game inferred from
    player 1's round-1 action (argmax action mod support size)."""

    requires_full_info = True
    reads_signal = False

    def __init__(self, params, role, prior, signal, rng):
        if role != 2:
            raise InvalidArgumentError("infer_then_commit_follower is a player-2 algorithm")
        super().__init__(params, role, prior, signal, rng)
        self._strategy = pure(self.n_own, 0)
        self._committed = False

    def act(self):
        return self._strategy

    def observe(self, fb):
        if not self._committed:
            self._committed = True
            opp = fb.opponent_strategy
            inferred = max(range(len(opp)), key=lambda a: opp[a]) % self.prior.support_size
            self._strategy = stackelberg_value(
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
KINDS = (*_CLASSES, "mimic_deviation")


def canonical_spec(spec: LearnerSpec) -> tuple[type, tuple, int | None]:
    """(learner class, params with defaults filled in as sorted (name, value)
    pairs, forced signal or None).

    mimic_deviation resolves to its base plus the forced signal. Learners
    built from specs whose class and params agree here, given the same
    effective signal and random streams, play identically.
    """
    forced = None
    if spec.kind == "mimic_deviation":
        spec, forced = spec.params["base"], spec.params["signal"]
    cls = _CLASSES[spec.kind]
    return cls, tuple(sorted({**cls.param_defaults, **spec.params}.items())), forced


# ---------------------------------------------------------------------------
# Regret meter (a pure function of the cumulative joint mass)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegretReport:
    external_regret: float
    swap_regret: float


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

    external = max(payoffs_against(u, opp_marginal)) - actual

    swap_total = 0.0
    for a in range(own_n):
        values = payoffs_against(u, cond[a])
        current = values[a]
        best_v = current
        for v in values:
            if v > best_v + 1e-15:
                best_v = v
        swap_total += best_v - current
    return RegretReport(external, swap_total)
