"""Stage games, priors, signals, and correlated strategy profiles.

Value types are immutable after construction (tuples everywhere), so they can
be shared freely across concurrent trial workers. Mixed strategies are plain
tuples of floats over one player's actions; utilities are dimensionless payoff
units. Matrix payloads stay in nested tuples rather than array types because
the simulation loop evaluates them entry-wise at tiny sizes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

from .errors import InvalidArgumentError, check_type

# Probability-sum tolerances: strict for priors and mixture weights, looser
# for aggregates accumulated over up to 1e6 rounds.
PROB_TOL = 1e-9
CSP_TOL = 1e-6

MixedStrategy = tuple[float, ...]


def pure(n: int, index: int) -> MixedStrategy:
    """One-hot strategy on `index` out of n actions."""
    if not 0 <= index < n:
        raise InvalidArgumentError(f"action index {index} out of range [0,{n})")
    return tuple(1.0 if a == index else 0.0 for a in range(n))


@dataclass(frozen=True)
class GameMatrix:
    """A bimatrix stage game. Player 1 picks rows, player 2 picks columns."""

    name: str
    u1: tuple[tuple[float, ...], ...]
    u2: tuple[tuple[float, ...], ...]
    action_labels1: tuple[str, ...]
    action_labels2: tuple[str, ...]

    def __post_init__(self):
        n1, n2 = len(self.u1), len(self.u1[0]) if self.u1 else 0
        if n1 == 0 or n2 == 0:
            raise InvalidArgumentError("empty utility matrix")
        for u in (self.u1, self.u2):
            if len(u) != n1 or any(len(row) != n2 for row in u):
                raise InvalidArgumentError("u1 and u2 must share dimensions")
            for row in u:
                for v in row:
                    if not math.isfinite(v):
                        raise InvalidArgumentError(f"non-finite utility {v!r}")
        if len(self.action_labels1) != n1 or len(self.action_labels2) != n2:
            raise InvalidArgumentError("action label counts must match matrix shape")
        for labels in (self.action_labels1, self.action_labels2):
            if len(set(labels)) != len(labels):
                raise InvalidArgumentError(f"repeated action label in {list(labels)!r}")

    @property
    def n1(self) -> int:
        return len(self.u1)

    @property
    def n2(self) -> int:
        return len(self.u1[0])

    def own_payoffs(self, player: int) -> tuple[tuple[float, ...], ...]:
        """rows[own][opp]: `player`'s utility when playing own against opp.

        This is u1 for player 1 and the transpose of u2 for player 2.
        """
        if player == 1:
            return self.u1
        if player == 2:
            return tuple(zip(*self.u2))
        raise InvalidArgumentError(f"player must be 1 or 2, got {player}")

    def payoff_range(self, player: int) -> tuple[float, float]:
        flat = [v for row in self.own_payoffs(player) for v in row]
        return min(flat), max(flat)


def game_matrix(name, u1, u2, action_labels1=None, action_labels2=None) -> GameMatrix:
    """Build a GameMatrix from nested lists, defaulting to A,B,.../C,D,... labels."""
    u1t = tuple(tuple(float(v) for v in row) for row in u1)
    u2t = tuple(tuple(float(v) for v in row) for row in u2)
    n1 = len(u1t)
    n2 = len(u1t[0]) if u1t else 0
    if action_labels1 is None:
        action_labels1 = [chr(ord("A") + i) for i in range(n1)]
    if action_labels2 is None:
        action_labels2 = [chr(ord("A") + n1 + j) for j in range(n2)]
    return GameMatrix(str(name), u1t, u2t, tuple(action_labels1), tuple(action_labels2))


@dataclass(frozen=True)
class Prior:
    """Finite-support distribution over stage games with a common action shape."""

    entries: tuple[tuple[GameMatrix, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidArgumentError("prior must have nonempty support")
        total = 0.0
        g0 = self.entries[0][0]
        for g, w in self.entries:
            if w < -PROB_TOL or not math.isfinite(w):
                raise InvalidArgumentError(f"bad prior weight {w!r}")
            if (g.n1, g.n2) != (g0.n1, g0.n2):
                raise InvalidArgumentError("all supported games must share action-set shape")
            total += w
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidArgumentError(f"prior weights sum to {total!r}, not 1")
        # A weight within PROB_TOL below 0 is stored as 0.0, which every
        # reader takes for a game outside the support.
        entries = tuple((g, 0.0 if w < 0.0 else w) for g, w in self.entries)
        object.__setattr__(self, "entries", entries)

    @property
    def games(self) -> tuple[GameMatrix, ...]:
        return tuple(g for g, _ in self.entries)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.entries)

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def n1(self) -> int:
        return self.entries[0][0].n1

    @property
    def n2(self) -> int:
        return self.entries[0][0].n2

    def mode(self) -> int:
        """Index of the highest-weight game; ties broken toward lower index."""
        best, best_w = 0, self.entries[0][1]
        for i, (_, w) in enumerate(self.entries):
            if w > best_w + PROB_TOL:
                best, best_w = i, w
        return best

    def payoff_range(self, player: int) -> tuple[float, float]:
        """Utility range for `player` across the whole support."""
        lows, highs = zip(*(g.payoff_range(player) for g in self.games))
        return min(lows), max(highs)


def prior_from_games(games: Sequence[GameMatrix], weights: Sequence[float] | None = None) -> Prior:
    if weights is None:
        weights = [1.0 / len(games)] * len(games)
    return Prior(tuple((g, float(w)) for g, w in zip(games, weights)))


@dataclass(frozen=True)
class SignalModel:
    """Independent pre-play signal precisions for the two players."""

    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p1", "p2"):
            p = float(check_type(getattr(self, name), f"config key 'signal_model.{name}'"))
            if not 0.0 <= p <= 1.0:
                raise InvalidArgumentError(f"precision {p!r} outside [0,1]")
            object.__setattr__(self, name, p)


@dataclass(frozen=True)
class CSP:
    """Correlated strategy profile: joint distribution over action pairs."""

    mass: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        total = 0.0
        for row in self.mass:
            for v in row:
                if not math.isfinite(v) or v < -CSP_TOL:
                    raise InvalidArgumentError(f"bad CSP mass {v!r}")
                total += v
        if abs(total - 1.0) > CSP_TOL:
            raise InvalidArgumentError(f"CSP mass sums to {total!r}, not 1")


class FeedbackRecord:
    """Per-round feedback handed to a learner.

    opponent_strategy is present iff the run is in full-information mode.
    """

    __slots__ = ("own_strategy", "opponent_strategy", "own_utility")

    def __init__(self, own_strategy, opponent_strategy, own_utility):
        self.own_strategy = own_strategy
        self.opponent_strategy = opponent_strategy
        self.own_utility = own_utility


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def add_up(values: Iterable[float]) -> float:
    """The sum of values added left to right from 0.0. Builtin sum() of
    floats did this up to Python 3.11 and compensates its rounding from 3.12
    on, so every float sum of stratlab goes through here: the reports are
    then the same to the bit on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


def sample_index(probs: Sequence[float], rng: Random) -> int:
    """Draw an index with probability probs[i], from one rng.random().

    Scans the cumulative sum of the positive entries. When rounding leaves
    the draw past the end of the sum, returns the last index with positive
    probability, so an index of weight zero is never drawn.
    """
    r = rng.random()
    acc = 0.0
    last = 0
    for i, p in enumerate(probs):
        if p > 0.0:
            acc += p
            last = i
            if r < acc:
                return i
    return last


def prior_draw(prior: Prior, rng: Random) -> int:
    """Sample a game index from the prior weights."""
    return sample_index(prior.weights, rng)


def sample_signal(prior: Prior, realized_index: int, precision: float, rng: Random) -> int:
    """Draw a signal index: the realized game w.p. `precision`, else a fresh prior draw."""
    if not 0 <= realized_index < prior.support_size:
        raise InvalidArgumentError(f"realized index {realized_index} out of range")
    if not 0.0 <= precision <= 1.0:
        raise InvalidArgumentError(f"precision {precision!r} outside [0,1]")
    if rng.random() < precision:
        return realized_index
    return prior_draw(prior, rng)


def signal_weights(prior: Prior, realized_index: int, precision: float) -> list[tuple[int, float]]:
    """(j, Pr[signal = j | realized game]) under sample_signal, for every j
    whose weight precision * 1[j = realized] + (1 - precision) * w_j exceeds
    1e-12."""
    out = []
    for j, wj in enumerate(prior.weights):
        w = precision * (1.0 if realized_index == j else 0.0) + (1.0 - precision) * wj
        if w > 1e-12:
            out.append((j, w))
    return out


# ---------------------------------------------------------------------------
# Builtin game families and JSON formats
# ---------------------------------------------------------------------------


def _fig1_game(index: int, gamma: float) -> GameMatrix:
    """Game `index` (1 or 2) of the builtin signal-threshold family; player
    2's payoffs are the same in both."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgumentError(f"gamma must be in (0,1], got {gamma!r}")
    s = 1.0 / gamma
    u1 = [[16.0 * s, 16.0 * s], [2.0, 0.0]] if index == 1 else [[1.0, 0.0], [0.9, 0.1]]
    return game_matrix(f"fig1_g{index}:gamma={gamma:g}", u1, [[1.0, -32.0 * s], [0.0, 2.0]])


def two_game_family_g1(gamma: float = 1.0) -> GameMatrix:
    """First game of the builtin signal-threshold family (ref fig1_g1:gamma=...)."""
    return _fig1_game(1, gamma)


def two_game_family_g2(gamma: float = 1.0) -> GameMatrix:
    """Second game of the builtin signal-threshold family (ref fig1_g2:gamma=...)."""
    return _fig1_game(2, gamma)


def revealing_family_g1() -> GameMatrix:
    """First game of the builtin one-round-revelation family (ref example41_g1)."""
    return game_matrix("example41_g1", [[1.0, -1.0], [0.0, 2.0]], [[1.0, 5.0], [2.0, 5.0]])


def revealing_family_g2() -> GameMatrix:
    """Second game of the builtin one-round-revelation family (ref example41_g2)."""
    return game_matrix("example41_g2", [[1.0, -1.0], [0.0, 2.0]], [[3.0, 0.0], [7.0, 8.0]])


_BUILTIN_GAMES = {
    "fig1_g1": two_game_family_g1,
    "fig1_g2": two_game_family_g2,
    "example41_g1": revealing_family_g1,
    "example41_g2": revealing_family_g2,
}


def _builtin_ref(ref: str, table: dict, what: str) -> tuple[str, dict]:
    """(name, keyword arguments) of a builtin ref "name" or "name:key=value,...",
    whose name must be in table; every error names ref as given."""
    name, _, argpart = ref.partition(":")
    if name not in table:
        raise InvalidArgumentError(f"unknown builtin {what} {ref!r}")
    kwargs = {}
    if argpart:
        for piece in argpart.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise InvalidArgumentError(f"malformed builtin argument {piece!r} in {ref!r}")
            key = key.strip()
            if key in kwargs:
                raise InvalidArgumentError(f"builtin argument {key!r} repeated in {ref!r}")
            try:
                kwargs[key] = float(val)
            except ValueError as e:
                raise InvalidArgumentError(f"bad numeric argument in {ref!r}") from e
    return name, kwargs


def _make_game(name: str, kwargs: dict, ref: str) -> GameMatrix:
    try:
        return _BUILTIN_GAMES[name](**kwargs)
    except TypeError as e:
        raise InvalidArgumentError(f"bad arguments for builtin {ref!r}: {e}") from e


def builtin_game(ref: str) -> GameMatrix:
    """Resolve a builtin game reference like "fig1_g1:gamma=0.5" or "example41_g1"."""
    return _make_game(*_builtin_ref(ref, _BUILTIN_GAMES, "game"), ref)


# Each builtin prior is uniform over two builtin games, which take its arguments.
_BUILTIN_PRIORS = {
    "fig1": ("fig1_g1", "fig1_g2"),
    "example41": ("example41_g1", "example41_g2"),
}


def builtin_prior(ref: str) -> Prior:
    """Resolve a builtin prior reference: "fig1:gamma=<g>" or "example41"."""
    name, kwargs = _builtin_ref(ref, _BUILTIN_PRIORS, "prior")
    return prior_from_games([_make_game(g, kwargs, ref) for g in _BUILTIN_PRIORS[name]])


def game_to_dict(g: GameMatrix) -> dict:
    return {
        "name": g.name,
        "actions1": list(g.action_labels1),
        "actions2": list(g.action_labels2),
        "u1": [list(row) for row in g.u1],
        "u2": [list(row) for row in g.u2],
    }


def game_from_dict(d: dict) -> GameMatrix:
    try:
        for key in ("u1", "u2"):
            for row in d[key]:
                for v in row:
                    check_type(v, f"game {key} entry")
        for key in ("actions1", "actions2"):
            if d.get(key) is not None:
                for label in check_type(d[key], f"game {key}", "list"):
                    check_type(label, f"game {key} label", "string")
        return game_matrix(d["name"], d["u1"], d["u2"], d.get("actions1"), d.get("actions2"))
    except (KeyError, TypeError) as e:
        raise InvalidArgumentError(f"malformed game object: {e}") from e


def prior_to_dict(prior: Prior) -> dict:
    return {"games": [{"weight": w, "game": game_to_dict(g)} for g, w in prior.entries]}


def prior_from_dict(d: dict) -> Prior:
    try:
        entries = []
        for item in d["games"]:
            spec = item["game"]
            g = builtin_game(spec) if isinstance(spec, str) else game_from_dict(spec)
            entries.append((g, float(check_type(item["weight"], "prior weight"))))
    except (KeyError, TypeError) as e:
        raise InvalidArgumentError(f"malformed prior object: {e}") from e
    return Prior(tuple(entries))


def read_json(path: str):
    """The JSON value in the UTF-8 file at path. A file that is not UTF-8,
    not JSON or holds an integer literal too long for int() is an error that
    names the path, as an OSError does."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # also UnicodeDecodeError and JSONDecodeError
        raise InvalidArgumentError(f"cannot read {path!r}: {e}") from e


def load_game(ref_or_path: str) -> GameMatrix:
    """Load a game from a builtin ref or a JSON file path."""
    if ref_or_path.partition(":")[0] in _BUILTIN_GAMES:
        return builtin_game(ref_or_path)
    return game_from_dict(read_json(ref_or_path))


def load_prior(ref_or_path: str) -> Prior:
    """Load a prior from a builtin ref ("fig1:gamma=1", "example41") or a JSON file."""
    if ref_or_path.partition(":")[0] in _BUILTIN_PRIORS:
        return builtin_prior(ref_or_path)
    return prior_from_dict(read_json(ref_or_path))
