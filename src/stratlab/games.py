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
from typing import Sequence

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

    @property
    def n1(self) -> int:
        return len(self.u1)

    @property
    def n2(self) -> int:
        return len(self.u1[0])

    def utilities(self, player: int) -> tuple[tuple[float, ...], ...]:
        if player == 1:
            return self.u1
        if player == 2:
            return self.u2
        raise InvalidArgumentError(f"player must be 1 or 2, got {player}")

    def own_payoffs(self, player: int) -> tuple[tuple[float, ...], ...]:
        """rows[own][opp]: `player`'s utility when playing own against opp.

        This is u1 for player 1 and the transpose of u2 for player 2.
        """
        if player == 2:
            return tuple(zip(*self.u2))
        return self.utilities(player)

    def payoff_range(self, player: int) -> tuple[float, float]:
        u = self.utilities(player)
        flat = [v for row in u for v in row]
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
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise InvalidArgumentError(f"precision {p!r} outside [0,1]")

    def precision(self, player: int) -> float:
        return self.p1 if player == 1 else self.p2


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

    @property
    def n1(self) -> int:
        return len(self.mass)

    @property
    def n2(self) -> int:
        return len(self.mass[0])


class FeedbackRecord:
    """Per-round feedback handed to a learner.

    opponent_strategy is present iff the run is in full-information mode.
    """

    __slots__ = ("own_strategy", "opponent_strategy", "own_utility")

    def __init__(self, own_strategy, opponent_strategy, own_utility):
        self.own_strategy = own_strategy
        self.opponent_strategy = opponent_strategy
        self.own_utility = own_utility

    def __repr__(self):
        return (
            f"FeedbackRecord(own={self.own_strategy}, "
            f"opp={self.opponent_strategy}, u={self.own_utility})"
        )


# ---------------------------------------------------------------------------
# Sampling and mixing
# ---------------------------------------------------------------------------


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


def mix_csps(parts: Sequence[tuple[float, CSP]]) -> CSP:
    """Convex combination of CSPs; weights must sum to 1 within 1e-9."""
    if not parts:
        raise InvalidArgumentError("no CSPs to mix")
    total_w = sum(w for w, _ in parts)
    if abs(total_w - 1.0) > PROB_TOL:
        raise InvalidArgumentError(f"mixture weights sum to {total_w!r}, not 1")
    n1, n2 = parts[0][1].n1, parts[0][1].n2
    for _, c in parts:
        if (c.n1, c.n2) != (n1, n2):
            raise InvalidArgumentError("CSP shapes differ")
    mass = [[0.0] * n2 for _ in range(n1)]
    for w, c in parts:
        for a in range(n1):
            row = c.mass[a]
            out = mass[a]
            for b in range(n2):
                out[b] += w * row[b]
    return CSP(tuple(tuple(row) for row in mass))


# ---------------------------------------------------------------------------
# Builtin game families and JSON formats
# ---------------------------------------------------------------------------


def two_game_family_g1(gamma: float = 1.0) -> GameMatrix:
    """First game of the builtin signal-threshold family (ref fig1_g1:gamma=...)."""
    _check_gamma(gamma)
    s = 1.0 / gamma
    return game_matrix(
        f"fig1_g1:gamma={gamma:g}",
        [[16.0 * s, 16.0 * s], [2.0, 0.0]],
        [[1.0, -32.0 * s], [0.0, 2.0]],
        ["A", "B"],
        ["C", "D"],
    )


def two_game_family_g2(gamma: float = 1.0) -> GameMatrix:
    """Second game of the builtin signal-threshold family (ref fig1_g2:gamma=...)."""
    _check_gamma(gamma)
    s = 1.0 / gamma
    return game_matrix(
        f"fig1_g2:gamma={gamma:g}",
        [[1.0, 0.0], [0.9, 0.1]],
        [[1.0, -32.0 * s], [0.0, 2.0]],
        ["A", "B"],
        ["C", "D"],
    )


def revealing_family_g1() -> GameMatrix:
    """First game of the builtin one-round-revelation family (ref example41_g1)."""
    return game_matrix(
        "example41_g1",
        [[1.0, -1.0], [0.0, 2.0]],
        [[1.0, 5.0], [2.0, 5.0]],
        ["A", "B"],
        ["C", "D"],
    )


def revealing_family_g2() -> GameMatrix:
    """Second game of the builtin one-round-revelation family (ref example41_g2)."""
    return game_matrix(
        "example41_g2",
        [[1.0, -1.0], [0.0, 2.0]],
        [[3.0, 0.0], [7.0, 8.0]],
        ["A", "B"],
        ["C", "D"],
    )


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgumentError(f"gamma must be in (0,1], got {gamma!r}")


_BUILTIN_GAMES = {
    "fig1_g1": two_game_family_g1,
    "fig1_g2": two_game_family_g2,
    "example41_g1": revealing_family_g1,
    "example41_g2": revealing_family_g2,
}


def builtin_game(ref: str) -> GameMatrix:
    """Resolve a builtin game reference like "fig1_g1:gamma=0.5" or "example41_g1"."""
    name, _, argpart = ref.partition(":")
    if name not in _BUILTIN_GAMES:
        raise InvalidArgumentError(f"unknown builtin game {ref!r}")
    kwargs = {}
    if argpart:
        for piece in argpart.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise InvalidArgumentError(f"malformed builtin argument {piece!r} in {ref!r}")
            try:
                kwargs[key.strip()] = float(val)
            except ValueError as e:
                raise InvalidArgumentError(f"bad numeric argument in {ref!r}") from e
    try:
        return _BUILTIN_GAMES[name](**kwargs)
    except TypeError as e:
        raise InvalidArgumentError(f"bad arguments for builtin {ref!r}: {e}") from e


def builtin_prior(ref: str) -> Prior:
    """Resolve a builtin prior reference: "fig1:gamma=<g>" or "example41" (uniform pairs)."""
    name, _, argpart = ref.partition(":")
    suffix = f":{argpart}" if argpart else ""
    if name == "fig1":
        return prior_from_games([builtin_game(f"fig1_g1{suffix}"), builtin_game(f"fig1_g2{suffix}")])
    if name == "example41":
        return prior_from_games([builtin_game("example41_g1"), builtin_game("example41_g2")])
    raise InvalidArgumentError(f"unknown builtin prior {ref!r}")


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


def load_game(ref_or_path: str) -> GameMatrix:
    """Load a game from a builtin ref or a JSON file path."""
    if ref_or_path.partition(":")[0] in _BUILTIN_GAMES:
        return builtin_game(ref_or_path)
    with open(ref_or_path) as f:
        return game_from_dict(json.load(f))


def load_prior(ref_or_path: str) -> Prior:
    """Load a prior from a builtin ref ("fig1:gamma=1", "example41") or a JSON file."""
    if ref_or_path.partition(":")[0] in ("fig1", "example41"):
        return builtin_prior(ref_or_path)
    with open(ref_or_path) as f:
        return prior_from_dict(json.load(f))
