"""Reality move sources: fixed paths, seeded coins, and adversaries.

Reality moves after seeing Skeptic's stake, so adversarial sources here
are information-superior: the greedy source flips the sign of the stake,
and the minimax source searches the full game tree once for the move
sequence minimizing Skeptic's final wealth, given the strategy's declared
(clonable, deterministic) response function.
"""

from __future__ import annotations

import random
from operator import attrgetter

from .game import parse_moves, spec_args, validate_move, walk_tree


class RealityError(Exception):
    pass


class RealitySource:
    def next_move(self, stake) -> int:
        raise NotImplementedError


class FixedPath(RealitySource):
    """Replays a given move sequence; errors past its end."""

    def __init__(self, moves):
        self.moves = tuple(validate_move(x, RealityError) for x in moves)
        self._i = 0

    def next_move(self, stake) -> int:
        if self._i >= len(self.moves):
            raise RealityError(f"fixed path exhausted after {len(self.moves)} moves")
        x = self.moves[self._i]
        self._i += 1
        return x


class Alternating(RealitySource):
    """Emits +1, -1, +1, ..."""

    def __init__(self):
        self._i = 0

    def next_move(self, stake) -> int:
        self._i += 1
        return 1 if self._i % 2 else -1


class IIDCoin(RealitySource):
    """Seeded fair coin; bit-for-bit reproducible for a fixed seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next_move(self, stake) -> int:
        return 2 * self._rng.getrandbits(1) - 1


def iid_path(seed: int, n: int) -> list[int]:
    """The first n moves an IIDCoin(seed) would produce."""
    rng = random.Random(seed)
    return [2 * rng.getrandbits(1) - 1 for _ in range(n)]


class Greedy(RealitySource):
    """Plays -sign(stake), so Skeptic's single-round gain is never positive."""

    def __init__(self, tie: int = -1):
        self.tie = validate_move(tie, RealityError)

    def next_move(self, stake) -> int:
        if stake > 0:
            return -1
        if stake < 0:
            return 1
        return self.tie


class WorstCase(tuple):
    """The pair (value, path) that ``worst_case`` returns, with its walk's
    counts as ``verify.IdentityReport`` names them: ``nodes_expanded`` and
    ``memo_hits``."""

    def __new__(cls, value, path: tuple[int, ...], nodes_expanded: int, memo_hits: int):
        self = super().__new__(cls, (value, path))
        self.nodes_expanded, self.memo_hits = nodes_expanded, memo_hits
        return self


def worst_case(strategy, rounds: int, objective: str = "final") -> WorstCase:
    """Exhaustive adversarial value of a strategy over ``rounds`` moves.

    Returns (value, path) minimizing Skeptic's final wealth
    (objective="final") or the running minimum of wealth over the play-out
    (objective="running_min"), as a ``WorstCase`` that also carries the
    search's counts.  The strategy instance is not mutated.  The search is
    a ``walk_tree`` fold keyed on the strategy's state_key; ties prefer the
    -1 move.  Every node is a clone of the root, so an account of integer
    numerators over a ``_den`` fixed when it was built is folded on
    ``_numerator()`` and its value built once, at the end, as ``wealth``
    builds it.  Other accounts fold on ``wealth``, and so does one whose
    ``_den`` moves as it plays, which sets ``_numerator`` to None.

    A stopped bettor bets nothing more (``Strategy.stopped`` is permanent),
    so a stopped child is settled as a leaf is: its value is its wealth now,
    its path the moves of -1 that ties pick, and it is not expanded.  The
    counts cover only the nodes expanded.  ``walk_tree`` refuses a depth
    over its state budget before the root is expanded.
    """
    if rounds < 0:
        raise RealityError(f"minimax depth must be >= 0, got {rounds}")
    if objective not in ("final", "running_min"):
        raise RealityError(f"unknown objective {objective!r}")
    if rounds == 0:
        return WorstCase(strategy.wealth, (), 0, 0)
    numerator = strategy._den and type(strategy)._numerator  # falsy unless its fold is sound
    account = numerator or attrgetter("wealth")

    # a path is a linked list of (move, rest) cells, None at its end, so a
    # memo entry shares its child's cells instead of copying them; a path
    # that ends before the last round ends at a stopped child, and the
    # moves left are -1
    def expand(strat, n):
        best = best_path = None
        _, down, up = strat.children()
        for x, nxt in ((-1, down), (1, up)):
            wealth = account(nxt)
            val, path = (wealth, None) if nxt.stopped or n + 1 == rounds else (yield nxt)
            if objective == "running_min":
                val = min(val, wealth)
            if best is None or val < best:
                best, best_path = val, (x, path)
        return best, best_path

    (value, cell), expanded, hits = walk_tree(
        strategy, rounds, expand, lambda strat: strat.state_key(), RealityError, "minimax")
    path = []
    while cell is not None:
        x, cell = cell
        path.append(x)
    path += [-1] * (rounds - len(path))
    if numerator:
        value = strategy._value(value)
    return WorstCase(value, tuple(path), expanded, hits)


class Minimax(RealitySource):
    """Adversary that plays the worst path of the strategy's game tree.

    It searches once, at the first move, on its own copy of the strategy
    (``mirror``), then plays that path back.  The mirror is kept in
    lockstep with the play, and each announced stake is checked against
    it, so the searched opponent really is the strategy being played.
    ``search`` is that search's ``WorstCase``, counts included, from the
    first move on.
    """

    def __init__(self, strategy_factory, horizon: int):
        self.horizon = horizon
        self.mirror = strategy_factory()
        self.search = None

    def next_move(self, stake) -> int:
        n = self.mirror.n  # the rounds played so far
        if n >= self.horizon:
            raise RealityError(f"minimax asked for move {n + 1} past its horizon {self.horizon}")
        if self.search is None:
            self.search = worst_case(self.mirror, self.horizon)
        expected = self.mirror.next_stake()
        if expected != stake:
            raise RealityError(
                f"minimax mirror desynchronized: strategy bet {stake}, mirror {expected}")
        x = self.search[1][n]
        self.mirror.observe(x)
        return x


def parse_reality(spec: str, strategy_factory=None, horizon: int | None = None) -> RealitySource:
    """Build a reality source from a spec string.

    Grammar: ``fixed:+1-1+1`` (or ``fixed:+-+``), ``iid:seed=<int>``,
    ``alt``, ``greedy[:tie=-1|+1]``, ``minimax:depth=<int>`` (requires the
    strategy so the adversary can re-simulate it).
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "fixed":
        return FixedPath(parse_moves(rest))
    if head == "alt":
        spec_args(rest, RealityError)
        return Alternating()
    if head == "iid":
        return IIDCoin(spec_args(rest, RealityError, "seed")("seed", int))
    if head == "greedy":
        return Greedy(tie=spec_args(rest, RealityError, "tie")("tie", int, -1))
    if head == "minimax":
        if strategy_factory is None:
            raise RealityError("minimax reality needs the strategy to re-simulate")
        depth = spec_args(rest, RealityError, "depth")("depth", int)
        if depth < 0:
            raise RealityError(f"minimax depth must be >= 0, got {depth}")
        if horizon is not None and horizon > depth:
            raise RealityError(f"horizon {horizon} exceeds the minimax depth {depth}")
        return Minimax(strategy_factory, depth if horizon is None else horizon)
    raise RealityError(f"unknown reality spec {spec!r}")
