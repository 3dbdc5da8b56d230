"""Skeptic's betting strategies and the combinators that assemble them.

Every strategy is a small stateful machine: ``next_stake()`` announces the
bet for the coming round from the observed history only, ``observe(x)``
feeds back Reality's move.  Each instance keeps its own account: the
cumulative gain from zero plus the initial endowment it was set up with.
Mixtures split one unit of capital across component accounts; stopped
strategies bet zero forever once their guard trips.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import pricing
from .game import (ZERO, Situation, number, ratio, settle, spec_args, spec_value,
                   validate_move, zero)
from .stopping import boundary_exceeds


class StrategyError(Exception):
    pass


class Strategy:
    """Base bettor: call next_stake() then observe() once per round."""

    def __init__(self, initial_capital=Fraction(1), exact: bool = True):
        self.exact = exact
        self.initial_capital = number(initial_capital, exact)
        self.gain = zero(exact)
        self.n = 0
        self.s = 0
        self.stopped = False
        self._pending = None

    @property
    def wealth(self):
        return self.initial_capital + self.gain

    def next_stake(self):
        if self._pending is not None:
            raise StrategyError("next_stake() called twice without observe()")
        stake = zero(self.exact) if self.stopped else self._stake()
        self._pending = stake
        return stake

    def observe(self, x: int) -> None:
        if type(x) is not int or x not in (-1, 1):
            x = validate_move(x, StrategyError)
        if self._pending is not None:  # else a spectator update: a zero stake
            self.gain = settle(self.gain, self._pending, x)
            self._pending = None
        self.n += 1
        self.s += x
        self._after(x)

    def _stake(self):
        raise NotImplementedError

    def _after(self, x: int) -> None:
        pass

    def clone(self) -> "Strategy":
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def children(self) -> tuple["Strategy", "Strategy"]:
        """The two strategies one round on: (after -1, after +1).

        The stake is announced once, on a clone, so this strategy itself
        is left untouched, stop flag included.
        """
        down = self.clone()
        down.next_stake()
        up = down.clone()
        down.observe(-1)
        up.observe(1)
        return down, up

    def state_key(self):
        """Hashable full betting state, or None when not re-simulatable
        from a compact key (used to memoize adversarial search)."""
        return None


class MultiplicativeContrarian(Strategy):
    """Bets -c * xbar_{n-1} * wealth; account starts at one unit.

    Wealth is the running product of (1 - c * xbar_{i-1} * x_i), which
    stays strictly positive for 0 < c <= 1/2.
    """

    def __init__(self, c, exact: bool = True):
        c = Fraction(c)
        if not 0 < c <= Fraction(1, 2):
            raise StrategyError(f"c must be in (0, 1/2], got {c}")
        super().__init__(Fraction(1), exact=exact)
        self.c = number(c, exact)

    def _stake(self):
        if self.n == 0:
            return zero(self.exact)
        xbar = ratio(self.s, self.n, self.exact)
        return -self.c * xbar * self.wealth

    def state_key(self):
        return ("mulc", self.c, self.n, self.s, self.gain)


class AdditiveContrarian(Strategy):
    """Bets -eps * s_{n-1}, ignoring the collateral duty (unstopped)."""

    def __init__(self, eps, exact: bool = True):
        eps = Fraction(eps)
        if eps <= 0:
            raise StrategyError(f"eps must be > 0, got {eps}")
        super().__init__(Fraction(1), exact=exact)
        self.eps = number(eps, exact)

    def _stake(self):
        return -self.eps * self.s

    def state_key(self):
        return ("addc", self.eps, self.s, self.gain)


class StoppedAdditive(Strategy):
    """Additive contrarian with the bankruptcy-avoiding stop rule.

    eps must have the form 2/m for a positive integer m, so the guard
    |s_{i-1}| <= sqrt(i + 2/eps) - 1 is the exact integer test
    (|s_{i-1}| + 1)^2 <= i + m.  Once the guard fails at any round, all
    later stakes are zero.
    """

    def __init__(self, eps, exact: bool = True):
        eps = Fraction(eps)
        m = Fraction(2) / eps if eps > 0 else Fraction(0)
        if m < 1 or m.denominator != 1:
            raise StrategyError(f"eps must be 2/m for a positive integer m, got {eps}")
        super().__init__(Fraction(1), exact=exact)
        self.m = int(m)
        self.eps = number(eps, exact)

    def _stake(self):
        i = self.n + 1
        if (abs(self.s) + 1) ** 2 > i + self.m:
            self.stopped = True
            return zero(self.exact)
        return -self.eps * self.s

    def state_key(self):
        return ("stopadd", self.m, self.s, self.stopped, self.gain)


class OneSided(Strategy):
    """Bets a constant 1/N toward one side until the level -N (or +N) is hit.

    direction="down": stake +1/N while min s_i > -N, gain s_n/N before the
    hit and -1 ever after.  direction="up" is the mirror image.
    """

    def __init__(self, N: int, direction: str = "down", exact: bool = True):
        if not (isinstance(N, int) and N >= 1):
            raise StrategyError(f"N must be a positive integer, got {N!r}")
        if direction not in ("down", "up"):
            raise StrategyError(f"direction must be 'down' or 'up', got {direction!r}")
        super().__init__(Fraction(1), exact=exact)
        self.N = N
        self.direction = direction
        self._unit = ratio(1 if direction == "down" else -1, N, exact)

    def _stake(self):
        return self._unit

    def _after(self, x: int) -> None:
        if not self.stopped:
            if self.direction == "down" and self.s <= -self.N:
                self.stopped = True
            elif self.direction == "up" and self.s >= self.N:
                self.stopped = True

    def state_key(self):
        return ("oneside", self.N, self.direction, self.s, self.stopped, self.gain)


class PathBettor(Strategy):
    """Bets the whole account on one target situation realizing.

    The account starts at ``budget`` and doubles on every matched move;
    any mismatch wipes it to zero, after which stakes are zero too.
    """

    def __init__(self, target, budget, exact: bool = True):
        budget = Fraction(budget)
        if budget <= 0:
            raise StrategyError(f"budget must be > 0, got {budget}")
        target = tuple(target)
        for y in target:
            if y not in (-1, 1):
                raise StrategyError(f"target moves must be +-1, got {y!r}")
        super().__init__(budget, exact=exact)
        self.target = target

    def _stake(self):
        if self.n >= len(self.target):
            return zero(self.exact)
        return self.target[self.n] * self.wealth

    def state_key(self):
        return ("pathbet", self.target, self.n, self.gain)


class Mixture(Strategy):
    """Weighted mixture of strategies plus an idle-cash tail.

    Each component bets on its own account; the mixture's stake is the
    weighted sum of component stakes, so its gain is exactly the weighted
    sum of component gains.  Weights plus tail must sum to one.
    """

    def __init__(self, components, tail_weight=Fraction(0), exact: bool = True):
        components = [(Fraction(w), strat) for w, strat in components]
        tail_weight = Fraction(tail_weight)
        if any(w <= 0 for w, _ in components):
            raise StrategyError("component weights must be > 0")
        if tail_weight < 0:
            raise StrategyError("tail weight must be >= 0")
        total = sum(w for w, _ in components) + tail_weight
        if total != 1:
            raise StrategyError(f"weights plus tail must sum to 1, got {total}")
        initial = sum((w * s.initial_capital for w, s in components), tail_weight)
        super().__init__(initial, exact=exact)
        self.components = [(number(w, exact), s) for w, s in components]
        self.tail_weight = number(tail_weight, exact)

    def _stake(self):
        return sum((w * s.next_stake() for w, s in self.components), zero(self.exact))

    def _after(self, x: int) -> None:
        for _, s in self.components:
            s.observe(x)

    def component_gain(self):
        return sum((w * s.gain for w, s in self.components), zero(self.exact))

    def clone(self) -> "Mixture":
        new = super().clone()
        new.components = [(w, s.clone()) for w, s in self.components]
        return new

    def state_key(self):
        keys = tuple(s.state_key() for _, s in self.components)
        return None if any(k is None for k in keys) else ("mix", keys)


def truncated_q(depth: int = 20, exact: bool = True) -> Mixture:
    """Finite truncation of the 2^-i mixture of multiplicative contrarians.

    Components c = 1/2^i with weight 2^-i for i = 1..depth; the residual
    2^-depth is held as idle cash so the truncation is itself a legal
    strategy.
    """
    if depth < 1:
        raise StrategyError("mixture depth must be >= 1")
    comps = [(Fraction(1, 1 << i), MultiplicativeContrarian(Fraction(1, 1 << i), exact=exact))
             for i in range(1, depth + 1)]
    return Mixture(comps, tail_weight=Fraction(1, 1 << depth), exact=exact)


class ExcursionOutcome(NamedTuple):
    """Record of one excursion the sign-forcing bettor saw end."""

    w: int
    v: int
    side: int               # +1 / -1, the side of the boundary hit at v
    multiplier: Fraction
    hedged: bool            # True when the hedge ran to absorption


class SignForcing(Strategy):
    """Buys half-capital boundary tickets at every origin return.

    At each return to the origin (round w) the bettor starts the
    delta-hedge replication of the offset-w boundary ticket, sized at half
    the current wealth, using the symmetric-tail value table whose root is
    exactly 1/2.  At absorption the wealth is exactly 3/2 (negative side)
    or 1/2 (positive side) of the wealth at w.

    Hedging a ticket exactly needs a value table reaching the absorption
    round; tables are built with a causal per-excursion horizon
    min(hedge_cap, max(64, 8 * w), rounds remaining), and an excursion is
    attempted only when that horizon is at least 2 * w.  Excursions that
    outlive their table, or start too late to attempt, are carried without
    bets and recorded as unhedged.
    """

    def __init__(self, hedge_cap: int = 1024, run_horizon: int | None = None):
        super().__init__(Fraction(1), exact=True)
        if hedge_cap < 4:
            raise StrategyError("hedge_cap must be >= 4")
        self.hedge_cap = hedge_cap
        self.run_horizon = run_horizon
        self.excursion_log: list[ExcursionOutcome] = []
        self._w = None  # the round the current excursion began; None while waiting for it
        self._w_wealth = None
        self._table = None  # the running hedge's value table; None bets nothing

    def _stake(self):
        if self._table is None:
            return ZERO
        rel = self.n - self._w
        return self._w_wealth * pricing.delta_hedge_bet(self._table, rel, self.s)

    def _after(self, x: int) -> None:
        if self._w is None:
            if self.s == 0:
                self._start_excursion()
        elif boundary_exceeds(self.n, self.s):
            self.excursion_log.append(ExcursionOutcome(
                w=self._w, v=self.n, side=1 if self.s > 0 else -1,
                multiplier=self.wealth / self._w_wealth, hedged=self._table is not None))
            self._w = None
            self._table = None
        elif self._table is not None and self.n - self._w >= self._table.horizon:
            self._table = None

    def _start_excursion(self) -> None:
        w = self.n
        horizon = min(self.hedge_cap, max(64, 8 * w))
        if self.run_horizon is not None:
            horizon = min(horizon, self.run_horizon - w)
        self._w = w
        self._w_wealth = self.wealth
        if horizon >= 2 * w:
            self._table = pricing.eta_table(w, horizon, "half")

    def clone(self) -> "SignForcing":
        new = super().clone()
        new.excursion_log = list(self.excursion_log)
        return new  # the eta table is immutable and safely shared


# ---------------------------------------------------------------------------
# strategy spec mini-language (CLI)
# ---------------------------------------------------------------------------

def parse_strategy(spec: str, exact: bool = True) -> Strategy:
    """Build a strategy from a compact spec string.

    Grammar::

        mulc:c=<rat>                  multiplicative contrarian
        addc:eps=<rat>                additive contrarian, unstopped
        stopadd:eps=2/<m>             additive contrarian with stop rule
        oneside:N=<int>,dir=down|up   one-sided bettor
        pathbet:target=<moves>,budget=<rat>
        signforce[:cap=<int>]         excursion ticket bettor
        q[:depth=<int>]               truncated 2^-i contrarian mixture
        zero                          never bets
        mix:[<w>@<spec>;...;<tail>]   weighted mixture, ';'-separated,
                                      optional trailing bare tail weight

    Rationals parse as "num/den" or plain integers; move strings as in
    ``Situation.from_string`` (e.g. "+1-1" or "+-").
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "zero":
        spec_args(rest, StrategyError)
        return ZeroStrategy(exact=exact)
    if head == "mulc":
        return MultiplicativeContrarian(spec_args(rest, StrategyError, "c")("c", Fraction),
                                        exact=exact)
    if head == "addc":
        return AdditiveContrarian(spec_args(rest, StrategyError, "eps")("eps", Fraction),
                                  exact=exact)
    if head == "stopadd":
        return StoppedAdditive(spec_args(rest, StrategyError, "eps")("eps", Fraction), exact=exact)
    if head == "oneside":
        arg = spec_args(rest, StrategyError, "N", "dir")
        return OneSided(arg("N", int), arg("dir", default="down"), exact=exact)
    if head == "pathbet":
        arg = spec_args(rest, StrategyError, "target", "budget")
        target = Situation.from_string(arg("target")).moves
        return PathBettor(target, arg("budget", Fraction), exact=exact)
    if head == "signforce":
        return SignForcing(hedge_cap=spec_args(rest, StrategyError, "cap")("cap", int, 1024))
    if head == "q":
        return truncated_q(spec_args(rest, StrategyError, "depth")("depth", int, 20), exact=exact)
    if head == "mix":
        if not (rest.startswith("[") and rest.endswith("]")):
            raise StrategyError(f"mixture spec needs [...], got {spec!r}")
        comps = []
        tail = Fraction(0)
        for part in rest[1:-1].split(";"):
            part = part.strip()
            if not part:
                continue
            if "@" in part:
                w, _, sub = part.partition("@")
                comps.append((spec_value("a mixture weight", w, Fraction, StrategyError),
                              parse_strategy(sub, exact=exact)))
            else:
                tail = spec_value("the mixture tail", part, Fraction, StrategyError)
        return Mixture(comps, tail_weight=tail, exact=exact)
    raise StrategyError(f"unknown strategy spec {spec!r}")


class ZeroStrategy(Strategy):
    """Never bets; useful as a mixture filler and in tests."""

    def _stake(self):
        return zero(self.exact)

    def state_key(self):
        return ("zero",)
