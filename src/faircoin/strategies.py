"""Skeptic's betting strategies and the combinators that assemble them.

Every strategy is a small stateful machine: ``next_stake()`` announces the
bet for the coming round from the observed history only, ``observe(x)``
feeds back Reality's move.  Each instance keeps its own account: the
cumulative gain from zero plus the initial endowment it was set up with.
Mixtures split one unit of capital across component accounts; stopped
strategies bet zero forever once their guard trips.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple

from . import pricing
from .game import (ZERO, _mul_lowest, number, parse_moves, settle, settle_product, spec_args,
                   spec_value, validate_move, zero)
from .stopping import boundary_exceeds


class StrategyError(Exception):
    pass


def _size(name: str, v, least: int) -> int:
    """v as an int >= least.  Integers of other types (numpy's) are
    converted; bool and non-integral numbers are refused, though True
    equals 1."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
        raise StrategyError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v)


class Strategy:
    """Base bettor: call next_stake() then observe() once per round.

    The account is the gain ``_k`` plus the initial capital ``_w0``.  An
    exact bettor whose stakes are integers over a ``den`` fixed at
    construction keeps ``_k``, ``_w0`` and ``_stake()`` as integer
    numerators over ``_den``; a Fraction is built only for a value handed
    out.  ``_numerator()`` reads such an account, ``_w0 + _k``, for
    ``reality.worst_case``'s fold; ``wealth`` does not call it, so a check
    can patch one and compare against the other.  ``SignForcing`` keeps
    integer numerators too, over a ``_den`` it re-bases at each hedge, and
    sets ``_numerator`` to None.  An exact bettor built with
    ``product=True`` stakes a ratio of its wealth and keeps the wealth
    itself in ``_k``, a running product, with ``_den`` 0: ``_stake()``
    returns the ratio r, ``next_stake()`` announces r times the wealth,
    and ``observe()`` settles through ``game.settle_product``, bound as
    ``_settle`` when the bettor is built.  Otherwise ``_den`` is None and
    they are numbers of the mode.

    One stake step serves every account and every caller, the game-tree
    walks' ``children()`` included: ``next_stake()`` announces zero while
    ``stopped`` is set, else ``_stake()``, and changes nothing but
    ``_pending``.  ``_stake()``, the stake-return hook, returns the stake
    in account units, or the pair (numerator, value) of an integer account
    that has the value already reduced: ``next_stake()`` pends the
    numerator and hands out the value, with no Fraction built from the
    numerator.  Only ``__init__`` and ``_after`` set ``stopped`` (a
    mixture's once all its components have), and it is permanent: a
    stopped bettor stays stopped and stakes zero every round, so its
    wealth never moves again, and ``reality.worst_case`` settles it as a
    leaf.
    """

    def __init__(self, initial_capital=Fraction(1), exact: bool = True, den: int | None = None,
                 product: bool = False):
        product = exact and product
        self._settle = settle_product if product else settle  # the account's update for one round
        self.exact = exact
        self._w0 = capital = number(initial_capital, exact)
        if product:
            self._den, self._k = 0, capital
        elif exact and den is not None:
            self._den = den = math.lcm(den, capital.denominator)
            self._w0, self._k = capital.numerator * (den // capital.denominator), 0
        else:
            self._den, self._k = None, zero(exact)
        self.n = 0
        self.s = 0
        self.stopped = False
        self._pending = None

    def _value(self, num):
        """An account number as the API hands it out: over _den, if any; a
        product account's numbers are ratios of its wealth."""
        den = self._den
        if den is None:
            return num
        if not num:
            return ZERO
        if not den:  # a product account: num is the ratio r of its wealth W
            w = self._k
            return _mul_lowest(num.numerator, num.denominator, w.numerator, w.denominator)
        return Fraction(num, den) if den > 1 else Fraction(num)  # Fraction(num) takes no gcd

    def _numerator(self):
        """The account over ``_den`` of a bettor that keeps integer numerators."""
        return self._w0 + self._k

    @property
    def initial_capital(self):
        return self._value(self._w0) if self._den else self._w0

    @property
    def gain(self):
        return self._k - self._w0 if self._den == 0 else self._value(self._k)

    @property
    def wealth(self):
        return self._k if self._den == 0 else self._value(self._w0 + self._k)

    def next_stake(self):
        if self._pending is not None:
            raise StrategyError("next_stake() called twice without observe()")
        num = type(self._w0)() if self.stopped else self._stake()  # the account's zero
        if self._den is None:  # a number of the mode, handed out as it is
            self._pending = num
            return num
        if type(num) is tuple:  # a numerator and the value it stands for
            self._pending, value = num
            return value
        self._pending = num  # in account units, for observe() to settle
        return self._value(num)

    def observe(self, x: int) -> None:
        if type(x) is not int or (x != 1 and x != -1):  # two int compares, no tuple search
            x = validate_move(x, StrategyError)
        stake = self._pending
        if stake is not None:  # else a spectator update: a zero stake
            rule = self._settle  # read as an attribute: self._settle(...) is a slower lookup
            self._k = rule(self._k, stake, x)
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

    def children(self) -> tuple[Fraction | float, "Strategy", "Strategy"]:
        """One round of the protocol: (stake, after -1, after +1).

        A clone played one round: ``next_stake()`` once, then ``observe()``
        with each move, so this strategy itself is left untouched.  The
        stake is the value ``next_stake()`` handed out, which settled both.
        """
        down = self.clone()
        stake = down.next_stake()
        up = down.clone()
        down.observe(-1)
        up.observe(1)
        return stake, down, up

    def state_key(self):
        """Hashable full betting state, or None when not re-simulatable
        from a compact key (used to memoize adversarial search).

        A key is valid only within one walk: every node of a walk is a
        clone of one root, so a key may leave out the constants the root
        was built with.
        """
        return None


class MultiplicativeContrarian(Strategy):
    """Bets -c * xbar_{n-1} * wealth; account starts at one unit.

    Wealth is the running product of (1 - c * xbar_{i-1} * x_i), which
    stays strictly positive for 0 < c <= 1/2.  In exact mode the account
    is that product and the stake's ratio -c * xbar_{n-1} is one Fraction;
    float64 keeps the operation order of -c * (s / n) * wealth and an
    additive account.
    """

    def __init__(self, c, exact: bool = True):
        c = Fraction(c)
        if not 0 < c <= Fraction(1, 2):
            raise StrategyError(f"c must be in (0, 1/2], got {c}")
        super().__init__(Fraction(1), exact=exact, product=True)
        self.c = number(c, exact)

    def _stake(self):
        if self.n == 0:
            return zero(self.exact)
        if self.exact:
            c = self.c
            return Fraction(-c.numerator * self.s, c.denominator * self.n)
        return -self.c * (self.s / self.n) * (self._w0 + self._k)

    def state_key(self):
        if self.exact:  # integers hash without the modular inverse a Fraction takes
            w = self._k
            return ("mulc", self.n, self.s, w.numerator, w.denominator)
        return ("mulc", self.c, self.n, self.s, self._k)


class AdditiveContrarian(Strategy):
    """Bets -eps * s_{n-1}, ignoring the collateral duty (unstopped)."""

    def __init__(self, eps, exact: bool = True):
        eps = Fraction(eps)
        if eps <= 0:
            raise StrategyError(f"eps must be > 0, got {eps}")
        super().__init__(Fraction(1), exact=exact, den=eps.denominator)
        self._eps = eps.numerator if exact else float(eps)  # in account units

    def _stake(self):
        return -self._eps * self.s

    def state_key(self):
        return ("addc", self._eps, self.s, self._k)


class StoppedAdditive(AdditiveContrarian):
    """Additive contrarian with the bankruptcy-avoiding stop rule.

    eps must have the form 2/m for a positive integer m, so the guard
    |s_{i-1}| <= sqrt(i + 2/eps) - 1 is the exact integer test
    ``not boundary_exceeds(i, s_{i-1}, m)``.  Once the guard fails at any
    round, all later stakes are zero.
    """

    def __init__(self, eps, exact: bool = True):
        eps = Fraction(eps)
        m = Fraction(2) / eps if eps > 0 else Fraction(0)
        if m < 1 or m.denominator != 1:
            raise StrategyError(f"eps must be 2/m for a positive integer m, got {eps}")
        super().__init__(eps, exact=exact)
        self.m = int(m)

    def _after(self, x: int) -> None:
        # the guard of round i = n + 1 reads s_{i-1} = s
        if not self.stopped and boundary_exceeds(self.n + 1, self.s, self.m):
            self.stopped = True

    def state_key(self):
        return ("stopadd", self.m, self.s, self.stopped, self._k)


class OneSided(Strategy):
    """Bets a constant 1/N toward one side until the level -N (or +N) is hit.

    direction="down": stake +1/N while min s_i > -N, gain s_n/N before the
    hit and -1 ever after.  direction="up" is the mirror image.
    """

    def __init__(self, N: int, direction: str = "down", exact: bool = True):
        N = _size("N", N, 1)
        if direction not in ("down", "up"):
            raise StrategyError(f"direction must be 'down' or 'up', got {direction!r}")
        super().__init__(Fraction(1), exact=exact, den=N)
        self.N = N
        self.direction = direction
        sign = 1 if direction == "down" else -1
        self._unit = sign if exact else sign / N  # in account units

    def _stake(self):
        return self._unit

    def _after(self, x: int) -> None:
        if abs(self.s) >= self.N and self.s * self._unit < 0:  # N steps against the bet
            self.stopped = True

    def state_key(self):
        return ("oneside", self.N, self.direction, self.s, self.stopped, self._k)


class PathBettor(Strategy):
    """Bets the whole account on one target situation realizing.

    The account starts at ``budget`` and doubles on every matched move;
    any mismatch wipes it to zero, after which stakes are zero too.
    """

    def __init__(self, target, budget, exact: bool = True):
        budget = Fraction(budget)
        if budget <= 0:
            raise StrategyError(f"budget must be > 0, got {budget}")
        target = tuple(validate_move(y, StrategyError) for y in target)
        super().__init__(budget, exact=exact, den=budget.denominator)
        self.target = target
        self.stopped = not target

    def _stake(self):
        return self.target[self.n] * (self._w0 + self._k)

    def _after(self, x: int) -> None:
        # past the target, or after a miss wiped the account
        self.stopped = self.n >= len(self.target) or self._w0 + self._k == 0

    def state_key(self):
        return ("pathbet", self.target, self.n, self._k)


class Mixture(Strategy):
    """Weighted mixture of strategies plus an idle-cash tail.

    Each component bets on its own account; the mixture's stake is the
    weighted sum of component stakes, so its gain is exactly the weighted
    sum of component gains.  Weights plus tail must sum to one.  The
    mixture stops once all its components have stopped.
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
        self.stopped = all(s.stopped for _, s in self.components)

    def _stake(self):
        if not self.exact:
            return sum((w * s.next_stake() for w, s in self.components), 0.0)
        stakes = [(w, s.next_stake()) for w, s in self.components]
        if any(type(m) is not Fraction for _, m in stakes):
            return sum((w * m for w, m in stakes), ZERO)
        # the weighted sum over one common denominator, reduced once
        dens = [w.denominator * m.denominator for w, m in stakes]
        den = math.lcm(*dens)
        return Fraction(sum(w.numerator * m.numerator * (den // d)
                            for (w, m), d in zip(stakes, dens)), den)

    def _after(self, x: int) -> None:
        for _, s in self.components:
            s.observe(x)
        self.stopped = all(s.stopped for _, s in self.components)

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
    depth = _size("mixture depth", depth, 1)
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

    The account is integer numerators over ``_den``, re-based at each
    hedged origin return onto D = W_w.denominator * 2**(horizon + 1), W_w
    the wealth there.  The hedge bet at relative round n is
    (up - down) / 2**(horizon - n + 1) with n >= 0, so its reduced
    denominator divides 2**(horizon + 1), and W_w times it has a
    denominator dividing D: every stake of the hedge is an integer over D,
    and each round settles an int.  ``_stake()`` hands out the stake
    W_w * bet, the one Fraction reduced a round, and pends its numerator
    over D.  As ``_den`` moves, ``reality.worst_case`` folds this account
    on ``wealth``, not on numerators.
    """

    _numerator = None  # numerators over different re-bases are not comparable

    def __init__(self, hedge_cap: int = 1024, run_horizon: int | None = None):
        super().__init__(Fraction(1), exact=True, den=1)
        self.hedge_cap = _size("hedge_cap", hedge_cap, 4)
        self.run_horizon = None if run_horizon is None else _size("run_horizon", run_horizon, 0)
        self.excursion_log: list[ExcursionOutcome] = []
        self._w = None  # the round the current excursion began; None while waiting for it
        self._w_wealth = None
        self._table = None  # the running hedge's value table; None bets nothing

    def _stake(self):
        if self._table is None:  # the account's zero, handed out as a Fraction
            return 0, ZERO
        rel = self.n - self._w
        w, bet = self._w_wealth, pricing.delta_hedge_bet(self._table, rel, self.s)
        value = _mul_lowest(w.numerator, w.denominator, bet.numerator, bet.denominator)
        scale, rest = divmod(self._den, value.denominator)
        if rest:  # never truncate a stake: see the class docstring
            raise StrategyError(f"stake {value} is not an integer over the account's {self._den}")
        return value.numerator * scale, value

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
        self._w_wealth = wealth = self.wealth
        if horizon >= 2 * w:
            self._table = pricing.eta_table(w, horizon, "half")
            # re-base: the initial capital 1 and the wealth over D
            self._den = self._w0 = den = wealth.denominator << (horizon + 1)
            self._k = (wealth.numerator << (horizon + 1)) - den

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
    ``game.parse_moves`` (e.g. "+1-1" or "+-").
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
        target = parse_moves(arg("target"))
        return PathBettor(target, arg("budget", Fraction), exact=exact)
    if head == "signforce":
        return SignForcing(hedge_cap=spec_args(rest, StrategyError, "cap")("cap", int, 1024))
    if head == "q":
        return truncated_q(spec_args(rest, StrategyError, "depth")("depth", int, 20), exact=exact)
    if head == "mix":
        if not (rest.startswith("[") and rest.endswith("]")):
            raise StrategyError(f"mixture spec needs [...], got {spec!r}")
        comps, tails = [], []
        for part in rest[1:-1].split(";"):
            part = part.strip()
            if not part:
                continue
            if "@" in part:
                w, _, sub = part.partition("@")
                comps.append((spec_value("a mixture weight", w, Fraction, StrategyError),
                              parse_strategy(sub, exact=exact)))
            else:
                tails.append(spec_value("the mixture tail", part, Fraction, StrategyError))
        if len(tails) > 1:
            raise StrategyError(f"a mixture takes one tail weight, got {len(tails)} in {spec!r}")
        return Mixture(comps, tail_weight=sum(tails), exact=exact)
    raise StrategyError(f"unknown strategy spec {spec!r}")


class ZeroStrategy(Strategy):
    """Never bets; useful as a mixture filler and in tests."""

    def __init__(self, exact: bool = True):
        super().__init__(Fraction(1), exact=exact, den=1)
        self.stopped = True

    def state_key(self):
        return ("zero",)
