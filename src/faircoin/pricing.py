"""Exact pricing and replication of boundary-hitting tickets.

The ticket with offset l pays 1 when the walk first satisfies
|s_n| > sqrt(n + l) - 1 with s_n < 0, pays 0 when it first does so with
s_n > 0.  The claim is Markov in (n, s), and all the work here is over the
live strip: the states reachable from the root through unabsorbed states,
with (|s| + 1)^2 <= n + l.  At round n the live sums form one parity class,
s = -w_n, -w_n + 2, ..., w_n, so the strip is the list of half-widths w_n,
found with one ``isqrt`` per level (``_strip_widths``).  Value tables are
built by backward induction over the strip and absorption statistics by
one forward sweep (``_absorption_sweep``).  All values are dyadic
rationals, stored as integer numerators against a per-level power-of-two
scale, so nothing is ever rounded.

Infinite-horizon upper prices are represented as brackets: the backward
induction is run once with tail value 0 and once with tail value 1 at the
truncation horizon; the true price lies between the two roots, and the gap
is exactly the still-live probability mass at the horizon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .stopping import boundary_exceeds

TAIL_VALUES = ("zero", "one", "half")


class PricingError(Exception):
    pass


def _absorbed_payoff(s: int, payoff_side: str) -> int:
    # the hitting sum is never 0, see stopping.ticket_Y
    if payoff_side == "negative":
        return 1 if s < 0 else 0
    return 1 if s > 0 else 0


def _strip_widths(l: int, horizon: int) -> list[int]:
    """Half-width w_n of the live strip for n = 0..horizon, -1 once empty.

    Round n can widen the strip by one step from round n - 1, up to the
    boundary radius isqrt(n + l) - 1, and keeps the parity of n.
    """
    if l < 0:
        raise PricingError("offset l must be >= 0")
    widths = [0]
    for n in range(1, horizon + 1):
        w = widths[-1]
        if w >= 0:
            w = min(isqrt(n + l) - 1, w + 1)
            w -= (w - n) % 2
        widths.append(w)
    return widths


def _absorption_sweep(l: int, horizon: int):
    """Yield (new_neg, new_pos) for n = 1..horizon: how many of the 2**n
    paths are first absorbed at round n below and above the strip."""
    widths = _strip_widths(l, horizon)
    counts = [1]  # paths to each live state, indexed by (s + w_n) // 2
    for n in range(1, horizon + 1):
        if widths[n] > widths[n - 1]:  # every child is live
            counts = [0, *counts, 0]
            yield 0, 0
        else:  # the outermost states each lose one child
            yield (counts[0], counts[-1]) if counts else (0, 0)
        counts = [a + b for a, b in zip(counts, counts[1:])]


@dataclass
class EtaTable:
    """Backward-induction value table for one ticket and truncation horizon.

    ``value(n, s)`` is the exact dyadic price of the ticket at a live state;
    absorbed states have value equal to the payoff and are not stored.
    """

    l: int
    horizon: int
    tail_value: str
    payoff_side: str
    _widths: list[int]  # strip half-widths, see _strip_widths
    # numerators at scale 2**(horizon - n + 1), indexed by (s + w_n) // 2
    _levels: list[list[int]]

    def is_live(self, n: int, s: int) -> bool:
        return 0 <= n <= self.horizon and abs(s) <= self._widths[n] and (s - n) % 2 == 0

    def _scale_bits(self, n: int) -> int:
        return self.horizon - n + 1

    def value(self, n: int, s: int) -> Fraction:
        """Price at a live state (n, s)."""
        if not self.is_live(n, s):
            raise PricingError(f"state (n={n}, s={s}) is not live in this table")
        return Fraction(self._levels[n][(s + self._widths[n]) // 2],
                        1 << self._scale_bits(n))

    def child_value(self, n: int, s: int) -> Fraction:
        """Value of the state (n, s) seen as a child: payoff if absorbed."""
        return Fraction(self._child_numerator(n, s), 1 << self._scale_bits(n))

    def _child_numerator(self, n: int, s: int) -> int:
        """child_value(n, s) as a numerator at scale 2**_scale_bits(n)."""
        if n < 1 or n > self.horizon:
            raise PricingError(f"round {n} outside table horizon {self.horizon}")
        if self.is_live(n, s):
            return self._levels[n][(s + self._widths[n]) // 2]
        if abs(s) > n or (s - n) % 2:
            raise PricingError(f"state (n={n}, s={s}) is impossible")
        if boundary_exceeds(n, s, self.l):
            return _absorbed_payoff(s, self.payoff_side) << self._scale_bits(n)
        raise PricingError(f"state (n={n}, s={s}) unreachable in this table")

    @property
    def root_value(self) -> Fraction:
        return self.value(0, 0)


def eta_table(l: int, horizon: int, tail_value: str = "zero",
              payoff_side: str = "negative") -> EtaTable:
    """Build the exact value table by backward induction from the horizon.

    Live states at the horizon take ``tail_value`` (zero gives the lower
    bracket table, one the upper table; half is the symmetric table whose
    root is exactly 1/2 and which the excursion hedge uses).
    """
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    if tail_value not in TAIL_VALUES:
        raise PricingError(f"tail_value must be one of {TAIL_VALUES}")
    if payoff_side not in ("negative", "positive"):
        raise PricingError("payoff_side must be 'negative' or 'positive'")

    widths = _strip_widths(l, horizon)
    tail_num = {"zero": 0, "one": 2, "half": 1}[tail_value]  # scale 2**1
    levels = [[tail_num] * (widths[horizon] + 1)]
    for n in range(horizon - 1, -1, -1):
        child, w = levels[-1], widths[n]
        if widths[n + 1] < w:
            # the outermost children are absorbed: pad with their payoffs
            # at the child scale 2**(horizon - n)
            child_bits = horizon - n
            child = [_absorbed_payoff(-w - 1, payoff_side) << child_bits, *child,
                     _absorbed_payoff(w + 1, payoff_side) << child_bits]
        levels.append([a + b for a, b in zip(child, child[1:])])  # parent scale doubles
    levels.reverse()
    return EtaTable(l=l, horizon=horizon, tail_value=tail_value,
                    payoff_side=payoff_side, _widths=widths, _levels=levels)


def delta_hedge_bet(table: EtaTable, n: int, s: int) -> Fraction:
    """Self-financing replication bet per unit ticket at live state (n, s)."""
    if not table.is_live(n, s):
        raise PricingError(f"cannot hedge at non-live state (n={n}, s={s})")
    if n + 1 > table.horizon:
        raise PricingError("hedge bet would look past the table horizon")
    # (up - down) / 2 with both children at scale 2**(horizon - n)
    up = table._child_numerator(n + 1, s + 1)
    down = table._child_numerator(n + 1, s - 1)
    return Fraction(up - down, 2 << table._scale_bits(n + 1))


@dataclass(frozen=True)
class PriceBracket:
    l: int
    horizon: int
    lower: Fraction
    upper: Fraction

    @property
    def live_mass(self) -> Fraction:
        return self.upper - self.lower

    def __contains__(self, price) -> bool:
        return self.lower <= price <= self.upper


def upper_price_bracket(l: int, horizon: int) -> PriceBracket:
    """Finite-horizon bracket around the ticket's upper price at the root."""
    lower = eta_table(l, horizon, "zero").root_value
    upper = eta_table(l, horizon, "one").root_value
    return PriceBracket(l=l, horizon=horizon, lower=lower, upper=upper)


def bracket_series(l: int, horizon: int) -> list[PriceBracket]:
    """Brackets for every horizon 1..horizon from one forward mass sweep.

    The lower root value at horizon h equals the negative-absorption mass
    accumulated by h, and the upper value is 1 minus the positive mass, so
    a single forward pass over the live strip yields the whole series.
    """
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    out: list[PriceBracket] = []
    neg = pos = 0  # absorbed mass numerators at scale 2**n
    for n, (new_neg, new_pos) in enumerate(_absorption_sweep(l, horizon), start=1):
        neg = 2 * neg + new_neg
        pos = 2 * pos + new_pos
        out.append(PriceBracket(l=l, horizon=n, lower=Fraction(neg, 1 << n),
                                upper=Fraction((1 << n) - pos, 1 << n)))
    return out


@dataclass(frozen=True)
class AbsorptionCensus:
    """Counts of absorbed-negative situations by exact length.

    a[i-1] is the number of length-i situations whose walk first exceeds
    the offset-l boundary at round i with a negative sum; b_k counts the
    length-k situations lying under any of those cylinders.
    """

    l: int
    k: int
    a: tuple[int, ...]

    @property
    def b_k(self) -> int:
        return sum(ai << (self.k - i) for i, ai in enumerate(self.a, start=1))

    @property
    def budget_sum(self) -> Fraction:
        """sum of a_i * 2^-i, the path-bettor replication cost to depth k."""
        return Fraction(self.b_k, 1 << self.k)


def enumerate_absorption(l: int, k: int) -> AbsorptionCensus:
    """Exact absorption counts a_1..a_k via a level sweep of the live strip.

    Equivalent to depth-first traversal of live prefixes with absorbed
    subtrees pruned, but carries path multiplicities per (n, s) state so
    the cost is O(k^1.5) instead of the number of live nodes.
    """
    if k < 1:
        raise PricingError("census depth must be >= 1")
    return AbsorptionCensus(l=l, k=k, a=tuple(neg for neg, _ in _absorption_sweep(l, k)))


def absorbed_negative_situations(l: int, k: int) -> list[tuple[int, ...]]:
    """All situations of length <= k absorbed on the negative side.

    Depth-first over live prefixes; used to assemble path-bettor
    replication portfolios, so k should stay modest.
    """
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        prefix, s = stack.pop()
        n = len(prefix) + 1
        if n > k:
            continue
        for x in (-1, 1):
            c = s + x
            if boundary_exceeds(n, c, l):
                if c < 0:
                    out.append(prefix + (x,))
            else:
                stack.append((prefix + (x,), c))
    out.sort(key=lambda t: (len(t), t))
    return out


class _BettorTrie:
    """Trie over target situations, annotated with subtree budget mass."""

    __slots__ = ("children", "mass", "terminal")

    def __init__(self):
        self.children: dict[int, _BettorTrie] = {}
        self.mass = Fraction(0)
        self.terminal = False

    @classmethod
    def build(cls, targets: list[tuple[int, ...]]) -> "_BettorTrie":
        root = cls()
        for t in targets:
            budget = Fraction(1, 1 << len(t))
            node = root
            node.mass += budget
            for x in t:
                node = node.children.setdefault(x, cls())
                node.mass += budget
            node.terminal = True
        return root


def replicate_and_verify(l: int, horizon: int, cap: int | None = None) -> dict:
    """Constructively verify superreplication of the ticket to a horizon.

    Plays the delta hedge from the upper bracket root on every path
    (absorbed subtrees are frozen, so the walk covers all 2**horizon paths
    implicitly) and asserts final wealth dominates the payoff; then plays
    the path-bettor portfolio with budgets a_i * 2^-i and asserts it pays
    exactly 1 on every absorbed-negative cylinder and stays nonnegative.
    Raises PricingError on any violation.
    """
    if cap is None:
        text = os.environ.get("FAIRCOIN_REPLICATION_CAP", "20")
        try:
            cap = int(text)
        except ValueError:
            raise PricingError(
                f"FAIRCOIN_REPLICATION_CAP must be an integer, got {text!r}") from None
    if horizon > cap:
        raise PricingError(f"replication horizon {horizon} exceeds cap {cap}")
    table = eta_table(l, horizon, "one")
    start = table.root_value
    hedge_nodes = 0
    absorbed_checked = 0

    # (n, s, wealth); hedge stops at absorption so those subtrees are constant
    stack = [(0, 0, start)]
    while stack:
        n, s, w = stack.pop()
        hedge_nodes += 1
        if w < 0:
            raise PricingError(f"hedge wealth negative at (n={n}, s={s}): {w}")
        if n == horizon:
            continue
        bet = delta_hedge_bet(table, n, s)
        for x in (-1, 1):
            c = s + x
            w2 = w + bet * x
            if boundary_exceeds(n + 1, c, l):
                payoff = _absorbed_payoff(c, "negative")
                if w2 < payoff:
                    raise PricingError(
                        f"hedge fails to superreplicate at (n={n + 1}, s={c}): "
                        f"wealth {w2} < payoff {payoff}")
                absorbed_checked += 1
            else:
                stack.append((n + 1, c, w2))

    # path-bettor portfolio
    targets = absorbed_negative_situations(l, horizon)
    census = enumerate_absorption(l, horizon)
    trie = _BettorTrie.build(targets)
    if trie.mass != census.budget_sum:
        raise PricingError("portfolio cost disagrees with absorption census")
    portfolio_nodes = 0
    # (trie node, n, wealth, won)
    pstack: list[tuple[_BettorTrie | None, int, Fraction, bool]] = [
        (trie, 0, trie.mass, False)]
    while pstack:
        node, n, w, won = pstack.pop()
        portfolio_nodes += 1
        expect = (Fraction(1) if won else Fraction(0))
        if node is not None:
            expect += node.mass * (1 << n)
        if w != expect or w < 0:
            raise PricingError(f"portfolio wealth {w} off-book at depth {n}")
        if won or node is None or n == horizon:
            continue
        up = node.children.get(1)
        dn = node.children.get(-1)
        up_m = up.mass if up else Fraction(0)
        dn_m = dn.mass if dn else Fraction(0)
        stake = (up_m - dn_m) * (1 << n)
        for x, child in ((1, up), (-1, dn)):
            w2 = w + stake * x
            if child is not None and child.terminal:
                if w2 != 1:
                    raise PricingError(
                        f"portfolio pays {w2} != 1 on an absorbed-negative cylinder")
                pstack.append((None, n + 1, w2, True))
            else:
                pstack.append((child, n + 1, w2, won))

    return {
        "l": l,
        "horizon": horizon,
        "upper_start": start,
        "hedge_states_checked": hedge_nodes,
        "absorptions_checked": absorbed_checked,
        "portfolio_targets": len(targets),
        "portfolio_cost": trie.mass,
        "portfolio_nodes_checked": portfolio_nodes,
        "ok": True,
    }
