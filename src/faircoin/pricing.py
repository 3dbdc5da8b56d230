"""Exact pricing and replication of boundary-hitting tickets.

The ticket with offset l pays 1 when the walk first satisfies
|s_n| > sqrt(n + l) - 1 with s_n < 0, pays 0 when it first does so with
s_n > 0.  The claim is Markov in (n, s), and all the work here is over the
live strip: the states reachable from the root through unabsorbed states,
with (|s| + 1)^2 <= n + l.  At round n the live sums form one parity class,
s = -w_n, -w_n + 2, ..., w_n, so the strip is the list of half-widths w_n,
found with one ``isqrt`` per level (``_strip_widths``).  Value tables are
built by backward induction over the strip; absorption statistics and
the replication check share one forward sweep of path counts
(``_absorption_sweep``).  All values are dyadic rationals, stored as
integer numerators against a per-level power-of-two scale, so nothing is
ever rounded.

Infinite-horizon upper prices are represented as brackets: the backward
induction is run once with tail value 0 and once with tail value 1 at the
truncation horizon, each run holding one level at a time; the true price
lies between the two roots, and the gap is exactly the still-live
probability mass at the horizon.  A bracket is stored the same way, as
two integer numerators over one power-of-two scale: it builds its
Fractions only when they are read, and prints straight from the
integers, so a long series takes no gcd.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .game import fmt_dyadic
from .stopping import boundary_exceeds

_TAIL_NUMS = {"zero": 0, "one": 2, "half": 1}  # tail values as numerators at scale 2**1
TAIL_VALUES = tuple(_TAIL_NUMS)


class PricingError(Exception):
    pass


def _absorbed_payoff(s: int) -> int:
    # the hitting sum is never 0, see stopping.ticket_Y
    return 1 if s < 0 else 0


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
    """Yield (counts, new_neg, new_pos) for n = 1..horizon: counts[i] paths
    reach the live state (n - 1, 2i - w_{n-1}), indexed as the table levels
    are, and new_neg and new_pos of the 2**n paths are first absorbed at
    round n below and above the strip."""
    widths = _strip_widths(l, horizon)
    counts = [1]
    for n in range(1, horizon + 1):
        if widths[n] > widths[n - 1]:  # every child is live
            yield counts, 0, 0
            counts = [0, *counts, 0]
        else:  # the outermost states each lose one child
            yield (counts, counts[0], counts[-1]) if counts else (counts, 0, 0)
        counts = [a + b for a, b in zip(counts, counts[1:])]


@dataclass(frozen=True)
class EtaTable:
    """Backward-induction value table for one ticket and truncation horizon.

    ``value(n, s)`` is the exact dyadic price of the ticket at a live state;
    absorbed states have value equal to the payoff and are not stored.
    """

    l: int
    horizon: int
    tail_value: str
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
            return _absorbed_payoff(s) << self._scale_bits(n)
        raise PricingError(f"state (n={n}, s={s}) unreachable in this table")

    @property
    def root_value(self) -> Fraction:
        return self.value(0, 0)


def _backward_levels(widths: list[int], tail_num: int):
    """Yield the value-table levels n = horizon, ..., 0 of the strip
    ``widths`` (horizon = len(widths) - 1), one at a time: level n holds
    numerators at scale 2**(horizon - n + 1), indexed by (s + w_n) // 2,
    and the live states at the horizon hold ``tail_num`` (at scale 2**1)."""
    horizon = len(widths) - 1
    level = [tail_num] * (widths[horizon] + 1)
    yield level
    for n in range(horizon - 1, -1, -1):
        w = widths[n]
        if widths[n + 1] < w:
            # the outermost children are absorbed: pad with their payoffs
            # at the child scale 2**(horizon - n)
            child_bits = horizon - n
            level = [_absorbed_payoff(-w - 1) << child_bits, *level,
                     _absorbed_payoff(w + 1) << child_bits]
        level = [a + b for a, b in zip(level, level[1:])]  # parent scale doubles
        yield level


def eta_table(l: int, horizon: int, tail_value: str = "zero") -> EtaTable:
    """Build the exact value table by backward induction from the horizon.

    Live states at the horizon take ``tail_value`` (zero gives the lower
    bracket table, one the upper table; half is the symmetric table whose
    root is exactly 1/2 and which the excursion hedge uses).
    """
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    if tail_value not in TAIL_VALUES:
        raise PricingError(f"tail_value must be one of {TAIL_VALUES}")

    widths = _strip_widths(l, horizon)
    levels = list(_backward_levels(widths, _TAIL_NUMS[tail_value]))
    levels.reverse()
    return EtaTable(l=l, horizon=horizon, tail_value=tail_value,
                    _widths=widths, _levels=levels)


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


@dataclass(frozen=True, repr=False)
class PriceBracket:
    """Bracket [lower, upper] around the ticket's upper price at the root,
    as the numerators lower_num and upper_num over 2**(horizon + 1), the
    scale of a value table's root."""

    l: int
    horizon: int
    lower_num: int
    upper_num: int

    # each Fraction is built on first read and kept: a gcd per value, once
    @cached_property
    def lower(self) -> Fraction:
        return Fraction(self.lower_num, 2 << self.horizon)

    @cached_property
    def upper(self) -> Fraction:
        return Fraction(self.upper_num, 2 << self.horizon)

    @cached_property
    def live_mass(self) -> Fraction:
        return Fraction(self.upper_num - self.lower_num, 2 << self.horizon)

    def __repr__(self) -> str:
        return (f"PriceBracket(l={self.l}, horizon={self.horizon}, "
                f"lower={self.lower!r}, upper={self.upper!r})")

    def __contains__(self, price) -> bool:
        return self.lower <= price <= self.upper

    def json_line(self, values: str | None = None) -> str:
        """The bracket as one line of JSON, byte for byte what json.dumps
        prints for it; its "num/den" strings need no escaping.  ``values``,
        if given, is the ``_json_values()`` text of an equal bracket."""
        return f'{{"l": {self.l}, "horizon": {self.horizon}, {values or self._json_values()}}}\n'

    def _json_values(self) -> str:
        bits = self.horizon + 1
        return (f'"lower": "{fmt_dyadic(self.lower_num, bits)}", '
                f'"upper": "{fmt_dyadic(self.upper_num, bits)}", '
                f'"live_mass": "{fmt_dyadic(self.upper_num - self.lower_num, bits)}"')


def upper_price_bracket(l: int, horizon: int) -> PriceBracket:
    """Finite-horizon bracket around the ticket's upper price at the root:
    the roots of the zero-tail and one-tail backward inductions, each run
    holding one level of its table at a time."""
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    widths = _strip_widths(l, horizon)
    lower, upper = (deque(_backward_levels(widths, _TAIL_NUMS[tail]), maxlen=1)[0][0]
                    for tail in ("zero", "one"))
    return PriceBracket(l, horizon, lower, upper)


def bracket_series(l: int, horizon: int) -> list[PriceBracket]:
    """Brackets for every horizon 1..horizon from one forward mass sweep.

    The lower root value at horizon h equals the negative-absorption mass
    accumulated by h, and the upper value is 1 minus the positive mass, so
    a single forward pass over the live strip yields the whole series.
    """
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    out: list[PriceBracket] = []
    # the negative mass and 1 minus the positive mass, at scale 2**(n + 1)
    neg, upper = 0, 2
    for n, (_, new_neg, new_pos) in enumerate(_absorption_sweep(l, horizon), start=1):
        neg = 2 * (neg + new_neg)
        upper = 2 * (upper - new_pos)
        out.append(PriceBracket(l, n, neg, upper))
    return out


def series_json_lines(l: int, horizon: int):
    """The json_line() of each bracket of bracket_series(l, horizon).  A
    round that absorbs nothing doubles both numerators and the scale, so
    its bracket equals the one before and reuses that line's values."""
    prev = None
    for b in bracket_series(l, horizon):
        if prev is None or b.lower_num != 2 * prev.lower_num or b.upper_num != 2 * prev.upper_num:
            values = b._json_values()
        yield b.json_line(values)
        prev = b


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
    return AbsorptionCensus(l=l, k=k, a=tuple(neg for _, neg, _ in _absorption_sweep(l, k)))


def replicate_and_verify(l: int, horizon: int) -> dict:
    """Constructively verify exact replication of the ticket to a horizon.

    Two delta hedges are checked: that of the ``one`` table, started at the
    upper bracket root, and the path-bettor portfolio, the hedge of the
    ``zero`` table started at the census budget sum a_i * 2^-i.  At every
    live state (n, s) of the census sweep, each hedge's value is
    nonnegative and, after its ``delta_hedge_bet``, equals its table's
    value at both children, so its wealth is the table's value at every
    state any path reaches.  Absorbed children carry the payoff (1 below,
    0 above), and where the walk is still live at the horizon the hedge
    holds 1 and the portfolio 0.  These checks cover all 2**horizon paths;
    the counts are path counts, summed from the sweep's multiplicities.
    Raises PricingError on any violation.
    """
    one = eta_table(l, horizon, "one")
    zero = eta_table(l, horizon, "zero")
    for table, end in ((one, 2), (zero, 0)):  # 1 and 0 at the horizon's scale 2**1
        if any(v != end for v in table._levels[horizon]):
            raise PricingError(f"{table.tail_value}-tail hedge ends off its payoff "
                               f"at the horizon {horizon}")
    a = []
    live = hedge_states = 1  # live paths at round n, and at rounds 0..n
    absorbed = 0
    portfolio_nodes = 3  # the root and its two children
    for n, (counts, new_neg, new_pos) in enumerate(_absorption_sweep(l, horizon)):
        w, bits = one._widths[n], horizon - n + 1
        for i, paths in enumerate(counts):
            s = 2 * i - w
            for table in (one, zero):
                v = table._levels[n][i]
                if v < 0:
                    raise PricingError(f"{table.tail_value}-tail hedge negative at (n={n}, s={s})")
                bet = delta_hedge_bet(table, n, s)  # a dyadic: scale it to 2**bits
                step = bet.numerator << (bits + 1 - bet.denominator.bit_length())
                for x in (-1, 1):
                    if v + step * x != 2 * table._child_numerator(n + 1, s + x):
                        raise PricingError(f"{table.tail_value}-tail hedge misses its table "
                                           f"at (n={n + 1}, s={s + x})")
            if n and zero._levels[n][i]:  # an absorbed-negative state lies below
                portfolio_nodes += 2 * paths
        a.append(new_neg)
        absorbed += new_neg + new_pos
        live = 2 * live - new_neg - new_pos
        hedge_states += live
    if zero.root_value != AbsorptionCensus(l, horizon, tuple(a)).budget_sum:
        raise PricingError("portfolio cost disagrees with absorption census")

    return {
        "l": l,
        "horizon": horizon,
        "upper_start": one.root_value,
        "hedge_states_checked": hedge_states,
        "absorptions_checked": absorbed,
        "portfolio_targets": sum(a),
        "portfolio_cost": zero.root_value,
        "portfolio_nodes_checked": portfolio_nodes,
        "ok": True,
    }
