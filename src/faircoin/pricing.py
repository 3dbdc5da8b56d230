"""Exact pricing and replication of boundary-hitting tickets.

The ticket with offset l pays 1 when the walk first satisfies
|s_n| > sqrt(n + l) - 1 with s_n < 0, pays 0 when it first does so with
s_n > 0.  The claim is Markov in (n, s), and all the work here is over the
live strip: the states reachable from the root through unabsorbed states,
with (|s| + 1)^2 <= n + l.  At round n the live sums form one parity class,
s = -w_n, -w_n + 2, ..., w_n, so the strip is the list of half-widths w_n,
built a run between two squares of n + l at a time (``_strip_widths``).
Value tables are built by backward induction over the strip; absorption
statistics and the replication check share one forward sweep of path
counts (``_absorption_sweep``).  All values are dyadic rationals, stored as
integer numerators against a per-level power-of-two scale, so nothing is
ever rounded.  Every value read out as a Fraction is built by
``_dyadic``: num / 2**bits has lowest terms (num >> z) / 2**(bits - z),
z the trailing zero bits of num (at most bits), so a shift finds them
and the two parts are coprime by construction.  Fraction's public
constructor always reduces, a gcd of two numbers of up to horizon + 2
bits here, so the parts go to its private constructor for coprime parts,
``game._coprime``, which takes none.

The strip is symmetric under s -> -s, and no walk is absorbed at s = 0,
since |0| > sqrt(n + l) - 1 would need n + l < 1.  So each absorbed path's
mirror is absorbed at the same round on the other side: at every round
the paths absorbed below equal those absorbed above, and the forward sweep
carries only the states s <= 0.  The mirror of a path that ends live at
the horizon is live too, so the one-tail table is the mirrored complement
of the zero-tail one, V_one(n, s) = 1 - V_zero(n, -s).  The half-tail
table, the mean of those two, is its own mirrored complement: it stores
the states s <= 0 alone, reads each s > 0 as 1 - V(n, -s), and holds
V(n, 0) = 1/2.

Infinite-horizon upper prices are represented as brackets: the true price
lies between the roots of the backward inductions with tail value 0 and
with tail value 1 at the truncation horizon, and the gap is exactly the
still-live probability mass at the horizon.  By the reflection the upper
root is 1 minus the lower one, so a bracket runs the zero-tail induction
alone, holding one level at a time.  A bracket is stored as the lower
root's integer numerator over a power-of-two scale: it builds its
Fractions only when they are read, and prints straight from the integer,
so a long series takes no gcd.  A lone bracket's line is built as a
series line is, and power-of-two scales stay in this module: every other
exact number reaches its text through ``game.fmt_number``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import add

from .game import ZERO, _coprime
from .stopping import boundary_exceeds

_TAIL_NUMS = {"zero": 0, "one": 2, "half": 1}  # tail values as numerators at scale 2**1
TAIL_VALUES = tuple(_TAIL_NUMS)


class PricingError(Exception):
    pass


def _dyadic(num: int, bits: int) -> Fraction:
    """num / 2**bits in lowest terms: once the factors of two the parts
    share are shifted out, they are coprime, so no gcd is taken."""
    if not num:
        return ZERO
    z = min((num & -num).bit_length() - 1, bits)  # the factors of two the two parts share
    return _coprime(num >> z, 1 << (bits - z))


def _absorbed_payoff(s: int) -> int:
    # the hitting sum is never 0, see stopping.ticket_Y
    return 1 if s < 0 else 0


def _strip_widths(l: int, horizon: int) -> list[int]:
    """Half-width w_n of the live strip for n = 0..horizon, -1 once empty.

    Round n widens the strip by at most one step, up to the boundary
    radius c_n = isqrt(n + l) - 1, and keeps the parity of n: w_n =
    u_n(min(c_n, w_{n-1} + 1)), u_n(v) = v - (v - n) % 2.  As w_{n-1} + 1
    has n's parity and c_n <= c_{n-1} + 1, induction gives w_n =
    min(n, u_n(c_n)) while the strip lives.  For l <= 2, u_1(c_1) = -1
    empties it from round 1; for l >= 3, c_n >= 1 and it never empties.
    Between squares of n + l, c_n is one c: w_n is n below c, then
    alternates c and c - 1, so each run is built by list operations and
    one isqrt serves the strip.  Every table and sweep starts here, so
    this refuses a horizon below 1.
    """
    if horizon < 1:
        raise PricingError("horizon must be >= 1")
    if l < 0:
        raise PricingError("offset l must be >= 0")
    if l <= 2:
        return [0] + [-1] * horizon
    widths = [0]
    n, r = 1, isqrt(1 + l)
    while n <= horizon:
        c, end = r - 1, min((r + 1) ** 2 - l, horizon + 1)  # rounds n..end-1 have c_n = c
        k = min(max(n, c), end)
        widths += range(n, k)  # below c the strip widens a step a round
        pair = [c, c - 1] if (c - k) % 2 == 0 else [c - 1, c]
        widths += pair * ((end - k) // 2) + pair[:(end - k) % 2]
        n, r = end, r + 1
    return widths


def _absorption_sweep(l: int, horizon: int):
    """Yield (half, edge) for n = 1..horizon: half[i] paths reach the live
    state (n - 1, 2i - w_{n-1}) for each live s <= 0, indexed as the table
    levels are, and edge of the 2**n paths are first absorbed at round n
    below the strip, as many as above it (see the module docstring)."""
    widths = _strip_widths(l, horizon)
    half = [1]
    for n in range(1, horizon + 1):
        w = widths[n - 1]
        if widths[n] > w:  # every child is live
            yield half, 0
            half = [0, *half]
        else:  # the outermost states each lose one child
            yield half, half[0] if half else 0
        nxt = [a + b for a, b in zip(half, half[1:])]
        if w % 2 and half:  # no state at s = 0: the one next to it also takes its mirror's paths
            nxt.append(2 * half[-1])
        half = nxt


@dataclass(frozen=True)
class EtaTable:
    """Backward-induction value table for one ticket and truncation horizon.

    Its reads are ``is_live(n, s)``, ``value(n, s)``, the exact dyadic
    price at a live state, and ``root_value``.  Absorbed states have value
    equal to the payoff and are not stored.  The ``"half"`` table stores
    the states s <= 0 alone and reads each s > 0 as the mirrored
    complement 1 - V(n, -s) (see ``_backward_levels``).
    """

    l: int
    horizon: int
    tail_value: str
    _widths: list[int]  # strip half-widths, see _strip_widths
    # numerators at scale 2**(horizon - n + 1), indexed by (s + w_n) // 2;
    # a "half" level stops at s = 0
    _levels: list[list[int]]

    def __hash__(self) -> int:
        # the lists are a function of these three, so equal tables hash equal
        return hash((self.l, self.horizon, self.tail_value))

    def is_live(self, n: int, s: int) -> bool:
        return 0 <= n <= self.horizon and abs(s) <= self._widths[n] and (s - n) % 2 == 0

    def _scale_bits(self, n: int) -> int:
        return self.horizon - n + 1

    def value(self, n: int, s: int) -> Fraction:
        """Price at a live state (n, s)."""
        if not self.is_live(n, s):
            raise PricingError(f"state (n={n}, s={s}) is not live in this table")
        return _dyadic(self._live_numerator(n, s), self._scale_bits(n))

    def _live_numerator(self, n: int, s: int) -> int:
        """The value of the live state (n, s) at scale 2**_scale_bits(n)."""
        if s > 0 and self.tail_value == "half":  # the mirror of a stored state
            return (1 << self._scale_bits(n)) - self._levels[n][(self._widths[n] - s) // 2]
        return self._levels[n][(s + self._widths[n]) // 2]

    def _child_numerator(self, n: int, s: int) -> int:
        """The value or payoff of (n, s) at scale 2**_scale_bits(n).  (n, s)
        is a child of a live state below the horizon, so it is live or
        absorbed: the strip widens at most one step a round."""
        if self.is_live(n, s):
            return self._live_numerator(n, s)
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
    and the live states at the horizon hold ``tail_num`` (at scale 2**1).

    The half tail's table is its own mirrored complement, V(n, -s) =
    1 - V(n, s), so V(n, 0) = 1/2: its levels hold the states s <= 0
    alone, pad only the lower absorbed edge, and end each even level with
    1/2 at s = 0, the mean of a child and its mirror."""
    horizon = len(widths) - 1
    half = tail_num == _TAIL_NUMS["half"]
    w = widths[horizon]
    level = [tail_num] * ((w // 2 if half else w) + 1)
    yield level
    for n in range(horizon - 1, -1, -1):
        w = widths[n]
        child_bits = horizon - n  # the child scale is 2**(horizon - n)
        if widths[n + 1] < w:
            # the outermost children are absorbed: pad with their payoffs
            level = [_absorbed_payoff(-w - 1) << child_bits, *level]
            if not half:
                level.append(_absorbed_payoff(w + 1) << child_bits)
        level = list(map(add, level, level[1:]))  # parent scale doubles
        if half and w % 2 == 0:  # a live s = 0; w is -1 once the strip is empty
            level.append(1 << child_bits)
        yield level


def eta_table(l: int, horizon: int, tail_value: str = "zero") -> EtaTable:
    """Build the exact value table by backward induction from the horizon.

    Live states at the horizon take ``tail_value`` (zero gives the lower
    bracket table, one the upper table; half is the symmetric table whose
    root is exactly 1/2 and which the excursion hedge uses).
    """
    widths = _strip_widths(l, horizon)
    if tail_value not in TAIL_VALUES:
        raise PricingError(f"tail_value must be one of {TAIL_VALUES}")
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
    return _dyadic(up - down, table._scale_bits(n + 1) + 1)


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # Decimal integer arithmetic, never rounded


class _Powers2:
    """2**k as exact Decimals for the nearby k of one series, each made from
    the last by a small multiply or an exact divide: Decimal(1 << k) costs
    as much as str() of a number that size."""

    def __init__(self):
        self._k, self._power = 0, Decimal(1)

    def __call__(self, k: int) -> Decimal:
        d, self._k = k - self._k, k
        self._power = (_EXACT.multiply(self._power, 1 << d) if d >= 0
                       else _EXACT.divide(self._power, 1 << -d))
        return self._power


@dataclass(frozen=True, repr=False)
class PriceBracket:
    """Bracket [lower, upper] around the ticket's upper price at the root,
    as the numerator lower_num over 2**(horizon + 1), the scale of a value
    table's root.  The reflection makes upper = 1 - lower, so upper_num is
    derived and a bracket cannot be built asymmetric."""

    l: int
    horizon: int
    lower_num: int

    @property
    def upper_num(self) -> int:
        return (2 << self.horizon) - self.lower_num

    @cached_property
    def lower(self) -> Fraction:
        return _dyadic(self.lower_num, self.horizon + 1)

    @cached_property
    def upper(self) -> Fraction:
        return _dyadic(self.upper_num, self.horizon + 1)

    @cached_property
    def live_mass(self) -> Fraction:
        return _dyadic(self.upper_num - self.lower_num, self.horizon + 1)

    def __repr__(self) -> str:
        return (f"PriceBracket(l={self.l}, horizon={self.horizon}, "
                f"lower={self.lower!r}, upper={self.upper!r})")

    def __contains__(self, price) -> bool:
        return self.lower <= price <= self.upper

    def json_line(self, values: str | None = None) -> str:
        """The bracket as one line of JSON, byte for byte what json.dumps
        prints for it; its "num/den" strings need no escaping.  ``values``,
        if given, is the ``_json_values()`` text of an equal bracket; a
        lone bracket builds its own the way a series line does."""
        return (f'{{"l": {self.l}, "horizon": {self.horizon}, '
                f'{values or self._json_values(_Powers2())}}}\n')

    def _json_values(self, powers: _Powers2) -> str:
        """The "lower", "upper" and "live_mass" members of json_line(), from
        the ``powers`` of a series.  Only lower's odd numerator L over 2**k
        is converted to decimal: upper is (2**k - L)/2**k and live_mass
        (2**(k-1) - L)/2**(k-1), both in lowest terms, got by Decimal
        subtraction from the denominators the line prints anyway."""
        num = self.lower_num
        if not num:  # nothing absorbed yet: lower 0, the whole mass live
            return '"lower": "0/1", "upper": "1/1", "live_mass": "1/1"'
        z = (num & -num).bit_length() - 1  # the factors of two, shifted out: no gcd
        lower, half = Decimal(num >> z), powers(self.horizon - z)  # Decimal() has no digit limit
        whole = _EXACT.add(half, half)
        return (f'"lower": "{lower}/{whole}", '
                f'"upper": "{_EXACT.subtract(whole, lower)}/{whole}", '
                f'"live_mass": "{_EXACT.subtract(half, lower)}/{half}"')


def upper_price_bracket(l: int, horizon: int) -> PriceBracket:
    """Finite-horizon bracket around the ticket's upper price at the root:
    the root of the zero-tail backward induction, run holding one level of
    its table at a time, and 1 minus it, the one-tail root by the
    reflection."""
    levels = _backward_levels(_strip_widths(l, horizon), _TAIL_NUMS["zero"])
    return PriceBracket(l, horizon, deque(levels, maxlen=1)[0][0])


def bracket_series(l: int, horizon: int) -> list[PriceBracket]:
    """Brackets for every horizon 1..horizon from one forward mass sweep.

    The lower root value at horizon h equals the negative-absorption mass
    accumulated by h, and the upper value is 1 minus the positive mass,
    which by the reflection is the negative one, so a single forward pass
    over half the live strip yields the whole series.
    """
    out: list[PriceBracket] = []
    neg = 0  # the negative mass at scale 2**(n + 1)
    for n, (_, edge) in enumerate(_absorption_sweep(l, horizon), start=1):
        neg = 2 * (neg + edge)
        out.append(PriceBracket(l, n, neg))
    return out


def series_json_lines(l: int, horizon: int):
    """The json_line() of each bracket of bracket_series(l, horizon).  A
    round that absorbs nothing doubles the numerator and the scale, so its
    bracket equals the one before and reuses that line's values; the
    others share one run of Decimal powers of two."""
    powers = _Powers2()
    prev = None
    for b in bracket_series(l, horizon):
        if prev is None or b.lower_num != 2 * prev.lower_num:
            values = b._json_values(powers)
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
        return _dyadic(self.b_k, self.k)


def enumerate_absorption(l: int, k: int) -> AbsorptionCensus:
    """Exact absorption counts a_1..a_k via a level sweep of the live strip.

    Equivalent to depth-first traversal of live prefixes with absorbed
    subtrees pruned, but carries path multiplicities per (n, s) state so
    the cost is O(k^1.5) instead of the number of live nodes.
    """
    if k < 1:
        raise PricingError("census depth must be >= 1")
    return AbsorptionCensus(l=l, k=k, a=tuple(edge for _, edge in _absorption_sweep(l, k)))


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
    for n, (half, edge) in enumerate(_absorption_sweep(l, horizon)):
        w, bits = one._widths[n], horizon - n + 1
        counts = half + (half[::-1] if w % 2 else half[-2::-1])  # every live state
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
        a.append(edge)
        absorbed += 2 * edge
        live = 2 * (live - edge)
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
