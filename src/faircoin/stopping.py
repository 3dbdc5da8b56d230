"""Stopping times and event detectors on the fair-coin tree.

The sqrt(n)-boundary test |s_n| > sqrt(n + offset) - 1 is decided in the
equivalent squared-integer form (|s| + 1)^2 > n + offset, so every decision
here is exact.  Limit events (infinitely-often / almost-always) are not
decidable from a finite prefix; this module only reports counters and
finite hitting times, and callers phrase finite-horizon assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .game import fmt_number, moves_of


def boundary_exceeds(n: int, s: int, offset: int = 0) -> bool:
    """Exact integer test for |s| > sqrt(n + offset) - 1.

    ``offset`` covers the variants: 0 for the two-sided boundary events,
    l for the shifted ticket boundary, m for the additive stop rule.
    """
    if n < 1:
        raise ValueError("boundary test needs a round index n >= 1")
    if abs(s) > n:
        raise ValueError(f"impossible sum |s|={abs(s)} at round {n}")
    return (abs(s) + 1) ** 2 > n + offset


class TicketStatus(Enum):
    PAID_1 = "paid_1"
    PAID_0 = "paid_0"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ExcursionPair:
    """One excursion: origin departure round w, boundary hit round v.

    ``v`` is None while the hit has not occurred within the observed prefix.
    """

    w: int
    v: int | None


def excursions(prefix) -> list[ExcursionPair]:
    """Alternating schedule w_1 < v_1 < w_2 < ...  over a finite prefix.

    w_i is the first round after v_{i-1} (v_0 = 0) with s = 0; v_i is the
    first round after w_i with |s| > sqrt(n) - 1.  The last pair may have
    an undetermined v.
    """
    moves = moves_of(prefix)
    schedule: list[ExcursionPair] = []
    s = 0
    w = None  # None while awaiting the next origin return
    for n, x in enumerate(moves, start=1):
        s += x
        if w is None:
            if s == 0:
                w = n
        elif boundary_exceeds(n, s):
            schedule.append(ExcursionPair(w=w, v=n))
            w = None
    if w is not None:
        schedule.append(ExcursionPair(w=w, v=None))
    return schedule


def ticket_Y(prefix, l: int) -> TicketStatus:
    """Status of the boundary-hitting ticket with round offset l.

    Pays 1 if the first round n with |s_n| > sqrt(n + l) - 1 has s_n < 0,
    pays 0 if s_n > 0 there, and is undetermined while no such round has
    occurred within the prefix.  (The hitting sum is never 0: the boundary
    test cannot trigger at s = 0 for any n >= 1, l >= 0.)
    """
    if l < 0:
        raise ValueError("offset l must be >= 0")
    s = 0
    for n, x in enumerate(moves_of(prefix), start=1):
        s += x
        if boundary_exceeds(n, s, l):
            return TicketStatus.PAID_1 if s < 0 else TicketStatus.PAID_0
    return TicketStatus.UNDETERMINED


@dataclass(frozen=True)
class EventReport:
    """Finite-prefix counters for the boundary and origin-return events.

    These are surrogates for the paper-style limit events: exceedance
    counts stand in for infinitely-often claims, ``max_n_xbar_sq`` for the
    limsup of n * xbar_n^2, the zero-return and extremum fields for the
    boundedness/recurrence events.  None decides a limit.
    """

    rounds: int
    exceed_count: int
    exceed_rounds: tuple[int, ...]
    pos_exceed_count: int
    neg_exceed_count: int
    zero_return_count: int
    last_zero_return: int | None
    max_s: int
    min_s: int
    max_abs_s: int
    max_n_xbar_sq: Fraction

    def to_json_dict(self) -> dict:
        """The fields in declaration order, with the ratio as "num/den"."""
        return {**vars(self), "exceed_rounds": list(self.exceed_rounds),
                "max_n_xbar_sq": fmt_number(self.max_n_xbar_sq)}


def event_report(prefix) -> EventReport:
    """Single-pass counters over a prefix; pure function of the moves."""
    moves = moves_of(prefix)
    s = 0
    exceed_rounds: list[int] = []
    pos = neg = zeros = 0
    last_zero = None
    max_s = min_s = 0
    best_sq, best_n = 0, 1  # max of s^2/n so far, compared by cross-multiplying
    for n, x in enumerate(moves, start=1):
        s += x
        if boundary_exceeds(n, s):
            exceed_rounds.append(n)
            if s > 0:
                pos += 1
            else:
                neg += 1
        if s == 0:
            zeros += 1
            last_zero = n
        elif s > max_s:
            max_s = s
        elif s < min_s:
            min_s = s
        if s * s * best_n > best_sq * n:
            best_sq, best_n = s * s, n
    return EventReport(
        rounds=len(moves),
        exceed_count=len(exceed_rounds),
        exceed_rounds=tuple(exceed_rounds),
        pos_exceed_count=pos,
        neg_exceed_count=neg,
        zero_return_count=zeros,
        last_zero_return=last_zero,
        max_s=max_s,
        min_s=min_s,
        max_abs_s=max(max_s, -min_s),
        max_n_xbar_sq=Fraction(best_sq, best_n),
    )
