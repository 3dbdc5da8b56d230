"""Boundary tests, excursion schedules, tickets, and event counters."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircoin.stopping import (
    TicketStatus,
    boundary_exceeds,
    event_report,
    excursions,
    ticket_Y,
)

moves_lists = st.lists(st.sampled_from([-1, 1]), max_size=40)


# -- boundary test ----------------------------------------------------------

def test_boundary_examples():
    assert boundary_exceeds(1, -1)          # (1+1)^2 = 4 > 1
    assert boundary_exceeds(4, 2)
    assert not boundary_exceeds(4, 0)
    assert not boundary_exceeds(1, 1, offset=4)  # 4 > 5 fails


def test_boundary_rejects_impossible_states():
    with pytest.raises(ValueError):
        boundary_exceeds(0, 0)
    with pytest.raises(ValueError):
        boundary_exceeds(3, 5)


@given(st.integers(min_value=1, max_value=10**6), st.data(),
       st.integers(min_value=0, max_value=9))
def test_boundary_matches_float_form(n, data, offset):
    s = data.draw(st.integers(min_value=-min(n, 2000), max_value=min(n, 2000)))
    # the squared form has no equality cases against sqrt - 1 except when
    # n + offset is a perfect square, where the strict ">" agrees too
    exact = boundary_exceeds(n, s, offset)
    root = math.isqrt(n + offset)
    if root * root == n + offset:
        float_form = abs(s) > root - 1
    else:
        float_form = abs(s) > math.sqrt(n + offset) - 1
    assert exact == float_form


# -- excursions -------------------------------------------------------------

def test_excursions_examples():
    assert excursions([]) == []
    sched = excursions([1, -1])
    assert len(sched) == 1 and sched[0].w == 2 and sched[0].v is None
    sched = excursions([-1, 1, -1])
    assert [(p.w, p.v) for p in sched] == [(2, 3)]


def test_excursions_alternate_strictly():
    sched = excursions([1, -1, 1, 1, 1, -1])
    # w=2, boundary hit at n=3 (s=1, 4 > 3); s never returns to 0 after
    assert [(p.w, p.v) for p in sched] == [(2, 3)]


@given(moves_lists)
def test_excursion_schedule_invariants(moves):
    sched = excursions(moves)
    s_at = [0]
    for x in moves:
        s_at.append(s_at[-1] + x)
    prev_v = 0
    for pair in sched:
        assert pair.w > prev_v
        assert s_at[pair.w] == 0
        if pair.v is not None:
            assert pair.v > pair.w
            assert boundary_exceeds(pair.v, s_at[pair.v])
            for n in range(pair.w + 1, pair.v):
                assert not boundary_exceeds(n, s_at[n])
            prev_v = pair.v
    # only the last pair may be open
    assert all(p.v is not None for p in sched[:-1])


# -- tickets ----------------------------------------------------------------

def test_ticket_l0_forced_first_step():
    assert ticket_Y([-1], 0) is TicketStatus.PAID_1
    assert ticket_Y([1], 0) is TicketStatus.PAID_0
    assert ticket_Y([], 0) is TicketStatus.UNDETERMINED


def test_ticket_l4_example():
    assert ticket_Y([1, -1, -1, -1], 4) is TicketStatus.PAID_1
    assert ticket_Y([1, -1, -1], 4) is TicketStatus.UNDETERMINED


def test_ticket_rejects_negative_offset():
    with pytest.raises(ValueError):
        ticket_Y([1], -1)


@given(moves_lists, st.integers(min_value=0, max_value=6))
def test_ticket_mirror_symmetry(moves, l):
    swap = {TicketStatus.PAID_1: TicketStatus.PAID_0,
            TicketStatus.PAID_0: TicketStatus.PAID_1,
            TicketStatus.UNDETERMINED: TicketStatus.UNDETERMINED}
    assert ticket_Y(tuple(-x for x in moves), l) == swap[ticket_Y(moves, l)]


@given(moves_lists, st.integers(min_value=0, max_value=6),
       st.lists(st.sampled_from([-1, 1]), max_size=8))
def test_ticket_prefix_monotone(moves, l, extra):
    status = ticket_Y(moves, l)
    if status is not TicketStatus.UNDETERMINED:
        assert ticket_Y(moves + extra, l) == status


# -- event report -----------------------------------------------------------

def test_event_report_alternating():
    rep = event_report([1, -1] * 5)
    assert rep.zero_return_count == 5
    assert rep.last_zero_return == 10
    # |s| exceeds sqrt(n) - 1 at n=1 (|s|=1 > 0) and n=3 (4 > 3)
    assert rep.exceed_rounds == (1, 3)
    assert rep.max_abs_s == 1


def test_event_report_all_up():
    rep = event_report([1] * 9)
    assert rep.pos_exceed_count == 9
    assert rep.neg_exceed_count == 0
    assert rep.max_s == 9 and rep.min_s == 0
    assert rep.max_n_xbar_sq == Fraction(81, 9)


def test_event_report_empty():
    rep = event_report([])
    assert rep.rounds == 0
    assert rep.exceed_count == 0
    assert rep.zero_return_count == 0
    assert rep.last_zero_return is None
    assert rep.max_n_xbar_sq == 0


@given(moves_lists)
def test_event_report_vs_naive_recount(moves):
    rep = event_report(moves)
    s = 0
    sums = []
    exceed = []
    pos = neg = zeros = 0
    last_zero = None
    max_nx2 = Fraction(0)  # a Fraction max per round, as the report once kept it
    for n, x in enumerate(moves, start=1):
        s += x
        sums.append(s)
        if (abs(s) + 1) ** 2 > n:
            exceed.append(n)
            if s > 0:
                pos += 1
            else:
                neg += 1
        if s == 0:
            zeros += 1
            last_zero = n
        max_nx2 = max(max_nx2, Fraction(s * s, n))
    assert rep.exceed_rounds == tuple(exceed)
    assert rep.pos_exceed_count == pos and rep.neg_exceed_count == neg
    assert rep.zero_return_count == zeros
    assert rep.last_zero_return == last_zero
    assert rep.max_s == max([0] + sums) and rep.min_s == min([0] + sums)
    assert rep.max_abs_s == max([0] + [abs(v) for v in sums])
    assert rep.max_n_xbar_sq == max_nx2
    assert type(rep.max_n_xbar_sq) is Fraction


@given(moves_lists)
def test_sides_partition_exceedances(moves):
    rep = event_report(moves)
    assert rep.pos_exceed_count + rep.neg_exceed_count == rep.exceed_count


def test_event_report_json_round_trip_fields():
    d = event_report([1, 1, -1]).to_json_dict()
    assert d["rounds"] == 3
    assert isinstance(d["max_n_xbar_sq"], str) and "/" in d["max_n_xbar_sq"]
