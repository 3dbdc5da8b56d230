"""Protocol engine: situations, traces, serialization, game execution."""

import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircoin.game import (
    GameError,
    GameTrace,
    Situation,
    check_collateral,
    fmt_dyadic,
    fmt_number,
    moves_of,
    parse_number,
    run_game,
)
from faircoin.reality import Alternating, FixedPath
from faircoin.strategies import (
    AdditiveContrarian,
    MultiplicativeContrarian,
    ZeroStrategy,
    parse_strategy,
)
from faircoin.verify import product_capital

moves_lists = st.lists(st.sampled_from([-1, 1]), max_size=40)


class ConstantStake:
    def __init__(self, stake):
        self.stake = stake

    def next_stake(self):
        return self.stake

    def observe(self, x):
        pass


def test_play_round_arithmetic():
    t = GameTrace()
    t.play(Fraction(1), 1)
    assert t.final_capital == 1
    t.play(Fraction(0), -1)
    assert t.final_capital == 1
    t2 = GameTrace()
    t2.play(Fraction(1), 1)
    t2.play(Fraction(-1, 2), 1)
    assert t2.final_capital == Fraction(1, 2)


def test_play_round_rejects_bad_move():
    with pytest.raises(GameError):
        GameTrace().play(Fraction(1), 0)


@pytest.mark.parametrize("move", [True, False, 1.0, -1.0, Fraction(1), 0, 2])
def test_moves_are_the_ints_minus_one_and_one(move):
    # True and 1.0 equal 1, but a trace holding them writes a CSV row that
    # read_csv refuses, or turns an exact account into a float
    with pytest.raises(GameError):
        GameTrace().play(Fraction(1), move)
    with pytest.raises(GameError):
        Situation((move,))
    with pytest.raises(GameError):
        moves_of([1, move])


def test_integer_moves_of_other_types_become_ints():
    moves = np.array([1, -1, 1], dtype=np.int8)
    for got in (moves_of(moves), Situation(moves).moves,
                GameTrace().play(Fraction(1), moves[0]).play(Fraction(1), moves[1]).moves):
        assert got == tuple(int(x) for x in moves[:len(got)])
        assert {type(x) for x in got} == {int}


def test_process_values_examples():
    pv = Situation((1, 1, -1))
    assert (pv.n, pv.s, pv.xbar) == (3, 1, Fraction(1, 3))
    pv = Situation()
    assert (pv.n, pv.s, pv.xbar) == (0, 0, Fraction(0))
    pv = Situation((-1, -1))
    assert (pv.n, pv.s, pv.xbar) == (2, -2, Fraction(-1))


@given(moves_lists, st.sampled_from([-1, 1]))
def test_process_values_prefix_consistency(moves, x):
    before = Situation(moves)
    after = Situation(moves + [x])
    assert after.s == before.s + x
    assert after.n == before.n + 1


def test_situation_parsing_and_negation():
    assert Situation.from_string("+1-1+1").moves == (1, -1, 1)
    assert Situation.from_string("+-+").moves == (1, -1, 1)
    assert (-Situation((1, -1))).moves == (-1, 1)
    with pytest.raises(GameError):
        Situation.from_string("+x")


def test_run_game_zero_strategy():
    trace = run_game(ZeroStrategy(), Alternating(), 5)
    assert all(r.capital == 0 for r in trace.rounds)


def test_run_game_constant_stake():
    trace = run_game(ConstantStake(Fraction(1)), FixedPath([1, 1, 1]), 3)
    assert trace.final_capital == 3


def test_run_game_matches_product_formula():
    trace = run_game(MultiplicativeContrarian(Fraction(1, 2)), Alternating(), 4)
    # engine gain is from zero; account wealth 1 + K equals the product
    assert 1 + trace.final_capital == product_capital(trace.moves, Fraction(1, 2))


def test_run_game_keeps_every_round_for_collateral():
    # the collateral check and the running minimum see the dip at round 2
    trace = run_game(AdditiveContrarian(2), FixedPath([-1, -1, 1, 1]), 4)
    assert trace.min_wealth() == -1
    assert check_collateral(trace) is False
    with pytest.raises(TypeError):
        run_game(AdditiveContrarian(2), FixedPath([-1, -1, 1, 1]), 4, record=False)


def test_run_game_negative_horizon():
    with pytest.raises(GameError):
        run_game(ZeroStrategy(), Alternating(), -1)


def test_check_collateral_boundaries():
    t = GameTrace(initial_capital=Fraction(1))
    t.play(Fraction(1), -1)  # K = -1
    assert check_collateral(t)
    t2 = GameTrace(initial_capital=Fraction(1))
    t2.play(Fraction(5, 4), -1)  # K = -5/4
    assert not check_collateral(t2)
    t3 = GameTrace(initial_capital=Fraction(0))
    t3.play(Fraction(1), 1)
    assert check_collateral(t3)


def test_wealth_indexing_and_min():
    t = GameTrace(initial_capital=Fraction(2))
    t.play(Fraction(1), -1)
    t.play(Fraction(1), 1)
    assert t.wealth(0) == 2
    assert t.wealth(1) == 1
    assert t.wealth(2) == 2
    assert t.min_wealth() == 1
    for i in (-1, 3, -3):  # no wrap-around from the end
        with pytest.raises(GameError, match=rf"round {i} is outside 0\.\.2"):
            t.wealth(i)


@pytest.mark.parametrize("value", [Fraction(3, 7), Fraction(-1, 2), Fraction(0), Fraction(5)])
def test_number_round_trip_exact(value):
    assert parse_number(fmt_number(value)) == value


def test_number_round_trip_float():
    assert parse_number(fmt_number(0.125), exact=False) == 0.125


def _example_trace():
    trace = GameTrace(initial_capital=Fraction(1))
    trace.play(Fraction(0), 1)
    trace.play(Fraction(-1, 2), -1)
    trace.play(Fraction(1, 3), 1)
    return trace


def test_csv_round_trip():
    trace = _example_trace()
    buf = io.StringIO()
    trace.write_csv(buf)
    buf.seek(0)
    back = GameTrace.read_csv(buf)
    assert back.rounds == trace.rounds


def test_jsonl_round_trip():
    trace = _example_trace()
    buf = io.StringIO()
    trace.write_jsonl(buf)
    buf.seek(0)
    back = GameTrace.read_jsonl(buf)
    assert back.rounds == trace.rounds


@st.composite
def dyadics(draw):
    bits = draw(st.integers(min_value=0, max_value=64))
    bound = 1 << (bits + 1)
    return draw(st.integers(min_value=-bound, max_value=bound)), bits


@given(dyadics())
def test_fmt_dyadic_is_fmt_number_of_the_fraction(dyadic):
    num, bits = dyadic
    assert fmt_dyadic(num, bits) == fmt_number(Fraction(num, 1 << bits))


@pytest.mark.parametrize("num", [3 ** 9100, 2 * 3 ** 9000, 0, 1 << 14400],
                         ids=["odd", "even", "zero", "one"])
def test_fmt_dyadic_past_int_digit_limit(num):
    # 2**14400 and 3**9100 have over 4300 digits: these take the Decimal route,
    # or reduce to 0/1 and 1/1 at that scale
    assert fmt_dyadic(num, 14400) == fmt_number(Fraction(num, 1 << 14400))
    assert parse_number(fmt_dyadic(num, 14400)) == Fraction(num, 1 << 14400)


def test_numbers_past_int_digit_limit_round_trip():
    # 2**14400 has 4335 digits, over the default limit of str(int)
    tiny = Fraction(1, 1 << 14400)
    text = fmt_number(tiny)
    assert len(text) == len("1/") + 4335
    assert parse_number(text) == tiny
    trace = GameTrace(initial_capital=Fraction(1))
    trace.play(tiny, 1)
    trace.play(-3 * tiny, -1)
    buf = io.StringIO()
    trace.write_csv(buf)
    buf.seek(0)
    assert GameTrace.read_csv(buf).rounds == trace.rounds


def _csv_writer_text(trace):
    """The trace as csv.writer renders it: the writer's own quoting and terminator."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(GameTrace.CSV_COLUMNS)
    for r in trace.rounds:
        writer.writerow([r.n, r.x, fmt_number(r.stake), fmt_number(r.capital), r.s])
    return buf.getvalue()


def _json_dumps_text(trace):
    """The trace as json.dumps renders it, one object per line."""
    return "".join(json.dumps({"n": r.n, "x": r.x, "M": fmt_number(r.stake),
                               "K": fmt_number(r.capital), "s": r.s}) + "\n"
                   for r in trace.rounds)


def _assert_writers_match_oracles(trace):
    csv_buf, jsonl_buf = io.StringIO(), io.StringIO()
    trace.write_csv(csv_buf)
    trace.write_jsonl(jsonl_buf)
    assert csv_buf.getvalue() == _csv_writer_text(trace)
    assert jsonl_buf.getvalue() == _json_dumps_text(trace)


exact_stakes = st.one_of(st.fractions(min_value=-8, max_value=8, max_denominator=10**6),
                         st.integers(min_value=-3, max_value=3))
float_stakes = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.booleans(), st.data())
def test_writers_match_csv_and_json_modules(exact, data):
    stakes = exact_stakes if exact else float_stakes
    rows = data.draw(st.lists(st.tuples(stakes, st.sampled_from([-1, 1])), max_size=30))
    trace = GameTrace(exact=exact)
    for stake, move in rows:
        trace.play(stake, move)
    _assert_writers_match_oracles(trace)


def test_writers_match_csv_and_json_modules_at_the_edges():
    floats = GameTrace(exact=False)
    floats.play(0.1, 1)
    floats.play(0.2, 1)     # K = 0.30000000000000004
    floats.play(-2.5, -1)   # a negative stake
    csv_buf = io.StringIO()
    floats.write_csv(csv_buf)
    assert csv_buf.getvalue().split("\r\n")[:3] == [
        "n,x,M,K,s", "1,1,0.1,0.1,1", "2,1,0.2,0.30000000000000004,2"]
    assert csv_buf.getvalue().endswith("\r\n")
    _assert_writers_match_oracles(floats)
    # 2**14400 has 4335 digits: this row's numbers take _fmt_ratio's Decimal route
    exact = GameTrace()
    exact.play(Fraction(-1, 2), -1)
    exact.play(Fraction(-3, 1 << 14400), 1)
    assert len(fmt_number(exact.rounds[-1].capital)) > 4300
    _assert_writers_match_oracles(exact)


def test_csv_rejects_bad_header():
    for text in ("a,b,c\n", "\n", ""):
        with pytest.raises(GameError, match="unexpected CSV header"):
            GameTrace.read_csv(io.StringIO(text))


HEADER = "n,x,M,K,s\n"
GOOD_ROW = "1,1,1/2,1/2,1\n"


@pytest.mark.parametrize("bad", [
    "1,3,0/1,0/1,0",      # x not +-1
    "2,1,0/1,0/1,1",      # n skips a round
    "1,1,0/1,0/1,2",      # s does not move by x
    "1,-1,1/2,1/2,-1",    # K does not move by M * x
    "1,1,1/2",            # too few fields
    "1,one,0/1,0/1,1",    # not a number
])
def test_csv_reader_rejects_inconsistent_rows(bad):
    with pytest.raises(GameError, match="CSV line 3"):
        GameTrace.read_csv(io.StringIO(HEADER + GOOD_ROW + bad + "\n"))


@pytest.mark.parametrize("bad", [
    '{"n": 1, "x": 3, "M": "0/1", "K": "0/1", "s": 0}',
    '{"n": 1, "x": 1, "M": "1/2", "K": "1/3", "s": 1}',
    '{"n": 1, "x": 1, "M": "0/1", "K": "0/1"}',
    '{"n": 2.0, "x": 1, "M": "0/1", "K": "0/1", "s": 0}',
    'not json',
])
def test_jsonl_reader_rejects_inconsistent_rows(bad):
    with pytest.raises(GameError, match="JSONL line 2"):
        GameTrace.read_jsonl(io.StringIO('{"n": 1, "x": -1, "M": "0/1", "K": "0/1", "s": -1}\n'
                                         + bad + "\n"))


def test_float_reader_compares_k_exactly():
    # 0.1 + 0.2 is not 0.3 in float64, so a written float trace must carry K as summed
    body = HEADER + "1,1,0.1,0.1,1\n2,1,0.2,0.30000000000000004,2\n"
    assert GameTrace.read_csv(io.StringIO(body), exact=False).final_capital == 0.1 + 0.2
    with pytest.raises(GameError, match="CSV line 3"):
        GameTrace.read_csv(io.StringIO(body.replace("0.30000000000000004", "0.3")),
                           exact=False)


@pytest.mark.parametrize("read, body", [
    (GameTrace.read_csv, HEADER + "1,1,0.5,0.5,1\n"),
    (GameTrace.read_jsonl, '{"n": 1, "x": 1, "M": "0.5", "K": "0.5", "s": 1}\n'),
], ids=["csv", "jsonl"])
def test_float_reader_gives_float_wealth(read, body):
    # like run_game(..., exact=False), the initial capital takes the trace's type
    trace = read(io.StringIO(body), exact=False)
    assert [type(trace.wealth(i)) for i in range(2)] == [float, float]
    assert trace.wealth(1) == 1.5


# stopped strategies cover rows with a zero stake
ROUND_TRIP_SPECS = ["stopadd:eps=1", "oneside:N=2,dir=down", "mulc:c=1/2", "q:depth=3",
                    "signforce:cap=16", "zero"]


@given(st.lists(st.sampled_from([-1, 1]), max_size=60), st.sampled_from(ROUND_TRIP_SPECS),
       st.booleans(), st.sampled_from(["csv", "jsonl"]))
@settings(deadline=None, max_examples=80)
def test_simulate_write_read_round_trip(moves, spec, exact, fmt):
    strategy = parse_strategy(spec, exact=exact)
    trace = run_game(strategy, FixedPath(moves), len(moves), exact=exact)
    buf = io.StringIO()
    getattr(trace, f"write_{fmt}")(buf)
    buf.seek(0)
    back = getattr(GameTrace, f"read_{fmt}")(buf, exact=exact)
    assert back.rounds == trace.rounds
    assert [type(r.capital) for r in back.rounds] == [type(r.capital) for r in trace.rounds]


@given(moves_lists)
def test_trace_capital_increments(moves):
    strat = MultiplicativeContrarian(Fraction(1, 2))
    trace = run_game(strat, FixedPath(moves), len(moves))
    prev = Fraction(0)
    for r in trace.rounds:
        assert r.capital - prev == r.stake * r.x
        prev = r.capital


def test_run_game_deterministic_replay():
    a = run_game(MultiplicativeContrarian(Fraction(1, 4)), FixedPath([1, -1, -1, 1]), 4)
    b = run_game(MultiplicativeContrarian(Fraction(1, 4)), FixedPath([1, -1, -1, 1]), 4)
    assert a.rounds == b.rounds


def test_float64_overflow_detection():
    trace = GameTrace(exact=False)
    trace.play(1e308, 1)
    with pytest.raises(GameError):
        trace.play(1e308, 1)
