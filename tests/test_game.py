"""Protocol engine: situations, traces, serialization, game execution."""

import csv
import gc
import io
import json
import re
import struct
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircoin import game
from faircoin.game import (
    GameError,
    GameTrace,
    fmt_number,
    moves_of,
    parse_moves,
    parse_number,
    run_game,
    settle,
    walk_tree,
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
        moves_of([1, move])


def test_integer_moves_of_other_types_become_ints():
    moves = np.array([1, -1, 1], dtype=np.int8)
    for got in (moves_of(moves),
                GameTrace().play(Fraction(1), moves[0]).play(Fraction(1), moves[1]).moves):
        assert got == tuple(int(x) for x in moves[:len(got)])
        assert {type(x) for x in got} == {int}


def test_parse_moves():
    assert parse_moves("+1-1+1") == (1, -1, 1)
    assert parse_moves("+-+") == (1, -1, 1)
    assert parse_moves("-1+") == (-1, 1)
    assert parse_moves("") == ()
    for text, at in (("+x", 1), ("1+", 0), ("+-1-x", 4)):
        message = f"bad move string {text!r} at position {at}"
        with pytest.raises(GameError, match=re.escape(message)):
            parse_moves(text)


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
    # the running minimum sees the dip at round 2, so collateral fails,
    # though the game ends with wealth 5
    trace = run_game(AdditiveContrarian(2), FixedPath([-1, -1, 1, 1]), 4)
    assert trace.min_wealth() == -1
    assert trace.wealth(4) == 5
    with pytest.raises(TypeError):
        run_game(AdditiveContrarian(2), FixedPath([-1, -1, 1, 1]), 4, record=False)


def test_run_game_negative_horizon():
    with pytest.raises(GameError):
        run_game(ZeroStrategy(), Alternating(), -1)


def test_check_collateral_boundaries():
    # collateral holds iff min_wealth() >= 0, round 0 included
    t = GameTrace(initial_capital=Fraction(1))
    t.play(Fraction(1), -1)  # K = -1
    assert t.min_wealth() == 0
    t2 = GameTrace(initial_capital=Fraction(1))
    t2.play(Fraction(5, 4), -1)  # K = -5/4
    assert t2.min_wealth() == Fraction(-1, 4)
    t3 = GameTrace(initial_capital=Fraction(0))
    t3.play(Fraction(1), 1)
    assert t3.min_wealth() == 0
    # no round played: a negative endowment is already short
    assert GameTrace(initial_capital=Fraction(-1)).min_wealth() == -1


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
    # 2**14400 has 4335 digits: this row's numbers take fmt_int's Decimal route
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
    "1,1,half,1/2,1",     # an exact M that is not a number
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


def test_jsonl_reader_skips_blank_lines():
    first = '{"n": 1, "x": -1, "M": "0/1", "K": "0/1", "s": -1}\n'
    second = '{"n": 2, "x": 1, "M": "1/2", "K": "1/2", "s": 0}\n'
    trace = GameTrace.read_jsonl(io.StringIO(first + "\n  \n" + second))
    assert [r.n for r in trace.rounds] == [1, 2] and trace.final_capital == Fraction(1, 2)
    # a row is still named by its line in the file
    with pytest.raises(GameError, match="JSONL line 3"):
        GameTrace.read_jsonl(io.StringIO(first + "\n" + first))


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


# -- settle: the sign of x picks the sum or the difference ---------------------

# floats cover +-0.0, +-inf and subnormals; NaN inputs are left out, as their
# payloads are the platform's.  Ints and Fractions stay inside float range, so
# a float sum of mixed types cannot overflow the conversion.
_accounts = st.one_of(st.floats(allow_nan=False), st.integers(-1 << 64, 1 << 64),
                      st.fractions(min_value=-1 << 64, max_value=1 << 64, max_denominator=1 << 64))


@given(_accounts, _accounts, st.sampled_from([-1, 1]))
def test_settle_is_k_plus_stake_times_x_bit_for_bit(k, stake, x):
    got, want = settle(k, stake, x), k + stake * x
    assert type(got) is type(want)
    if type(want) is float:
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want


@pytest.mark.parametrize("k, stake, x", [(0.0, 0.0, -1), (-0.0, 0.0, -1), (-0.0, -0.0, 1),
                                         (-0.0, 0.0, 1), (float("inf"), float("inf"), -1),
                                         (5e-324, 5e-324, -1), (1.0, 5e-324, 1)])
def test_settle_keeps_the_bits_at_the_float_edges(k, stake, x):
    assert struct.pack("<d", settle(k, stake, x)) == struct.pack("<d", k + stake * x)


# -- settle's zero contract: an exact idle round adds nothing -------------------

_BIG = 1 << 1000  # past the small-int cache, so `is` tells k itself from a sum equal to it
_SETTLE_ACCOUNTS = (_BIG, -3, 0, Fraction(_BIG, 3), Fraction(-7, 1 << 70), Fraction(0),
                    1.5, -0.0, 0.0, -1e300)
_SETTLE_STAKES = (0, Fraction(0), 0.0, -0.0, 2, -_BIG, Fraction(-1, 3), 0.25, -1e-300)


def _returns_k(k, stake) -> bool:
    """The pairings whose zero stake settle returns as k itself: an int
    zero on an int or Fraction account, a Fraction zero on a Fraction one."""
    return not stake and (type(stake) is int and type(k) in (int, Fraction)
                          or type(stake) is Fraction is type(k))


def settle_zero_faults():
    """The (k, stake, x) of the pairings above at which game.settle breaks
    its contract: k itself where _returns_k, else k + stake * x in type,
    in value and, for a float, in bits."""
    faults = []
    for k in _SETTLE_ACCOUNTS:
        for stake in _SETTLE_STAKES:
            for x in (-1, 1):
                got, want = game.settle(k, stake, x), k + stake * x
                if _returns_k(k, stake):
                    ok = got is k
                elif type(want) is float:
                    ok = type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
                else:
                    ok = type(got) is type(want) and got == want
                if not ok:
                    faults.append((k, stake, x))
    return faults


def test_settle_keeps_its_zero_contract():
    assert not settle_zero_faults()
    frac = Fraction(_BIG, 3)
    for x in (-1, 1):
        assert settle(_BIG, 0, x) is _BIG
        assert settle(frac, Fraction(0), x) is frac
        assert type(settle(frac, 0.0, x)) is float
        assert struct.pack("<d", settle(-0.0, 0.0, x)) == struct.pack("<d", -0.0 + 0.0 * x)


# -- settle_product: the wealth times a factor in lowest terms -----------------

# parts of 1, about 2**64 and past 14,400 bits; 6**k shares factors with the
# ratios' denominators 2, 3 and 12, and 119 * 5**k with the factors' numerators
# 7, 17 and 10, so each of the two cross gcds has something to cancel
_WEALTH_PARTS = (1, 6**25, 119 * 5**25, 6**5600, 119 * 5**6210)
# r = +-1 makes the factor 0 on one move, and r = 7/5 makes it -2/5
_PRODUCT_RATIOS = tuple(map(Fraction, ("0", "1/2", "-1/2", "1/3", "-1/3", "5/12", "-5/12",
                                        "1", "-1", "7/5")))


def product_faults():
    """The (w, r, x) whose game.settle_product(w, r, x) is not the public
    w * (1 + r * x) in type, numerator, denominator, == or hash."""
    faults = []
    for p in _WEALTH_PARTS:
        for q in _WEALTH_PARTS:
            for w in (Fraction(p, q), Fraction(-p, q)):
                for r in _PRODUCT_RATIOS:
                    for x in (-1, 1):
                        got, want = game.settle_product(w, r, x), w * (1 + r * x)
                        if (type(got) is not Fraction or got.numerator != want.numerator
                                or got.denominator != want.denominator or got != want
                                or hash(got) != hash(want)):
                            faults.append((w, r, x))
    return faults


def test_settle_product_is_the_public_product_in_lowest_terms():
    assert not product_faults()
    zero = game.settle_product(Fraction(6**5600, 7), Fraction(1), -1)  # the factor d - n is 0
    assert (zero.numerator, zero.denominator) == (0, 1)


def mulc_stake_faults(depth=10):
    """The (c, moves) at which an exact mulc:c hands out a stake that is
    not r * W, with r = -c * s/n and W its wealth, as the public API
    computes it: in type, numerator or denominator."""
    faults = []
    for c in (Fraction(1, 2), Fraction(1, 3)):
        stack = [((), parse_strategy(f"mulc:c={c}"))]
        while stack:
            moves, strat = stack.pop()
            n = len(moves)
            if n == depth:
                continue
            want = -c * Fraction(sum(moves), n) * strat.wealth if n else Fraction(0)
            stake, down, up = strat.children()
            if type(stake) is not Fraction or (stake.numerator, stake.denominator) != (
                    want.numerator, want.denominator):
                faults.append((c, moves))
            stack += [(moves + (-1,), down), (moves + (1,), up)]
    return faults


def test_mulc_hands_out_the_public_product_in_lowest_terms():
    assert not mulc_stake_faults()


# -- walk_tree: the memoised depth-first fold ----------------------------------

def _count_walk(depth, key):
    """walk_tree over the +-1 walk from 0: a node is its position, and its
    value the number of full-length paths below it.  Returns the value, a
    Counter of the (round, position) pairs expanded and the memo hits
    walk_tree counted, after checking its counts against the expansions
    and the children yielded."""
    expanded = Counter()
    yielded = 0

    def expand(s, n):
        nonlocal yielded
        expanded[n, s] += 1
        total = 0
        for x in (-1, 1):
            yielded += n + 1 < depth
            total += 1 if n + 1 == depth else (yield s + x)
        return total

    value, n_expanded, hits = walk_tree(0, depth, expand, key, GameError, "toy")
    # each node visited, the root or a child yielded, is expanded or a memo hit
    assert n_expanded == sum(expanded.values()) and n_expanded + hits == 1 + yielded
    return value, expanded, hits


def test_walk_tree_expands_each_round_and_key_once():
    value, expanded, hits = _count_walk(12, lambda s: s)
    assert value == 1 << 12  # a hit hands back the value its first visit folded
    assert set(expanded) == {(n, s) for n in range(12) for s in range(-n, n + 1, 2)}
    assert set(expanded.values()) == {1}
    # 78 states; 132 children yielded, of which 77 were new
    assert hits == 55


def test_walk_tree_memoises_a_none_value():
    expanded = Counter()
    sent = []

    def expand(s, n):
        expanded[n, s] += 1
        for x in (-1, 1):
            if n + 1 < 10:
                sent.append((yield s + x))
        return None

    assert walk_tree(0, 10, expand, lambda s: s, GameError, "toy")[0] is None
    assert set(expanded.values()) == {1} and len(expanded) == sum(range(1, 11))
    # every inner child is sent back, hits included, and each is None
    assert len(sent) == 2 * sum(range(1, 10)) and set(sent) == {None}


@pytest.mark.parametrize("key", [None, lambda s: None], ids=["key=None", "None key"])
def test_walk_tree_without_a_key_never_merges(key):
    value, expanded, hits = _count_walk(10, key)
    assert value == 1 << 10
    assert sum(expanded.values()) == (1 << 10) - 1 and hits == 0


def test_walk_tree_refuses_a_keyless_root_over_budget_up_front(monkeypatch):
    monkeypatch.setattr(game, "STATE_BUDGET", 7)
    assert _count_walk(3, None)[0] == 8  # 7 inner nodes fit
    expanded = Counter()

    def expand(s, n):
        expanded[n, s] += 1
        yield s

    with pytest.raises(GameError, match=r"toy depth 4 walks all 2\*\*4 - 1 states, over budget"):
        walk_tree(0, 4, expand, None, GameError, "toy")
    assert not expanded  # refused before the root was expanded
    # a keyed walk of that depth merges to 10 states: it is not refused up
    # front, only when it expands an eighth
    with pytest.raises(GameError, match="toy depth 4 is over the state budget 7"):
        _count_walk(4, lambda s: s)
    monkeypatch.setattr(game, "STATE_BUDGET", 10)
    assert _count_walk(4, lambda s: s)[0] == 16


def test_walk_tree_refuses_a_depth_out_of_range_up_front(monkeypatch):
    monkeypatch.setattr(game, "STATE_BUDGET", 7)
    expanded = Counter()

    def expand(s, n):
        expanded[n, s] += 1
        yield s

    with pytest.raises(GameError, match="^toy depth must be >= 1$"):
        walk_tree(0, 0, expand, lambda s: s, GameError, "toy")
    # the depth bound comes first: a keyless root deeper than the budget
    # reads as over it, not as 2**depth - 1 states
    for key in (lambda s: s, None):
        with pytest.raises(GameError, match="^toy depth 8 is over the state budget 7$"):
            walk_tree(0, 8, expand, key, GameError, "toy")
    assert not expanded


def test_walk_tree_that_raises_frees_its_memo_without_the_cycle_collector(monkeypatch):
    class Key:  # hashed by identity; a weak reference shows when the memo lets go
        pass

    keys = []

    def key(s):
        k = Key()
        keys.append(weakref.ref(k))
        return k

    monkeypatch.setattr(game, "STATE_BUDGET", 5)
    gc.disable()
    try:  # depth 5 is within the budget, and its sixth expansion is over it
        with pytest.raises(GameError, match="over the state budget 5"):
            _count_walk(5, key)
        assert len(keys) == 6 and all(k() is None for k in keys)
    finally:
        gc.enable()
