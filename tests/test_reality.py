"""Reality sources: fixed paths, seeded coins, greedy and minimax play."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircoin import game, reality
from faircoin.game import parse_moves, run_game
from faircoin.reality import (
    Alternating,
    FixedPath,
    Greedy,
    IIDCoin,
    Minimax,
    RealityError,
    iid_path,
    parse_reality,
    worst_case,
)
from faircoin.strategies import (
    AdditiveContrarian,
    Mixture,
    MultiplicativeContrarian,
    OneSided,
    SignForcing,
    StoppedAdditive,
    Strategy,
    ZeroStrategy,
    parse_strategy,
    truncated_q,
)

moves_lists = st.lists(st.sampled_from([-1, 1]), max_size=20)


def test_fixed_path_replays_and_exhausts():
    src = FixedPath([1, -1])
    assert src.next_move(Fraction(0)) == 1
    assert src.next_move(Fraction(0)) == -1
    with pytest.raises(RealityError):
        src.next_move(Fraction(0))
    with pytest.raises(RealityError):  # refused when built, not when round 2 is played
        FixedPath([1, 0])


def test_alternating():
    src = Alternating()
    assert [src.next_move(0) for _ in range(4)] == [1, -1, 1, -1]


def test_iid_reproducible():
    src = IIDCoin(42)
    a = [src.next_move(0) for _ in range(50)]
    b = IIDCoin(42)
    assert a == [b.next_move(0) for _ in range(50)]
    assert a == iid_path(42, 50)
    assert iid_path(42, 50) != iid_path(43, 50)


def test_greedy_sign_rule():
    g = Greedy()
    assert g.next_move(Fraction(1, 4)) == -1
    assert g.next_move(Fraction(-2)) == 1
    assert g.next_move(Fraction(0)) == -1
    assert Greedy(tie=1).next_move(Fraction(0)) == 1
    assert Greedy(tie=np.int64(1)).tie == 1
    for tie in (0, True, 1.0):  # True and 1.0 equal 1, but are no move
        with pytest.raises(RealityError):
            Greedy(tie=tie)


def test_greedy_never_gives_positive_gain():
    trace = run_game(MultiplicativeContrarian(Fraction(1, 2)), Greedy(), 30)
    assert all(r.stake * r.x <= 0 for r in trace.rounds)


def test_worst_case_one_sided():
    value, path = worst_case(OneSided(1, "down"), 4)
    assert value == 0          # wealth 1 + gain: hit locks gain at -1
    assert path[0] == -1


def test_worst_case_objectives_and_caps(monkeypatch):
    val_final, _ = worst_case(StoppedAdditive(Fraction(1, 2)), 8)
    val_min, _ = worst_case(StoppedAdditive(Fraction(1, 2)), 8, objective="running_min")
    assert val_min <= val_final
    # the unstopped additive bettor's state_key merges each level d to d
    # states, so depth d expands d(d + 1)/2: 10 at depth 4, 15 at depth 5
    monkeypatch.setattr(game, "STATE_BUDGET", 10)
    assert worst_case(AdditiveContrarian(2), 4).nodes_expanded == 10
    with pytest.raises(RealityError, match="minimax depth 5 is over the state budget 10"):
        worst_case(AdditiveContrarian(2), 5)
    # the zero bettor is stopped from the start: only its root is expanded,
    # and a path longer than the budget is refused before the walk
    result = worst_case(ZeroStrategy(), 10)
    assert (type(result[0]), result, result.nodes_expanded) == (Fraction, (1, (-1,) * 10), 1)
    with pytest.raises(RealityError, match="minimax depth 11 is over the state budget 10"):
        worst_case(ZeroStrategy(), 11)
    with pytest.raises(RealityError):
        worst_case(ZeroStrategy(), 3, objective="median")
    with pytest.raises(RealityError):
        worst_case(OneSided(1), -1)


def test_worst_case_at_depth_zero_is_the_wealth_now():
    strat = OneSided(2)
    strat.next_stake()
    strat.observe(-1)
    result = worst_case(strat, 0)
    assert result == (strat.wealth, ()) == (Fraction(1, 2), ())
    assert type(result[0]) is Fraction and (result.nodes_expanded, result.memo_hits) == (0, 0)
    mulc = MultiplicativeContrarian(Fraction(1, 2))  # a product account hands out its _k
    assert worst_case(mulc, 0)[0] is mulc.wealth


def test_worst_case_value_is_built_as_wealth_builds_it():
    # an integer account is folded on numerators over _den; the value handed
    # out is the one Fraction wealth would build from the best numerator
    value, _ = worst_case(parse_strategy("pathbet:target=+-+,budget=1/8"), 3)
    assert value is game.ZERO  # wiped out by the first miss
    strat = StoppedAdditive(Fraction(1, 8))
    assert strat._den == 8
    for objective in ("final", "running_min"):
        value, path = worst_case(StoppedAdditive(Fraction(1, 8)), 6, objective=objective)
        want, want_path = plain_minimax(strat, 6, objective)
        assert (type(value), value, value.denominator, path) == (Fraction, want, 4, want_path)


def test_parse_reality_refuses_a_negative_minimax_depth():
    # refused at parsing, before any horizon is compared or a move is asked for
    for horizon in (None, 0):
        with pytest.raises(RealityError, match=r"minimax depth must be >= 0, got -1$"):
            parse_reality("minimax:depth=-1", ZeroStrategy, horizon)


def test_worst_case_state_budget_without_a_state_key(monkeypatch):
    # SignForcing has no state_key, so its search expands 2**rounds - 1
    # states and is refused before it starts (only that check names the
    # tree's size) one level past the budget: at 2**6 depth 7, at the
    # default 2**22 depth 23
    with monkeypatch.context() as patch:
        patch.setattr(game, "STATE_BUDGET", 1 << 6)
        assert worst_case(SignForcing(), 6) == (Fraction(1, 4), (-1, 1, 1, -1, 1, 1))
        with pytest.raises(RealityError, match=r"all 2\*\*7 - 1 states"):
            worst_case(SignForcing(), 7)
    with pytest.raises(RealityError, match=r"all 2\*\*23 - 1 states"):
        worst_case(SignForcing(), 23)


class Idle(Strategy):
    """Bets zero without ever stopping: worst_case walks it as a chain,
    one expanded state a round."""

    def __init__(self):
        super().__init__(Fraction(1), den=1)

    def _stake(self):
        return 0

    def state_key(self):
        return ("idle",)


def test_worst_case_too_deep_to_recurse_is_a_reality_error():
    # depth 5000 is past the interpreter's recursion limit (1,000 frames by
    # default) and is not an error: the walker keeps its path on a list, so
    # only the state budget bounds its depth.  Each round held on that path
    # keeps one fold and one strategy, about 1.3 KB.
    assert worst_case(Idle(), 900) == (1, (-1,) * 900)
    tracemalloc.start()
    try:
        result = worst_case(Idle(), 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (1, (-1,) * 5000) and result.nodes_expanded == 5000
    assert peak < 10 * 2**20


@pytest.mark.parametrize("objective", ["final", "running_min"])
@pytest.mark.parametrize("make", [
    lambda: OneSided(3, "up", exact=False),
    lambda: OneSided(2, "down", exact=False),
    lambda: StoppedAdditive(Fraction(1, 2), exact=False),
    lambda: MultiplicativeContrarian(Fraction(1, 4), exact=False),
    lambda: OneSided(3, "up"),
])
def test_worst_case_path_agrees_with_a_fresh_search_from_every_prefix(make, objective):
    # a memo hit that reuses a value from a different state (float gains
    # reached by different move orders round differently) breaks this
    rounds = 9
    _, path = worst_case(make(), rounds, objective=objective)
    node = make()
    for k in range(rounds):
        assert worst_case(node, rounds - k, objective=objective)[1] == path[k:], k
        _, down, up = node.children()
        node = up if path[k] == 1 else down


def plain_minimax(strat, rounds, objective):
    """The oracle: every node of the 2**rounds tree, no memo; ties prefer -1."""
    if rounds == 0:
        return strat.wealth, ()
    best = None
    _, down, up = strat.children()
    for x, nxt in ((-1, down), (1, up)):
        val, path = plain_minimax(nxt, rounds - 1, objective)
        if objective == "running_min":
            val = min(val, nxt.wealth)
        if best is None or val < best[0]:
            best = val, (x, *path)
    return best


def hedging_sign_forcing():
    """SignForcing(hedge_cap=16) fed +1, -1: back at the origin at round 2,
    its account already re-based onto the scale of its first hedge."""
    strat = SignForcing(hedge_cap=16)
    for x in (1, -1):
        strat.next_stake()
        strat.observe(x)
    return strat


MINIMAX_CASES = {
    **{f"stopadd m={m}": lambda m=m: StoppedAdditive(Fraction(2, m)) for m in (1, 2, 4, 8)},
    "oneside down": lambda: OneSided(2, "down"),
    "oneside up": lambda: OneSided(3, "up"),
    "stopadd float": lambda: StoppedAdditive(Fraction(1, 2), exact=False),
    "oneside float": lambda: OneSided(3, "up", exact=False),
    "mulc": lambda: parse_strategy("mulc:c=1/3"),
    "addc": lambda: parse_strategy("addc:eps=1/3"),
    "pathbet": lambda: parse_strategy("pathbet:target=+-+,budget=1/8"),
    "zero": lambda: ZeroStrategy(),
    "signforce": lambda: SignForcing(),
    "signforce, hedging at the root": hedging_sign_forcing,
    "q exact": lambda: truncated_q(3),
    "q float": lambda: truncated_q(3, exact=False),
    "float mix": lambda: parse_strategy("mix:[1/2@stopadd:eps=1/2;1/4@oneside:N=2;1/4]",
                                        exact=False),
    "exact mix, float parts": lambda: Mixture([
        (Fraction(1, 2), StoppedAdditive(Fraction(1, 2), exact=False)),
        (Fraction(1, 4), OneSided(2, "up", exact=False)),
        (Fraction(1, 4), OneSided(1))]),
    "mix, all parts stop": lambda: parse_strategy("mix:[1/2@stopadd:eps=2;1/2@oneside:N=1]"),
    "mix, stopped at the root": lambda: parse_strategy("mix:[1/2@zero;1/2]", exact=False),
}


@pytest.mark.parametrize("make", MINIMAX_CASES.values(), ids=MINIMAX_CASES)
def test_worst_case_memo_agrees_with_the_plain_minimax(make):
    # the memo trusts each hand-written state_key to hold the whole state
    for rounds in range(1, 10):
        for objective in ("final", "running_min"):
            value, path = worst_case(make(), rounds, objective=objective)
            want, want_path = plain_minimax(make(), rounds, objective)
            assert (type(value), value, path) == (type(want), want, want_path), (rounds, objective)


def test_worst_case_does_not_mutate_strategy():
    strat = OneSided(2, "down")
    worst_case(strat, 6)
    assert strat.n == 0 and strat.gain == 0


def test_minimax_source_plays_worst_path():
    trace = run_game(OneSided(1, "down"), Minimax(lambda: OneSided(1, "down"), 4), 4)
    assert trace.final_capital == -1
    assert 1 + trace.final_capital == 0
    # the play-out is the path of one search, so it ends at the worst-case value
    for spec in ("stopadd:eps=2/4", "oneside:N=2,dir=up", "mulc:c=1/2", "addc:eps=1"):
        def make():
            return parse_strategy(spec)
        trace = run_game(make(), Minimax(make, 7), 7)
        value, path = worst_case(make(), 7)
        assert 1 + trace.final_capital == value, spec
        assert trace.moves == path, spec
    # a deep search: its path, flattened from the memo's shared cells, has
    # every move, and replaying it reaches the value
    value, path = worst_case(StoppedAdditive(Fraction(1, 2)), 100)
    assert len(path) == 100
    replay = run_game(StoppedAdditive(Fraction(1, 2)), FixedPath(path), 100)
    assert 1 + replay.final_capital == value


def test_minimax_searches_once_per_game(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return worst_case(*args, **kwargs)

    def make():
        return StoppedAdditive(Fraction(1, 2))

    monkeypatch.setattr(reality, "worst_case", counting)
    for horizon, nodes, hits in ((1, 1, 0), (6, 11, 4)):
        calls.clear()
        source = Minimax(make, horizon)
        assert source.search is None
        run_game(make(), source, horizon)
        assert calls == [horizon]  # one search, over the whole game
        # the source keeps that search, with its counts
        assert source.search == worst_case(make(), horizon)
        assert (source.search.nodes_expanded, source.search.memo_hits) == (nodes, hits)


def test_minimax_desync_detection():
    src = Minimax(lambda: OneSided(1, "down"), 3)
    with pytest.raises(RealityError):
        src.next_move(Fraction(7))  # the real one-sided stake is 1


def test_minimax_refuses_moves_past_its_horizon():
    with pytest.raises(RealityError, match="past its horizon 2"):
        run_game(OneSided(1), Minimax(lambda: OneSided(1), 2), 4)


def test_minimax_below_greedy_below_fixed():
    def fresh():
        return StoppedAdditive(Fraction(1, 2))

    depth = 8
    mm_value, _ = worst_case(fresh(), depth)
    greedy_value = 1 + run_game(fresh(), Greedy(), depth).final_capital
    fixed_min = min(
        1 + run_game(fresh(), FixedPath(
            [1 if (bits >> i) & 1 else -1 for i in range(depth)]), depth).final_capital
        for bits in range(1 << depth))
    # minimax attains the minimum over all paths; greedy, being one
    # realized path of a deterministic strategy, can only sit above it
    assert mm_value <= greedy_value
    assert mm_value == fixed_min
    assert fixed_min <= greedy_value


@given(moves_lists)
def test_worst_case_lower_bounds_any_path(moves):
    if not moves:
        return
    value, _ = worst_case(OneSided(2, "down"), len(moves))
    played = 1 + run_game(OneSided(2, "down"), FixedPath(moves), len(moves)).final_capital
    assert value <= played


def test_parse_reality_kinds():
    assert isinstance(parse_reality("fixed:+1-1"), FixedPath)
    assert isinstance(parse_reality("alt"), Alternating)
    assert isinstance(parse_reality("iid:seed=7"), IIDCoin)
    assert isinstance(parse_reality("greedy:tie=1"), Greedy)
    mm = parse_reality("minimax:depth=6", strategy_factory=lambda: ZeroStrategy())
    assert isinstance(mm, Minimax)
    with pytest.raises(RealityError):
        parse_reality("minimax:depth=6")
    with pytest.raises(RealityError, match="horizon 7 exceeds the minimax depth 6"):
        parse_reality("minimax:depth=6", strategy_factory=ZeroStrategy, horizon=7)
    assert parse_reality("minimax:depth=6", strategy_factory=ZeroStrategy, horizon=3).horizon == 3
    with pytest.raises(RealityError):
        parse_reality("oracle")


# worst_case at depth 12 for the acceptance sweep's strategies: value and
# path are pinned so that a change to the search cannot move them unseen,
# ties included (-1 first, then whatever the memo saw first)
WORST_CASE_PINS = [
    ("stopadd:eps=2/1", "final", "1", "------------"),
    ("stopadd:eps=2/1", "running_min", "1", "------------"),
    ("stopadd:eps=2/2", "final", "0", "------------"),
    ("stopadd:eps=2/2", "running_min", "0", "------------"),
    ("stopadd:eps=2/4", "final", "0", "-+----------"),
    ("stopadd:eps=2/4", "running_min", "0", "-+----------"),
    ("stopadd:eps=2/8", "final", "0", "--+-+-------"),
    ("stopadd:eps=2/8", "running_min", "0", "--+-+-------"),
    ("oneside:N=1,dir=down", "final", "0", "------------"),
    ("oneside:N=1,dir=down", "running_min", "0", "------------"),
    ("oneside:N=1,dir=up", "final", "0", "-----++++++-"),
    ("oneside:N=1,dir=up", "running_min", "0", "-----++++++-"),
    ("oneside:N=2,dir=down", "final", "0", "------------"),
    ("oneside:N=2,dir=down", "running_min", "0", "------------"),
    ("oneside:N=2,dir=up", "final", "0", "-----+++++++"),
    ("oneside:N=2,dir=up", "running_min", "0", "-----+++++++"),
    ("oneside:N=3,dir=down", "final", "0", "------------"),
    ("oneside:N=3,dir=down", "running_min", "0", "------------"),
    ("oneside:N=3,dir=up", "final", "0", "----+++++++-"),
    ("oneside:N=3,dir=up", "running_min", "0", "----+++++++-"),
]


@pytest.mark.parametrize("spec, objective, value, path", WORST_CASE_PINS)
def test_worst_case_pinned_at_depth_12(spec, objective, value, path):
    got_value, got_path = worst_case(parse_strategy(spec), 12, objective=objective)
    assert got_value == Fraction(value)
    assert got_path == parse_moves(path)


# worst_case's work at depth 12, in (nodes expanded, memo hits): a mixture is
# settled as a leaf once all its components have stopped, and q never stops
MIXTURE_WORK_PINS = [
    ("mix:[1/2@zero;1/2]", 1, 0),
    ("mix:[1/2@stopadd:eps=1/2;1/4@oneside:N=2;1/4]", 116, 62),
    ("mix:[1/2@stopadd:eps=2;1/2@oneside:N=1]", 42, 25),
    ("q:depth=3", 1911, 64),
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("spec, nodes, hits", MIXTURE_WORK_PINS)
def test_worst_case_of_a_mixture_expands_a_pinned_number_of_nodes(spec, nodes, hits, exact):
    result = worst_case(parse_strategy(spec, exact=exact), 12)
    assert (result.nodes_expanded, result.memo_hits) == (nodes, hits)
