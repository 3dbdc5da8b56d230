"""Reality sources: fixed paths, seeded coins, greedy and minimax play."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircoin import game, reality
from faircoin.game import Situation, run_game
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
    Mixture,
    MultiplicativeContrarian,
    OneSided,
    SignForcing,
    StoppedAdditive,
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
    with pytest.raises(RealityError):
        Greedy(tie=0)


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
    # the zero bettor's one state_key merges each level to one state
    monkeypatch.setattr(game, "STATE_BUDGET", 4)
    assert worst_case(ZeroStrategy(), 4)[0] == 1
    with pytest.raises(RealityError, match="over the state budget 4"):
        worst_case(ZeroStrategy(), 5)
    with pytest.raises(RealityError):
        worst_case(ZeroStrategy(), 3, objective="median")
    with pytest.raises(RealityError):
        worst_case(OneSided(1), -1)


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


def test_worst_case_too_deep_to_recurse_is_a_reality_error():
    # the walker recurses once per round, so a merging search reaches
    # nearly as deep as the recursion limit (1,000 frames by default)
    assert worst_case(ZeroStrategy(), 900) == (1, (-1,) * 900)
    with pytest.raises(RealityError, match="depth 1200 is too deep to recurse"):
        worst_case(ZeroStrategy(), 1200)


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
        node = node.children()[path[k] == 1]


def plain_minimax(strat, rounds, objective):
    """The oracle: every node of the 2**rounds tree, no memo; ties prefer -1."""
    if rounds == 0:
        return strat.wealth, ()
    best = None
    for x, nxt in zip((-1, 1), strat.children()):
        val, path = plain_minimax(nxt, rounds - 1, objective)
        if objective == "running_min":
            val = min(val, nxt.wealth)
        if best is None or val < best[0]:
            best = val, (x, *path)
    return best


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
    "q exact": lambda: truncated_q(3),
    "q float": lambda: truncated_q(3, exact=False),
    "float mix": lambda: parse_strategy("mix:[1/2@stopadd:eps=1/2;1/4@oneside:N=2;1/4]",
                                        exact=False),
    "exact mix, float parts": lambda: Mixture([
        (Fraction(1, 2), StoppedAdditive(Fraction(1, 2), exact=False)),
        (Fraction(1, 4), OneSided(2, "up", exact=False)),
        (Fraction(1, 4), OneSided(1))]),
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
    for horizon in (1, 6):
        calls.clear()
        run_game(make(), Minimax(make, horizon), horizon)
        assert calls == [horizon]  # one search, over the whole game


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
    assert got_path == Situation.from_string(path).moves
