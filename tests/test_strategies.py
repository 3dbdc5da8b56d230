"""Betting strategies: closed forms, stop rules, mixtures, parsing."""

import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircoin import pricing, verify
from faircoin.game import run_game
from faircoin.reality import FixedPath
from faircoin.strategies import (
    AdditiveContrarian,
    Mixture,
    MultiplicativeContrarian,
    OneSided,
    PathBettor,
    SignForcing,
    StoppedAdditive,
    Strategy,
    StrategyError,
    ZeroStrategy,
    parse_strategy,
    truncated_q,
)
from faircoin.verify import _snapshot, additive_capital, product_capital

moves_lists = st.lists(st.sampled_from([-1, 1]), max_size=30)


def feed(strategy, moves):
    stakes = []
    for x in moves:
        stakes.append(strategy.next_stake())
        strategy.observe(x)
    return stakes


# -- multiplicative contrarian ---------------------------------------------

def test_mulc_hand_values():
    strat = MultiplicativeContrarian(Fraction(1, 2))
    assert strat.next_stake() == 0
    strat.observe(1)
    assert strat.wealth == 1
    assert strat.next_stake() == Fraction(-1, 2)
    strat.observe(1)
    assert strat.wealth == Fraction(1, 2)


def test_mulc_gains_on_reversal():
    strat = MultiplicativeContrarian(Fraction(1, 2))
    feed(strat, [1, -1])
    assert strat.wealth == Fraction(3, 2)


def test_mulc_first_round_no_bet():
    for c in (Fraction(1, 2), Fraction(1, 8)):
        strat = MultiplicativeContrarian(c)
        feed(strat, [1])
        assert strat.wealth == 1


@pytest.mark.parametrize("c", [0, Fraction(-1, 4), Fraction(3, 4), 1])
def test_mulc_rejects_bad_c(c):
    with pytest.raises(StrategyError):
        MultiplicativeContrarian(c)


@given(moves_lists, st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]))
def test_mulc_matches_product_and_stays_positive(moves, c):
    strat = MultiplicativeContrarian(c)
    feed(strat, moves)
    assert strat.wealth == product_capital(moves, c)
    assert strat.wealth > 0


PRODUCT_SPECS = ["mulc:c=1/2", "mulc:c=1/3", "mulc:c=1/8", "q:depth=5"]
product_paths = st.lists(st.sampled_from([-1, 1]), max_size=64)


def _direct_wealth(spec, moves):
    """verify.product_capital of a mulc spec; for q, the weighted sum of its
    components' products plus its idle tail."""
    if spec.startswith("mulc"):
        return product_capital(moves, Fraction(spec.partition("=")[2]))
    return sum((Fraction(1, 1 << i) * product_capital(moves, Fraction(1, 1 << i))
                for i in range(1, 6)), Fraction(1, 32))


def _additive_float_mulc(c, moves):
    """(stake, gain) per round of a float64 mulc as an additive account
    computes them: the stake -c * (s / n) * (w0 + k), and k + stake or
    k - stake by the sign of the move."""
    w0, k, n, s, rows = 1.0, 0.0, 0, 0, []
    for x in moves:
        stake = 0.0 if n == 0 else -c * (s / n) * (w0 + k)
        k = k + stake if x == 1 else k - stake
        n, s = n + 1, s + x
        rows.append((stake, k))
    return rows


def _additive_float_q(depth, moves):
    comps = [(2.0 ** -i, _additive_float_mulc(2.0 ** -i, moves)) for i in range(1, depth + 1)]
    k, rows = 0.0, []
    for j, x in enumerate(moves):
        stake = sum((w * c_rows[j][0] for w, c_rows in comps), 0.0)
        k = k + stake if x == 1 else k - stake
        rows.append((stake, k))
    return rows


@given(product_paths, st.sampled_from(PRODUCT_SPECS))
@settings(deadline=None, max_examples=60)
def test_exact_wealth_is_the_settled_stakes_and_the_direct_product(moves, spec):
    strategy = parse_strategy(spec)
    stakes = feed(strategy, moves)
    settled = 1 + sum((m * x for m, x in zip(stakes, moves)), Fraction(0))
    assert strategy.wealth == settled == _direct_wealth(spec, moves)
    assert strategy.gain == settled - 1 and strategy.initial_capital == 1


@given(product_paths, st.sampled_from(PRODUCT_SPECS))
@settings(deadline=None, max_examples=60)
def test_float_stakes_and_gains_are_those_of_an_additive_account(moves, spec):
    strategy = parse_strategy(spec, exact=False)
    rows = []
    for x in moves:
        stake = strategy.next_stake()
        strategy.observe(x)
        rows.append((stake.hex(), strategy.gain.hex()))
    if spec.startswith("mulc"):
        want = _additive_float_mulc(float(Fraction(spec.partition("=")[2])), moves)
    else:
        want = _additive_float_q(5, moves)
    assert rows == [(m.hex(), k.hex()) for m, k in want]


# -- additive contrarian ----------------------------------------------------

def test_addc_hand_values():
    strat = AdditiveContrarian(Fraction(1, 2))
    feed(strat, [1, 1])
    assert strat.gain == Fraction(-1, 2)

    strat = AdditiveContrarian(1)
    feed(strat, [1, -1, 1, -1])
    assert strat.gain == 2


def test_addc_rejects_nonpositive_eps():
    with pytest.raises(StrategyError):
        AdditiveContrarian(0)


@given(moves_lists, st.sampled_from([Fraction(2), Fraction(1), Fraction(2, 7)]))
def test_addc_closed_form(moves, eps):
    strat = AdditiveContrarian(eps)
    feed(strat, moves)
    assert strat.gain == additive_capital(len(moves), sum(moves), eps)


@given(st.integers(min_value=1, max_value=10), st.fractions(min_value="1/100", max_value=3))
def test_addc_zero_sum_capital(k, eps):
    # any path returning to s = 0 has gain (eps/2) * n
    moves = [1, -1] * k
    strat = AdditiveContrarian(eps)
    feed(strat, moves)
    assert strat.gain == eps * len(moves) / 2


# -- stopped additive -------------------------------------------------------

def test_stopadd_rejects_bad_eps():
    for eps in (Fraction(3), Fraction(3, 4), 0, -1):
        with pytest.raises(StrategyError):
            StoppedAdditive(eps)
    # 2/4 normalizes to 1/2 but still has the 2/m form (m = 4)
    assert StoppedAdditive(Fraction(2, 4)).m == 4


def test_stopadd_m1_bets_first_round_then_stops_on_drop():
    strat = StoppedAdditive(Fraction(2))
    stakes = feed(strat, [-1, -1, -1])
    # guard at i=1 passes ((0+1)^2 <= 2); at i=2, s_1=-1 gives 4 > 3
    assert stakes[0] == 0
    assert strat.stopped
    assert all(st_ == 0 for st_ in stakes[1:])
    assert strat.wealth >= 0


def test_stopadd_m1_stops_even_on_alternating():
    # the m=1 guard (|s_1|+1)^2 = 4 > 2+1 trips at i=2 on every path
    strat = StoppedAdditive(Fraction(2))
    feed(strat, [1, -1, 1, -1])
    assert strat.stopped
    assert strat.gain == 0


@pytest.mark.parametrize("m", [2, 4, 8])
def test_stopadd_never_stops_on_alternating(m):
    eps = Fraction(2, m)
    strat = StoppedAdditive(eps)
    feed(strat, [1, -1] * 10)
    assert not strat.stopped
    assert strat.gain == eps * 20 / 2


def test_stopadd_guard_is_integer_form():
    # eps = 2/4: bets continue exactly while (|s_{i-1}|+1)^2 <= i + 4
    strat = StoppedAdditive(Fraction(2, 4))
    moves = [-1, -1, -1, -1]
    stakes = feed(strat, moves)
    # s_1=-1: 4 <= 6; s_2=-2: 9 > 7 -> stop at i=3
    assert stakes[1] != 0 and stakes[2] == 0
    assert strat.stopped


# -- one sided --------------------------------------------------------------

def test_one_sided_down_hand_values():
    strat = OneSided(2, "down")
    gains = []
    for x in [-1, -1, -1]:
        strat.next_stake()
        strat.observe(x)
        gains.append(strat.gain)
    assert gains == [Fraction(-1, 2), Fraction(-1), Fraction(-1)]
    assert strat.stopped


def test_one_sided_up_immediate_hit():
    strat = OneSided(1, "up")
    feed(strat, [1, 1, 1])
    assert strat.gain == -1
    assert strat.stopped


def test_one_sided_pre_hit_capital():
    strat = OneSided(3, "down")
    feed(strat, [1, 1])
    assert strat.gain == Fraction(2, 3)


def test_one_sided_rejects_bad_args():
    with pytest.raises(StrategyError):
        OneSided(0, "down")
    with pytest.raises(StrategyError):
        OneSided(2, "sideways")


SIZE_REFUSALS = {
    "oneside-true": lambda: OneSided(True),
    "oneside-float": lambda: OneSided(3.0),
    "oneside-fraction": lambda: OneSided(Fraction(3)),
    "signforce-cap-float": lambda: SignForcing(hedge_cap=4.5),
    "signforce-cap-true": lambda: SignForcing(hedge_cap=True),
    "signforce-run-float": lambda: SignForcing(run_horizon=10.0),
    "signforce-run-negative": lambda: SignForcing(run_horizon=-1),
    "q-true": lambda: truncated_q(True),
    "q-float": lambda: truncated_q(2.0),
    "q-zero": lambda: truncated_q(0),
}


@pytest.mark.parametrize("build", SIZE_REFUSALS.values(), ids=SIZE_REFUSALS.keys())
def test_sizes_refuse_bool_and_non_integers(build):
    # True equals 1 and 4.5 compares fine, but neither is a size
    with pytest.raises(StrategyError, match="must be an integer >= "):
        build()


def test_sizes_take_numpy_integers():
    strat = OneSided(np.int64(3))
    assert type(strat.N) is int
    feed(strat, [1, 1])
    assert strat.gain == Fraction(2, 3)
    forcing = SignForcing(hedge_cap=np.int64(64), run_horizon=np.int32(10))
    assert (type(forcing.hedge_cap), type(forcing.run_horizon)) == (int, int)
    feed(forcing, [1, -1])
    assert forcing._table.horizon == 8
    assert len(truncated_q(np.int64(3)).components) == 3


@given(moves_lists, st.integers(min_value=1, max_value=3),
       st.sampled_from(["down", "up"]))
def test_one_sided_capital_formula(moves, N, direction):
    sign = 1 if direction == "down" else -1
    strat = OneSided(N, direction)
    s = 0
    hit = False
    for x in moves:
        strat.next_stake()
        strat.observe(x)
        s += x
        hit = hit or sign * s <= -N
        expect = Fraction(-1) if hit else Fraction(sign * s, N)
        assert strat.gain == expect
        assert strat.wealth >= 0


# -- path bettor ------------------------------------------------------------

def test_path_bettor_one_step():
    win = PathBettor((-1,), Fraction(1, 2))
    feed(win, [-1])
    assert win.wealth == 1
    lose = PathBettor((-1,), Fraction(1, 2))
    feed(lose, [1])
    assert lose.wealth == 0


def test_path_bettor_doubles_twice():
    strat = PathBettor((1, 1), Fraction(1, 4))
    feed(strat, [1, 1])
    assert strat.wealth == 1
    strat = PathBettor((1, 1), Fraction(1, 4))
    feed(strat, [1, -1])
    assert strat.wealth == 0


def test_path_bettor_empty_target():
    strat = PathBettor((), Fraction(1, 3))
    feed(strat, [1, -1])
    assert strat.wealth == Fraction(1, 3)


@pytest.mark.parametrize("move", [1.0, True, 0], ids=["float", "bool", "zero"])
def test_path_bettor_refuses_a_target_move_observe_refuses(move):
    # observe() refuses these moves, so a target holding one is refused when
    # built, not at its first stake (1.0) or taken as +1 (True)
    with pytest.raises(StrategyError, match="move must be -1 or \\+1"):
        PathBettor([move, -1], Fraction(1, 2))


def test_path_bettor_takes_numpy_integer_moves():
    strat = PathBettor([np.int64(1), -1], Fraction(1, 4))
    assert [type(y) for y in strat.target] == [int, int]
    feed(strat, [1, -1])
    assert strat.wealth == 1


@given(moves_lists, st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=6))
def test_path_bettor_all_or_nothing(moves, target):
    budget = Fraction(1, 1 << len(target))
    strat = PathBettor(tuple(target), budget)
    feed(strat, moves)
    if len(moves) >= len(target):
        expect = 1 if tuple(moves[:len(target)]) == tuple(target) else 0
        assert strat.wealth == expect
    assert strat.wealth >= 0


# -- mixtures ---------------------------------------------------------------

def test_mixture_degenerate_equals_component():
    moves = [1, 1, -1, 1]
    mix = Mixture([(Fraction(1), MultiplicativeContrarian(Fraction(1, 2)))])
    solo = MultiplicativeContrarian(Fraction(1, 2))
    assert feed(mix, moves) == feed(solo, moves)
    assert mix.gain == solo.gain


# a mixture whose components both stop: stopadd at its guard, oneside at -1 or +1
STOPPING_MIX = ("mix:[1/2@stopadd:eps=2;1/2@oneside:N=1]",
                [(Fraction(1, 2), "stopadd:eps=2"), (Fraction(1, 2), "oneside:N=1")])


def mixture_paths_off_their_parts():
    """The (exact, moves) of each path of 8 moves along which STOPPING_MIX
    stakes other than the weighted sum of its parts' stakes, or holds
    other than tail + their weighted wealth, the parts played standalone
    from fresh copies beside it."""
    spec, parts = STOPPING_MIX
    tail = 1 - sum(w for w, _ in parts)
    bad = []
    for exact in (True, False):
        num = Fraction if exact else float
        for bits in range(1 << 8):
            moves = tuple(1 if bits >> i & 1 else -1 for i in range(8))
            mixture = parse_strategy(spec, exact=exact)
            shadow = [(num(w), parse_strategy(part, exact=exact)) for w, part in parts]
            for x in moves:
                want = sum((w * s.next_stake() for w, s in shadow), num(0))
                stake = mixture.next_stake()
                mixture.observe(x)
                for _, s in shadow:
                    s.observe(x)
                wealth = sum((w * s.wealth for w, s in shadow), num(tail))
                if (type(stake), stake, type(mixture.wealth), mixture.wealth) != (
                        num, want, num, wealth):
                    bad.append((exact, moves))
                    break
    return bad


def test_mixture_weighted_stakes():
    comps = [(Fraction(1, 1 << i), MultiplicativeContrarian(Fraction(1, 1 << i)))
             for i in range(1, 4)]
    shadow = [(w, s.clone()) for w, s in comps]
    mix = Mixture(comps, tail_weight=Fraction(1, 8))
    for x in [1, 1, -1, -1, 1]:
        expect = sum(w * s.next_stake() for w, s in shadow)
        assert mix.next_stake() == expect
        mix.observe(x)
        for _, s in shadow:
            s.observe(x)
    # and on every path of a mixture that stops once both its parts have
    assert not mixture_paths_off_their_parts()


def test_mixture_of_zero_strategies():
    mix = Mixture([(Fraction(1, 2), ZeroStrategy()), (Fraction(1, 2), ZeroStrategy())])
    feed(mix, [1, -1, 1])
    assert mix.gain == 0


def test_mixture_rejects_bad_weights():
    with pytest.raises(StrategyError):
        Mixture([(Fraction(1, 2), ZeroStrategy())])  # sums to 1/2
    with pytest.raises(StrategyError):
        Mixture([(Fraction(0), ZeroStrategy())], tail_weight=Fraction(1))


@given(moves_lists)
def test_mixture_gain_is_weighted_component_gain(moves):
    mix = truncated_q(depth=4)
    feed(mix, moves)
    assert mix.gain == mix.component_gain()


def test_truncated_q_weights_sum_to_one():
    q = truncated_q(depth=6)
    total = sum(w for w, _ in q.components) + q.tail_weight
    assert total == 1
    assert q.tail_weight == Fraction(1, 64)


# -- sign forcing -----------------------------------------------------------

def test_sign_forcing_first_hedge_bet():
    # excursion starting at the origin return w=2: half the wealth buys
    # offset-2 tickets; at (rel 0, s 0) the symmetric table gives bet 0
    # only when absorption is not one step away, so probe the w=0-like
    # case through the table directly instead: the offset-0 one-step
    # hedge stakes -1/2 per unit ticket.
    from faircoin.pricing import delta_hedge_bet, eta_table
    table = eta_table(0, 1, "half")
    assert delta_hedge_bet(table, 0, 0) == Fraction(-1, 2)


def test_sign_forcing_multipliers_on_short_paths():
    # (-1,+1) returns to the origin at 2; (-1) then hits the boundary at 3
    strat = SignForcing(hedge_cap=64)
    feed(strat, [-1, 1, -1])
    assert len(strat.excursion_log) == 1
    out = strat.excursion_log[0]
    assert (out.w, out.v, out.side, out.hedged) == (2, 3, -1, True)
    assert out.multiplier == Fraction(3, 2)

    strat = SignForcing(hedge_cap=64)
    feed(strat, [-1, 1, 1])
    out = strat.excursion_log[0]
    assert (out.side, out.multiplier) == (1, Fraction(1, 2))


def test_sign_forcing_wealth_compounds():
    # two completed negative excursions multiply wealth by (3/2)^2:
    # w=2 absorbs at 3; w=4 needs two steps (4 > 5 fails, 9 > 6 holds)
    strat = SignForcing(hedge_cap=64)
    feed(strat, [-1, 1, -1, 1, -1, -1])
    assert [e.multiplier for e in strat.excursion_log] == [Fraction(3, 2)] * 2
    assert strat.wealth == Fraction(9, 4)


def test_sign_forcing_excursion_outlives_its_table():
    # cap 8: the excursion from w = 4 gets a table to relative round 8 (n = 12),
    # and alternating moves stay inside the boundary past it
    strat = SignForcing(hedge_cap=8)
    feed(strat, [1, 1, -1, -1] + [1, -1] * 4)
    assert (strat.n, strat._w, strat._table, strat.excursion_log) == (12, 4, None, [])
    assert strat.wealth == 1  # the half table is worth its root 1/2 at the horizon
    stakes = feed(strat, [-1, -1, -1])  # carried without bets until the hit at n = 15
    assert stakes == [0, 0, 0]
    assert strat.excursion_log == [(4, 15, -1, Fraction(1), False)]


def test_sign_forcing_table_stops_at_the_run_horizon():
    strat = SignForcing(run_horizon=10)
    feed(strat, [1, -1])  # w = 2: min(1024, 64, 10 - 2) = 8 >= 2 * 2 rounds
    assert strat._table.horizon == 8
    strat = SignForcing(run_horizon=10)
    feed(strat, [1, 1, -1, -1])  # w = 4: 10 - 4 = 6 < 8, too late to attempt
    assert (strat._w, strat._table, strat.next_stake()) == (4, None, 0)


def sign_forcing_settlement_faults(depth=10, cap=64):
    """The faults of SignForcing(hedge_cap=cap) played on every path of
    ``depth`` moves, one (path, what) pair each.  Each logged multiplier
    must be exactly 3/2 (a hit below) or 1/2 (above) when hedged and 1
    otherwise, the initial capital 1 and the gain the wealth minus 1.  The
    wealth must be the product of the multipliers, times 1/2 + V(n - w, s)
    while a hedge from w is still open: half the wealth at w is cash, and
    the other half bought W_w tickets at the half table's root 1/2, which
    the hedge carries at the table's value.  Every re-base of the account
    must keep all three at their scale."""
    faults = []
    for bits in range(1 << depth):
        path = [1 if bits >> i & 1 else -1 for i in range(depth)]
        strat = SignForcing(hedge_cap=cap)
        feed(strat, path)
        product = Fraction(1)
        for e in strat.excursion_log:
            want = (Fraction(3, 2) if e.side == -1 else Fraction(1, 2)) if e.hedged else 1
            if e.multiplier != want:
                faults.append((path, f"multiplier {e.multiplier} at w={e.w}, want {want}"))
            product *= e.multiplier
        if strat._table is not None:
            product *= Fraction(1, 2) + strat._table.value(strat.n - strat._w, strat.s)
        if strat.wealth != product:
            faults.append((path, f"wealth {strat.wealth}, want {product}"))
        if strat.gain != strat.wealth - 1 or strat.initial_capital != 1:
            faults.append((path, f"gain {strat.gain} from capital {strat.initial_capital}"))
    return faults


def test_sign_forcing_settles_every_path_exactly():
    assert not sign_forcing_settlement_faults()


def test_sign_forcing_rebases_onto_its_hedge_scale():
    # the origin return at w = 2 hedges to horizon 64: D = 1 * 2**65 holds
    # every stake, and the wealth 1 is D over D
    strat = SignForcing(hedge_cap=64)
    feed(strat, [1, -1])
    assert (strat._den, strat._w0, strat._k) == (1 << 65, 1 << 65, 0)
    stake = strat.next_stake()
    assert type(stake) is Fraction and type(strat._pending) is int
    assert Fraction(strat._pending, strat._den) == stake


def test_sign_forcing_refuses_a_stake_off_its_scale(monkeypatch):
    # a stake whose denominator does not divide D fails, never truncated
    strat = SignForcing(hedge_cap=64)
    feed(strat, [1, -1])
    monkeypatch.setattr(pricing, "delta_hedge_bet", lambda *args: Fraction(1, 3))
    with pytest.raises(StrategyError, match=r"stake 1/3 is not an integer over"):
        strat.next_stake()
    assert strat._pending is None


def test_sign_forcing_wealth_never_negative():
    strat = SignForcing(hedge_cap=64)
    for x in [1, -1, -1, 1, 1, 1, -1, -1, -1, -1, 1, 1]:
        strat.next_stake()
        strat.observe(x)
        assert strat.wealth >= 0


# -- spec parsing -----------------------------------------------------------

@pytest.mark.parametrize("spec,cls", [
    ("mulc:c=1/2", MultiplicativeContrarian),
    ("addc:eps=2/7", AdditiveContrarian),
    ("stopadd:eps=2/4", StoppedAdditive),
    ("oneside:N=3,dir=up", OneSided),
    ("pathbet:target=+1-1,budget=1/4", PathBettor),
    ("signforce:cap=256", SignForcing),
    ("q:depth=5", Mixture),
    ("zero", ZeroStrategy),
])
def test_parse_strategy_kinds(spec, cls):
    assert isinstance(parse_strategy(spec), cls)


def test_parse_strategy_mixture():
    mix = parse_strategy("mix:[1/2@mulc:c=1/2;1/4@zero;1/4]")
    assert isinstance(mix, Mixture)
    assert mix.tail_weight == Fraction(1, 4)
    assert len(mix.components) == 2


def test_parse_strategy_rejects_unknown():
    with pytest.raises(StrategyError):
        parse_strategy("martingale:doubling")


def test_parse_strategy_refuses_a_second_tail():
    # a second bare tail once replaced the first, so 1/2 + 1/2 + 1/2 passed as 1
    with pytest.raises(StrategyError, match="one tail weight, got 2"):
        parse_strategy("mix:[1/2@zero;1/2;1/2]")
    assert parse_strategy("mix:[1/2@zero;;1/2]").tail_weight == Fraction(1, 2)


def test_parsed_strategy_plays_identically():
    moves = [1, -1, -1, 1, -1]
    a = parse_strategy("mulc:c=1/4")
    b = MultiplicativeContrarian(Fraction(1, 4))
    assert feed(a, moves) == feed(b, moves)


# -- cloning ----------------------------------------------------------------

@given(moves_lists.filter(lambda m: len(m) >= 2))
def test_clone_is_independent(moves):
    strat = StoppedAdditive(Fraction(1, 2))
    feed(strat, moves[: len(moves) // 2])
    twin = strat.clone()
    rest = moves[len(moves) // 2:]
    feed(strat, rest)
    feed(twin, rest)
    assert strat.gain == twin.gain
    assert strat.stopped == twin.stopped


def _state(strat):
    """Everything a strategy carries, component accounts included."""
    out = dict(vars(strat))
    if "components" in out:
        out["components"] = [(w, _state(s)) for w, s in out["components"]]
    if "excursion_log" in out:
        out["excursion_log"] = [repr(e) for e in out["excursion_log"]]
    return out


CHILDREN_CASES = [
    (lambda: MultiplicativeContrarian(Fraction(1, 2)), [1, 1, -1]),
    (lambda: MultiplicativeContrarian(Fraction(1, 4), exact=False), [1, -1, -1]),
    (lambda: AdditiveContrarian(Fraction(2)), [-1, -1]),
    # (|s| + 1)^2 = 4 > 2 + m: the guard trips at the next stake
    (lambda: StoppedAdditive(Fraction(2)), [1]),
    (lambda: StoppedAdditive(Fraction(1, 2)), [-1, -1, -1]),
    (lambda: OneSided(2, "down"), [-1]),
    (lambda: OneSided(1, "up"), [1, -1]),
    (lambda: PathBettor([1, -1, 1], Fraction(1, 2)), [1]),
    (lambda: truncated_q(3), [1, 1]),
    (lambda: Mixture([(Fraction(1, 2), StoppedAdditive(Fraction(1))),
                      (Fraction(1, 4), OneSided(1))], Fraction(1, 4)), [1]),
    # hedging the excursion from w = 4; the +1 child absorbs it and logs it
    (lambda: SignForcing(), [1, 1, -1, -1, 1]),
    (lambda: ZeroStrategy(), [1]),
]


@pytest.mark.parametrize("make, moves", CHILDREN_CASES, ids=[
    "mulc", "mulc-float", "addc", "stopadd-guard-trips", "stopadd-stopped", "oneside-down",
    "oneside-up", "pathbet", "q", "mixture", "signforce", "zero"])
def test_children_leave_the_parent_and_match_a_replay(make, moves):
    parent = make()
    feed(parent, moves)
    before = _state(parent)
    _, down, up = parent.children()
    assert _state(parent) == before
    for x, child in ((-1, down), (1, up)):
        replay = make()
        feed(replay, moves + [x])
        assert _state(child) == _state(replay)


def test_spectator_observe_counts_as_zero_stake():
    strat = MultiplicativeContrarian(Fraction(1, 2))
    strat.observe(1)  # no next_stake() first
    assert strat.gain == 0
    assert strat.n == 1


@pytest.mark.parametrize("move", [True, False, 1.0, -1.0, Fraction(-1), 0])
def test_observe_takes_only_the_ints_minus_one_and_one(move):
    for strat in (ZeroStrategy(), MultiplicativeContrarian(Fraction(1, 2))):
        strat.next_stake()
        with pytest.raises(StrategyError):
            strat.observe(move)
        assert (strat.n, strat.s, strat.gain) == (0, 0, 0)


def test_observe_converts_numpy_moves_to_ints():
    strat = ZeroStrategy()
    strat.observe(np.int64(-1))
    assert type(strat.s) is int and strat.s == -1


def test_double_next_stake_rejected():
    strat = ZeroStrategy()
    strat.next_stake()
    with pytest.raises(StrategyError):
        strat.next_stake()


# -- replay against a plain running sum -----------------------------------

def _running_sums(start, stakes, moves):
    k, out = start, []
    for m, x in zip(stakes, moves):
        k = k + m * x
        out.append(k)
    return out


@given(st.lists(st.sampled_from([-1, 1]), max_size=80),
       st.sampled_from(["stopadd:eps=1", "oneside:N=2,dir=down", "signforce:cap=16", "q:depth=4"]),
       st.booleans())
@settings(deadline=None, max_examples=80)
def test_replayed_csv_matches_plain_running_sum(moves, spec, exact):
    strategy = parse_strategy(spec, exact=exact)
    buf = io.StringIO()
    run_game(strategy, FixedPath(moves), len(moves), exact=exact).write_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    num = Fraction if exact else float
    k, s = num(0), 0
    for i, (row, x) in enumerate(zip(rows, moves), start=1):
        k += num(row[2]) * x
        s += x
        assert (int(row[0]), int(row[1]), num(row[3]), int(row[4])) == (i, x, k, s)
    assert len(rows) == len(moves)
    if exact:
        assert strategy.gain == k


# Zero stakes of another number type than the account: the account takes
# whatever type k + stake * x has, so a float zero turns a Fraction into a float.
MIXED = [
    ("exact stop rule, exact trace", lambda: StoppedAdditive(1), True, Fraction),
    ("float zero bettor, exact trace", lambda: ZeroStrategy(exact=False), True, float),
    ("float stop rule, exact trace", lambda: StoppedAdditive(1, exact=False), True, float),
    ("exact one-sided, float trace", lambda: OneSided(1), False, float),
    ("exact mixture of float and exact parts",
     lambda: Mixture([(Fraction(1, 2), StoppedAdditive(1, exact=False)),
                      (Fraction(1, 2), OneSided(1))]), True, float),
    ("float mixture of exact parts",
     lambda: Mixture([(Fraction(1, 2), StoppedAdditive(1)), (Fraction(1, 2), OneSided(1))],
                     exact=False), True, float),
]


@pytest.mark.parametrize("make, exact, capital_type", [case[1:] for case in MIXED],
                         ids=[case[0] for case in MIXED])
def test_mixed_number_types_follow_the_plain_sum(make, exact, capital_type):
    moves = [-1, -1, 1, 1, 1, -1, -1, -1]
    zero = Fraction(0) if exact else 0.0
    trace = run_game(make(), FixedPath(moves), len(moves), exact=exact)
    assert type(trace.final_capital) is capital_type
    want = _running_sums(zero, [r.stake for r in trace.rounds], moves)
    assert [(type(r.capital), r.capital) for r in trace.rounds] == [(type(k), k) for k in want]

    strategy = make()
    stakes = feed(strategy, moves)
    want = _running_sums(Fraction(0) if strategy.exact else 0.0, stakes, moves)[-1]
    assert (type(strategy.gain), strategy.gain) == (type(want), want)


# -- one numeric-mode switch ------------------------------------------------

# one spec per parse_strategy kind; the path stops stopadd, oneside and
# pathbet (zero stakes) and starts a signforce hedge at its origin return
SWITCH_SPECS = ["mulc:c=1/2", "addc:eps=2/7", "stopadd:eps=2/4", "oneside:N=2,dir=down",
                "pathbet:target=+1-1,budget=1/4", "signforce:cap=16", "q:depth=3", "zero",
                "mix:[1/2@mulc:c=1/2;1/4@oneside:N=1;1/4]"]
SWITCH_MOVES = [-1, -1, 1, 1, 1, -1, -1, -1, 1, 1]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("spec", SWITCH_SPECS)
def test_exact_flag_sets_every_number_type(spec, exact):
    # signforce hedges with exact value tables, so it is exact in both modes
    num = Fraction if exact or spec.startswith("signforce") else float
    strategy = parse_strategy(spec, exact=exact)
    assert type(strategy.initial_capital) is num
    stakes = feed(strategy, SWITCH_MOVES)
    assert [type(m) for m in stakes] == [num] * len(SWITCH_MOVES)
    assert type(strategy.gain) is num

    trace = run_game(parse_strategy(spec, exact=exact), FixedPath(SWITCH_MOVES),
                     len(SWITCH_MOVES), exact=exact)
    want = Fraction if exact else float
    assert type(trace.initial_capital) is want
    assert {type(r.stake) for r in trace.rounds} | {type(r.capital) for r in trace.rounds} \
        == {want}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("spec", SWITCH_SPECS)
def test_next_stake_changes_nothing_but_the_pending_stake(spec, exact):
    # a stop rule takes effect in observe(), so announcing a stake is no event
    strategy = parse_strategy(spec, exact=exact)
    for x in SWITCH_MOVES:
        before = _snapshot((strategy,))
        strategy.next_stake()
        assert _snapshot((strategy,)) == before
        strategy.observe(x)


# -- memo keys and children() -------------------------------------------------

# the attributes a bettor's future never reads, which its state_key leaves
# out: a zero bettor never bets, a path bettor reads only n and its account
UNREAD = {ZeroStrategy: ("s",), PathBettor: ("s",)}


def by_value(v, unread=None):
    """v's state, compared by value: a strategy becomes its type and a dict
    of its attributes, recursively, but for the announced stake and the
    names ``unread`` gives for its type; a list or tuple becomes a tuple."""
    if isinstance(v, Strategy):
        skip = ("_pending", *(unread or {}).get(type(v), ()))
        return type(v), {name: by_value(x, unread) for name, x in vars(v).items()
                         if name not in skip}
    if isinstance(v, (list, tuple)):
        return tuple(by_value(x, unread) for x in v)
    return v


def tree_states(root, depth):
    """The states of root's game tree, one list per round 0..depth."""
    rounds = [[root]]
    for _ in range(depth):
        rounds.append([child for strat in rounds[-1] for child in strat.children()[1:]])
    return rounds


# every spec kind in both modes, mulc at constants whose walks differ, and
# a mixture that stops
KEY_ROOTS = [(spec, exact) for spec in (*SWITCH_SPECS, STOPPING_MIX[0])
             for exact in (True, False)] + [
    (f"mulc:c={c}", exact) for c in ("1/3", "2/5") for exact in (True, False)]


def unsound_keys(key, roots=KEY_ROOTS, depth=8, unread=None):
    """The (spec, round) of each pair of states that share a non-None
    ``key(strategy)`` at one round but differ by value (see by_value):
    a memo keyed on it would merge states with different futures."""
    bad = []
    for spec, exact in roots:
        for n, states in enumerate(tree_states(parse_strategy(spec, exact=exact), depth)):
            seen = {}
            for strat in states:
                if (k := key(strat)) is not None \
                        and seen.setdefault(k, by_value(strat, unread)) != by_value(strat, unread):
                    bad.append((spec, exact, n))
    return bad


def test_state_keys_and_snapshots_merge_only_equal_states():
    assert not unsound_keys(lambda strat: strat.state_key(), unread=UNREAD)
    assert not unsound_keys(lambda strat: verify._snapshot(strat))


def moving_stopped_bettors(roots=KEY_ROOTS, depth=8):
    """The (spec, exact, round) of each stopped state whose stake is not
    the account's zero, or one of whose children is not stopped at the
    same wealth, by type and value: reality.worst_case settles a stopped
    bettor as a leaf and trusts that it never moves again."""
    bad = []
    for spec, exact in roots:
        for n, states in enumerate(tree_states(parse_strategy(spec, exact=exact), depth)):
            for strat in states:
                if not strat.stopped:
                    continue
                stake, down, up = strat.children()
                held = (type(strat.wealth), strat.wealth)
                if (type(stake), stake) != (held[0], 0) or any(
                        not child.stopped or (type(child.wealth), child.wealth) != held
                        for child in (down, up)):
                    bad.append((spec, exact, n))
    return bad


def test_stopped_is_permanent():
    assert not moving_stopped_bettors()


def test_a_hedging_signforce_snapshot_hashes():
    strat = SignForcing(hedge_cap=16)
    feed(strat, [1, -1])  # back at the origin: the hedge holds a value table
    assert strat._table is not None
    twin = SignForcing(hedge_cap=16)
    feed(twin, [1, -1])  # its own table, equal by value
    assert twin._table is not strat._table
    assert hash(verify._snapshot((strat,))) == hash(verify._snapshot((twin,)))


def test_exact_mulc_children_are_the_product():
    strat = MultiplicativeContrarian(Fraction(1, 2))
    feed(strat, [1, 1, -1])
    _, down, up = strat.children()
    assert [child.wealth for child in (down, up)] == [
        product_capital([1, 1, -1, x], Fraction(1, 2)) for x in (-1, 1)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("spec", SWITCH_SPECS)
def test_children_are_a_clone_played_one_round(spec, exact):
    for states in tree_states(parse_strategy(spec, exact=exact), 5):
        for strat in states:
            before = by_value(strat)
            played = []
            for x in (-1, 1):
                clone = strat.clone()
                stake = clone.next_stake()
                clone.observe(x)
                played.append(by_value(clone))
            handed_out, down, up = strat.children()
            assert type(handed_out) is type(stake) and handed_out == stake
            assert [by_value(down), by_value(up)] == played
            assert by_value(strat) == before
