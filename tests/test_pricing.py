"""Value tables, price brackets, absorption census, and replication."""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircoin import pricing
from faircoin.pricing import (
    PricingError,
    bracket_series,
    delta_hedge_bet,
    enumerate_absorption,
    eta_table,
    replicate_and_verify,
    upper_price_bracket,
)
from faircoin.stopping import TicketStatus, boundary_exceeds, ticket_Y
from test_acceptance import _absorbed_negative_full_count


# -- eta tables -------------------------------------------------------------

def test_eta_l0_root_is_half():
    for h in (1, 2, 5, 9):
        assert eta_table(0, h).root_value == Fraction(1, 2)
        assert eta_table(0, h, "one").root_value == Fraction(1, 2)


def test_eta_l4_hand_values():
    assert eta_table(4, 2).root_value == Fraction(1, 4)
    assert eta_table(4, 4).root_value == Fraction(3, 8)


# offsets from 15 up let the boundary outrun the walk's reach in the first rounds
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=40))
@settings(deadline=None, max_examples=80)
def test_strip_matches_reachable_unabsorbed_states(l, horizon):
    table = eta_table(l, horizon)
    live = {0}
    for n in range(horizon + 1):
        if n:
            live = {c for s in live for c in (s - 1, s + 1)
                    if not boundary_exceeds(n, c, l)}
        for s in range(-horizon - 1, horizon + 2):
            assert table.is_live(n, s) == (s in live), (n, s)


def test_eta_rejects_bad_args():
    with pytest.raises(PricingError):
        eta_table(0, 0)
    with pytest.raises(PricingError):
        eta_table(-1, 4)
    with pytest.raises(PricingError):
        eta_table(0, 4, "three-quarters")


@pytest.mark.parametrize("n, s", [(1, 3), (1, 4), (2, 1), (3, -4), (4, 6)])
def test_child_value_rejects_impossible_states(n, s):
    # |s| > n, or s of the wrong parity: no path reaches (n, s)
    with pytest.raises(PricingError, match="impossible"):
        eta_table(0, 5).child_value(n, s)


def test_eta_martingale_recursion():
    table = eta_table(4, 8)
    for n in range(8):
        for s in range(-n, n + 1):
            if table.is_live(n, s):
                avg = (table.child_value(n + 1, s + 1)
                       + table.child_value(n + 1, s - 1)) / 2
                assert table.value(n, s) == avg


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=10))
def test_eta_values_are_dyadic(l, horizon):
    table = eta_table(l, horizon)
    for n in range(horizon + 1):
        for s in range(-n, n + 1):
            if table.is_live(n, s):
                v = table.value(n, s)
                assert 0 <= v <= 1
                assert v.denominator & (v.denominator - 1) == 0  # power of two


def test_eta_half_tail_root_exactly_half():
    for l in (0, 2, 4, 9):
        for h in (max(1, l // 2), 6, 11):
            assert eta_table(l, h, "half").root_value == Fraction(1, 2)


# -- delta hedge ------------------------------------------------------------

def test_delta_hedge_one_step_replication():
    table = eta_table(0, 1)
    bet = delta_hedge_bet(table, 0, 0)
    assert bet == Fraction(-1, 2)
    start = table.root_value
    assert start + bet * (-1) == 1   # pays the negative absorption
    assert start + bet * (+1) == 0


def test_delta_hedge_rejects_dead_states():
    with pytest.raises(PricingError):
        delta_hedge_bet(eta_table(0, 2), 1, -1)  # absorbed at n=1
    with pytest.raises(PricingError):
        delta_hedge_bet(eta_table(4, 2), 2, 0)   # would look past the horizon


def test_delta_hedge_self_financing_playout():
    # hedge from the matching-tail value replicates the payoff exactly on
    # every absorbed path of a small tree
    l, h = 4, 6
    table = eta_table(l, h, "zero")
    stack = [(0, 0, table.root_value)]
    while stack:
        n, s, w = stack.pop()
        if n == h:
            assert w == table.value(n, s)
            continue
        bet = delta_hedge_bet(table, n, s)
        for x in (-1, 1):
            c = s + x
            w2 = w + bet * x
            if boundary_exceeds(n + 1, c, l):
                assert w2 == (1 if c < 0 else 0)
            else:
                stack.append((n + 1, c, w2))


def _child_value_by_value_or_payoff(table, n, s):
    if table.is_live(n, s):
        return table.value(n, s)
    assert boundary_exceeds(n, s, table.l)
    return Fraction(int(s < 0))


@given(st.integers(min_value=0, max_value=13), st.integers(min_value=1, max_value=64),
       st.sampled_from(["zero", "one", "half"]))
@settings(deadline=None, max_examples=60)
def test_delta_hedge_bet_is_half_the_child_value_spread(l, horizon, tail):
    table = eta_table(l, horizon, tail)
    for n in range(horizon):
        for s in range(-n, n + 1, 2):
            if not table.is_live(n, s):
                continue
            up, down = table.child_value(n + 1, s + 1), table.child_value(n + 1, s - 1)
            assert up == _child_value_by_value_or_payoff(table, n + 1, s + 1)
            assert down == _child_value_by_value_or_payoff(table, n + 1, s - 1)
            assert delta_hedge_bet(table, n, s) == (up - down) / 2


# -- brackets ---------------------------------------------------------------

def test_bracket_examples():
    b = upper_price_bracket(4, 2)
    assert (b.lower, b.upper) == (Fraction(1, 4), Fraction(3, 4))
    assert b.live_mass == Fraction(1, 2)
    assert repr(b) == "PriceBracket(l=4, horizon=2, lower=Fraction(1, 4), upper=Fraction(3, 4))"
    b = upper_price_bracket(4, 4)
    assert (b.lower, b.upper) == (Fraction(3, 8), Fraction(5, 8))
    for h in (1, 3, 8):
        b = upper_price_bracket(0, h)
        assert (b.lower, b.upper) == (Fraction(1, 2), Fraction(1, 2))


def test_bracket_series_matches_eta_roots():
    for l in (0, 1, 4):
        series = bracket_series(l, 12)
        assert len(series) == 12
        for b in series:
            direct = upper_price_bracket(l, b.horizon)
            assert (b.lower, b.upper) == (direct.lower, direct.upper)
            assert b == direct and hash(b) == hash(direct)


def test_bracket_series_matches_fractions_from_the_sweep():
    for l in range(10):
        series = bracket_series(l, 64)
        lower, upper = Fraction(0), Fraction(1)
        for h, (_, new_neg, new_pos) in enumerate(pricing._absorption_sweep(l, 64), start=1):
            lower += Fraction(new_neg, 1 << h)
            upper -= Fraction(new_pos, 1 << h)
            b = series[h - 1]
            assert (b.l, b.horizon, b.lower, b.upper, b.live_mass) == (
                l, h, lower, upper, upper - lower)
            assert bracket_series(l, h) == series[:h]


def series_lines_are_the_json_lines():
    # the first line, rounds where lower is 0, and long runs that alternate
    # between reused and absorbing lines
    return all(list(pricing.series_json_lines(l, h))
               == [b.json_line() for b in bracket_series(l, h)]
               for l in range(16) for h in (1, 2, 3, 50, 700))


def test_series_lines_are_the_json_lines():
    assert series_lines_are_the_json_lines()


def test_upper_bracket_roots_are_the_table_roots():
    for l in range(10):
        for h in range(1, 65):
            b = upper_price_bracket(l, h)
            assert (b.lower, b.upper) == (eta_table(l, h, "zero").root_value,
                                          eta_table(l, h, "one").root_value)
    with pytest.raises(PricingError):
        upper_price_bracket(0, 0)
    with pytest.raises(PricingError):
        upper_price_bracket(-1, 4)


def test_upper_bracket_holds_one_level_at_a_time():
    # two full value tables to horizon 2048 take about 9 MB; one level takes kilobytes
    tracemalloc.start()
    try:
        b = upper_price_bracket(4, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b == bracket_series(4, 2048)[-1]
    assert peak < 1 << 20


def test_bracket_fractions_are_built_once():
    for b in (bracket_series(4, 9)[-1], upper_price_bracket(4, 9)):
        assert b.lower is b.lower and b.upper is b.upper and b.live_mass is b.live_mass


@given(st.integers(min_value=0, max_value=9))
@settings(deadline=None)
def test_bracket_nesting_and_symmetry(l):
    series = bracket_series(l, 40)
    prev = None
    for b in series:
        assert Fraction(1, 2) in b
        assert b.lower + b.upper == 1  # negative mass == positive mass
        if prev is not None:
            assert b.lower >= prev.lower and b.upper <= prev.upper
        prev = b


# -- absorption census ------------------------------------------------------

def test_census_l0():
    c = enumerate_absorption(0, 3)
    assert c.a == (1, 0, 0)
    assert c.b_k == 4 == 2 ** 2


def test_census_l4():
    c = enumerate_absorption(4, 4)
    assert c.a == (0, 1, 0, 2)
    assert c.b_k == 6
    assert c.budget_sum == Fraction(3, 8)


def test_census_cap():
    # the census has no depth cap: k = 40 is checked against the acceptance
    # gate's independent whole-sequence count
    for l in (0, 1, 4, 9):
        census = enumerate_absorption(l, 40)
        for k in range(1, 41):
            b_k = sum(a << (k - i) for i, a in enumerate(census.a[:k], start=1))
            assert b_k == _absorbed_negative_full_count(l, k)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=12))
@settings(deadline=None, max_examples=30)
def test_census_matches_brute_force(l, k):
    # independent route: classify all 2^k sequences by first boundary hit
    brute = [0] * k
    for bits in range(1 << k):
        s = 0
        for n in range(1, k + 1):
            s += 1 if (bits >> (n - 1)) & 1 else -1
            if boundary_exceeds(n, s, l):
                if s < 0:
                    brute[n - 1] += 1
                break
    # brute counts full sequences; divide by the free tail 2^(k-n)
    a = tuple(brute[i] >> (k - i - 1) for i in range(k))
    census = enumerate_absorption(l, k)
    assert census.a == a
    assert census.b_k <= 1 << (k - 1)
    assert census.budget_sum <= Fraction(1, 2)


def test_absorbed_situations_agree_with_census():
    for l in (0, 1, 4):
        targets = absorbed_negative_situations(l, 10)
        census = enumerate_absorption(l, 10)
        by_len = [0] * 10
        for t in targets:
            assert ticket_Y(t, l) is TicketStatus.PAID_1
            assert ticket_Y(t[:-1], l) is TicketStatus.UNDETERMINED
            by_len[len(t) - 1] += 1
        assert tuple(by_len) == census.a


@pytest.mark.parametrize("sweep", [bracket_series, enumerate_absorption, replicate_and_verify])
def test_sweeps_reject_a_negative_offset(sweep):
    with pytest.raises(PricingError, match="offset l must be >= 0"):
        sweep(-1, 3)
    with pytest.raises(PricingError, match="offset l must be >= 0"):
        sweep(-2, 3)


# -- replication ------------------------------------------------------------

def test_replicate_l0_one_step():
    report = replicate_and_verify(0, 1)
    assert report["ok"]
    assert report["upper_start"] == Fraction(1, 2)


def test_replicate_l4_depth8():
    report = replicate_and_verify(4, 8)
    assert report["ok"]
    assert report["portfolio_cost"] == enumerate_absorption(4, 8).budget_sum


def test_replicate_portfolio_cost_example():
    report = replicate_and_verify(4, 4)
    assert report["portfolio_cost"] == Fraction(3, 8)
    assert report["portfolio_targets"] == 3


def test_replicate_past_the_old_depth_cap():
    # the strip sweep is polynomial in the horizon, so it has no depth cap
    report = replicate_and_verify(4, 256)
    census = enumerate_absorption(4, 256)
    assert report["upper_start"] == bracket_series(4, 256)[-1].upper
    assert report["portfolio_cost"] == census.budget_sum
    assert report["portfolio_targets"] == sum(census.a)


@pytest.mark.parametrize("l", [0, 1, 4, 9])
def test_replicate_matches_the_path_walk(l):
    for h in range(1, 13):
        assert replicate_and_verify(l, h) == path_walk_replicate_and_verify(l, h), h


# each bad numerator is caught first by the check whose message is ``match``: the
# down move from its lower parent misses it, or the horizon's tail is off
BAD_TABLES = [
    ("one", 4, 0, "one-tail hedge misses its table at (n=4, s=-2)"),
    ("zero", 4, 0, "zero-tail hedge misses its table at (n=4, s=-2)"),
    ("one", 7, -1, "one-tail hedge misses its table at (n=7, s=-3)"),
    ("zero", 7, -1, "zero-tail hedge misses its table at (n=7, s=-3)"),
    ("one", 0, 0, "one-tail hedge misses its table at (n=1, s=-1)"),
    ("one", 10, 0, "one-tail hedge ends off its payoff at the horizon 10"),
]


@pytest.mark.parametrize("tail, n, s, match", BAD_TABLES,
                         ids=[f"{tail}-{n}-{s}" for tail, n, s, _ in BAD_TABLES])
def test_replication_catches_a_bad_table(monkeypatch, tail, n, s, match):
    l, h = 9, 10
    real = pricing.eta_table

    def bad(l_, horizon, tail_value="zero"):
        table = real(l_, horizon, tail_value)
        if tail_value == tail:  # the numerator at the live state (n, s) one too big
            assert table.is_live(n, s)
            table._levels[n][(s + table._widths[n]) // 2] += 1
        return table

    assert replicate_and_verify(l, h)["ok"]
    monkeypatch.setattr(pricing, "eta_table", bad)
    with pytest.raises(PricingError, match=re.escape(match)):
        replicate_and_verify(l, h)


# -- the path walk, kept as an independent oracle ---------------------------
# Every path is played on its own: the delta hedge by a stack walk, and the
# path-bettor portfolio by a walk over a trie of the enumerated
# absorbed-negative situations.  Its cost grows like 2**horizon.

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


def path_walk_replicate_and_verify(l: int, horizon: int) -> dict:
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
                payoff = 1 if c < 0 else 0
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
