"""Oracles and exhaustive identity sweeps."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircoin import game, verify
from faircoin.reality import worst_case
from faircoin.strategies import MultiplicativeContrarian, OneSided, StoppedAdditive, Strategy
from faircoin.verify import (
    CHECKS,
    VerifyError,
    additive_capital,
    exhaustive,
    exhaustive_additive_check,
    exhaustive_log_bound_check,
    exhaustive_one_sided_check,
    exhaustive_product_check,
    exhaustive_stopped_additive_check,
    exhaustive_summation_check,
    log_bound_margin_curve,
    log_capital_bound_margin,
    mulc_capital_curve,
    product_capital,
    summation_identity_sides,
)

moves_lists = st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=30)


# -- single-prefix oracles --------------------------------------------------

def test_product_capital_hand_values():
    assert product_capital([1, 1], Fraction(1, 2)) == Fraction(1, 2)
    assert product_capital([1, -1], Fraction(1, 2)) == Fraction(3, 2)
    assert product_capital([1], Fraction(1, 4)) == 1  # empty product
    assert product_capital([], Fraction(1, 4)) == 1


@given(moves_lists, st.sampled_from([Fraction(1, 2), Fraction(1, 4)]))
def test_product_capital_factors_positive(moves, c):
    assert product_capital(moves, c) > 0


def test_summation_identity_hand_values():
    assert summation_identity_sides([1, 1]) == (1, 1)
    assert summation_identity_sides([1, -1]) == (-1, -1)
    assert summation_identity_sides([1, 1, -1, 1, -1, -1, 1]) == (Fraction(-11, 30),
                                                                  Fraction(-11, 30))
    with pytest.raises(VerifyError):
        summation_identity_sides([1])


@given(moves_lists)
def test_summation_identity_random(moves):
    lhs, rhs = summation_identity_sides(moves)
    assert lhs == rhs


def test_log_bound_examples():
    # exact floats, so a change in the order of float operations shows
    assert log_capital_bound_margin([1, -1] * 50, Fraction(1, 2)) == 0.3290574372987287
    assert log_capital_bound_margin([1] * 50, Fraction(1, 4)) == 1.286976241475383
    with pytest.raises(VerifyError, match="needs length >= 2"):
        log_capital_bound_margin([1], Fraction(1, 2))


def test_additive_capital_oracle():
    assert additive_capital(2, 2, eps=Fraction(1, 2)) == Fraction(-1, 2)
    assert additive_capital(4, 0, Fraction(1)) == 2
    assert additive_capital(1, 1, Fraction(2)) == 0


# -- exhaustive sweeps ------------------------------------------------------

def test_exhaustive_product_depth8():
    for c in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        report = exhaustive_product_check(c, 8)
        assert report.passed and report.paths_checked == 256


def test_exhaustive_summation_depth10():
    assert exhaustive_summation_check(10).passed


def test_exhaustive_log_bound_depth10():
    assert exhaustive_log_bound_check(Fraction(1, 2), 10).passed


def test_exhaustive_additive_depth30():
    for eps in (Fraction(2), Fraction(1), Fraction(2, 7)):
        report = exhaustive_additive_check(eps, 30)
        assert report.passed and report.paths_checked == 1 << 30


def test_exhaustive_stopped_additive_depth10():
    for m in (1, 2, 4):
        assert exhaustive_stopped_additive_check(Fraction(2, m), 10).passed


def test_exhaustive_one_sided_depth10():
    for N in (1, 2, 3):
        for direction in ("down", "up"):
            assert exhaustive_one_sided_check(N, direction, 10).passed


def test_exhaustive_registry_and_caps():
    assert exhaustive(6, "summation-identity").passed
    assert exhaustive(6, "product-capital", c=Fraction(1, 4)).passed
    assert exhaustive(6, "one-sided-capital", N=1, direction="up").passed
    with pytest.raises(VerifyError):
        exhaustive(6, "fermat-last-theorem")
    with pytest.raises(VerifyError):
        exhaustive(40, "summation-identity")
    with pytest.raises(VerifyError):
        exhaustive(0, "summation-identity")
    with pytest.raises(VerifyError, match="depth must be >= 1"):
        exhaustive(0, "additive-closed-form")
    for check in ("summation-identity", "log-lower-bound"):
        with pytest.raises(VerifyError, match="needs depth >= 2"):
            exhaustive(1, check)
    with pytest.raises(VerifyError, match="does not take c, eps"):
        exhaustive(4, "summation-identity", c=Fraction(1, 3), eps=Fraction(5))
    with pytest.raises(VerifyError, match="does not take N"):
        exhaustive(4, "product-capital", N=2)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-1), Fraction(0), Fraction(3, 4),
                               Fraction(3)])
def test_log_bound_refuses_c_outside_its_claim(c):
    with pytest.raises(VerifyError, match="only for 0 < c <= 1/2"):
        log_capital_bound_margin([1, -1, 1], c)
    with pytest.raises(VerifyError, match="only for 0 < c <= 1/2"):
        exhaustive_log_bound_check(c, 3)
    with pytest.raises(VerifyError, match="only for 0 < c <= 1/2"):
        log_bound_margin_curve(np.array([1, 1, 1]), float(c))


def test_state_budget_bounds_every_walk(monkeypatch):
    # a walk that cannot merge expands 2**depth - 1 states, so it is refused
    # before it starts (only that check names the tree's size) one level
    # past the budget: at 2**6 depth 7, at the default 2**22 depth 23
    with monkeypatch.context() as patch:
        patch.setattr(game, "STATE_BUDGET", 1 << 6)
        assert exhaustive(6, "summation-identity").passed
        with pytest.raises(VerifyError, match=r"all 2\*\*7 - 1 states"):
            exhaustive(7, "summation-identity")
        # a merging walk is stopped by the count: depth 16 expands 136 states
        patch.setattr(game, "STATE_BUDGET", 135)
        with pytest.raises(VerifyError, match="over the state budget 135"):
            exhaustive(16, "additive-closed-form")
        patch.setattr(game, "STATE_BUDGET", 136)
        assert exhaustive(16, "additive-closed-form").passed
    for check in ("summation-identity", "log-lower-bound"):
        with pytest.raises(VerifyError, match=r"all 2\*\*23 - 1 states"):
            exhaustive(23, check)


def test_merging_walk_reaches_depth_256():
    # the walker keeps its path on a list, so a stack far shallower than
    # the walk does not stop it
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        report = exhaustive(256, "additive-closed-form")
    finally:
        sys.setrecursionlimit(limit)
    assert report.passed and report.paths_checked == 2**256


ENGINE_CHECKS = [
    ("MultiplicativeContrarian", lambda depth: exhaustive_product_check(Fraction(1, 2), depth)),
    ("AdditiveContrarian", lambda depth: exhaustive_additive_check(Fraction(2), depth)),
    ("StoppedAdditive", lambda depth: exhaustive_stopped_additive_check(Fraction(1, 2), depth)),
    ("OneSided", lambda depth: exhaustive_one_sided_check(3, "down", depth)),
]


@pytest.mark.parametrize("broken, fails_at", [((2, 0), 3), ((5, 1), 6)])
def test_failing_walk_counts_only_the_paths_it_checked(monkeypatch, broken, fails_at):
    depth = 6
    for engine, check in ENGINE_CHECKS:
        class OffByOne(getattr(verify, engine)):
            def _stake(self):
                stake = super()._stake()
                return stake + 1 if (self.n, self.s) == broken else stake

        with monkeypatch.context() as patch:
            patch.setattr(verify, engine, OffByOne)
            report = check(depth)
        path = report.counterexample
        assert not report.passed and len(path) == fails_at, engine
        # the walk tries -1 before +1, so every +1 on the way skips a finished
        # subtree; a failing leaf was checked too
        finished = sum(1 << (depth - i) for i, x in enumerate(path, start=1) if x == 1)
        assert report.paths_checked == finished + (fails_at == depth), engine
        assert report.paths_checked < 1 << depth


# -- the memoised walk against a plain tree walk -----------------------------

def tree_walk(identity, depth, state, step, engine=None):
    """The oracle: every node of the 2**depth tree, no merging.  Each node
    is expanded as _walk expands it, by one children() call of its engine
    and one step() per move."""
    leaves = 0
    path = [0] * depth

    def rec(strat, state, n):
        nonlocal leaves
        leaf = n + 1 == depth
        stake, down, up = (None, None, None) if strat is None else strat.children()
        for x, child in ((-1, down), (1, up)):
            failure, after = step(state, n, x, stake, child)
            path[n] = x
            leaves += leaf
            if failure is not None:
                del path[n + 1:]
                return failure
            if not leaf and (failure := rec(child, after, n + 1)) is not None:
                return failure
        return None

    failure = rec(engine, state, 0)
    if failure is None:
        return verify.IdentityReport(identity, leaves, Fraction(0))
    return verify.IdentityReport(identity, leaves, failure, tuple(path))


def _both_walks(monkeypatch, run):
    """The JSON of ``run()`` under the memoised walk and under tree_walk,
    in the fields both walks report: tree_walk counts no work."""
    def shared():
        return json.dumps({name: value for name, value in run().to_json_dict().items()
                           if name not in ("nodes_expanded", "memo_hits")})

    memo = shared()
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_walk", tree_walk)
        plain = shared()
    return memo, plain


WALK_CASES = [
    ("product-capital", {"c": Fraction(1, 2)}),
    ("product-capital", {"c": Fraction(1, 8)}),
    ("summation-identity", {}),
    ("log-lower-bound", {"c": Fraction(1, 4)}),
    ("log-lower-bound", {"c": Fraction(1, 2), "slack": -0.5}),  # fails
    ("additive-closed-form", {"eps": Fraction(2)}),
    ("additive-closed-form", {"eps": Fraction(2, 7)}),
    ("stopped-additive-collateral", {"eps": Fraction(1, 2)}),
    ("stopped-additive-collateral", {"eps": Fraction(2)}),
    ("one-sided-capital", {"N": 3, "direction": "down"}),
    ("one-sided-capital", {"N": 1, "direction": "up"}),
]


@pytest.mark.parametrize("check, params", WALK_CASES)
@pytest.mark.parametrize("depth", [2, 7, 12])
def test_memoised_walk_reports_what_the_tree_walk_reports(monkeypatch, check, params, depth):
    memo, plain = _both_walks(monkeypatch, lambda: exhaustive(depth, check, **params))
    assert memo == plain


@pytest.mark.parametrize("engine, check", ENGINE_CHECKS)
@pytest.mark.parametrize("broken", [(3, 1), (7, -1), (10, 0)])
def test_memoised_walk_reports_a_broken_engine_as_the_tree_walk_does(
        monkeypatch, engine, check, broken):
    class OffByOne(getattr(verify, engine)):
        def _stake(self):
            stake = super()._stake()
            return stake + 1 if (self.n, self.s) == broken else stake

    monkeypatch.setattr(verify, engine, OffByOne)
    memo, plain = _both_walks(monkeypatch, lambda: check(12))
    assert memo == plain and '"passed": false' in memo


# none of these bettors stops within depth 8, so for the last three every
# path to (n, s) ends in the same state_key
UNSTOPPED_CHECKS = [
    ("MultiplicativeContrarian", lambda depth: exhaustive_product_check(Fraction(1, 2), depth)),
    ("AdditiveContrarian", lambda depth: exhaustive_additive_check(Fraction(2), depth)),
    ("StoppedAdditive",
     lambda depth: exhaustive_stopped_additive_check(Fraction(1, 32), depth)),
    ("OneSided", lambda depth: exhaustive_one_sided_check(9, "down", depth)),
]


@pytest.mark.parametrize("engine, check", UNSTOPPED_CHECKS)
def test_path_dependence_hidden_in_an_attribute_is_caught(monkeypatch, engine, check):
    class Turns(getattr(verify, engine)):
        """Nudges its stake by the number of +1 -> -1 turns so far, an
        attribute no state_key reads."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._last = 0
            self._turns = 0

        def _stake(self):
            return super()._stake() + Fraction(self._turns, 64)

        def _after(self, x):
            super()._after(x)
            self._turns += self._last == 1 and x == -1
            self._last = x

    monkeypatch.setattr(verify, engine, Turns)
    memo, plain = _both_walks(monkeypatch, lambda: check(8))
    assert memo == plain and '"passed": false' in memo
    if engine == "MultiplicativeContrarian":
        return  # its gain is path-dependent, so turning paths do not merge
    # a memo keyed on the hand-written state_key reaches each (n, s) first by
    # a path with no +1 -> -1 turn, merges every turning path into it and
    # misses the bug: the key must be the complete state
    monkeypatch.setattr(verify, "_snapshot", lambda strat: strat.state_key())
    assert check(8).passed


def _calls(monkeypatch, walk):
    """walk()'s result and its calls of Strategy.children and of
    Strategy.next_stake.  A walk expands an engine node with one
    children() call, which plays a clone through one next_stake() and
    hands out its stake; the oracle-only walks call neither."""
    calls = {"children": 0, "next_stake": 0}
    for name in calls:
        def counting(self, _name=name, _method=getattr(Strategy, name)):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(Strategy, name, counting)
    return walk(), calls


def test_equal_states_are_walked_once(monkeypatch):
    report, calls = _calls(monkeypatch, lambda: exhaustive_additive_check(Fraction(2, 7), 16))
    assert report.passed and report.paths_checked == 1 << 16
    # one call per (n, s) with n < 16, not one per inner node (65,535); the
    # report counts them, and the 105 children met again
    assert calls["children"] == sum(n + 1 for n in range(16)) == 136 == report.nodes_expanded
    assert report.memo_hits == 105


@pytest.mark.parametrize("walk, nodes, hits", [
    (lambda: exhaustive_product_check(Fraction(1, 2), 13), 3595, 200),
    (lambda: worst_case(MultiplicativeContrarian(Fraction(1, 2)), 12), 1897, 66),
    (lambda: exhaustive_product_check(Fraction(1, 3), 12), 1809, 82),
    (lambda: exhaustive_product_check(Fraction(2, 5), 12), 1911, 64),
    (lambda: exhaustive_product_check(Fraction(1, 2), 12), 1897, 66),
], ids=["product-capital-13", "mulc-worst-case-12", "product-capital-12-c=1/3",
        "product-capital-12-c=2/5", "product-capital-12-c=1/2"])
def test_mulc_walks_expand_a_pinned_number_of_nodes(monkeypatch, walk, nodes, hits):
    # mulc's gain tells apart most paths; the merges left (snapshot in the
    # product walk, state_key in worst_case) must all still happen.  Each
    # expanded node is one children() call, which announces one stake
    result, calls = _calls(monkeypatch, walk)
    assert calls == {"children": nodes, "next_stake": nodes}
    assert (result.nodes_expanded, result.memo_hits) == (nodes, hits)
    assert not isinstance(result, verify.IdentityReport) or result.passed


def _tree_sweep():
    """worst_case at depth 20, both objectives, over the stopped additive
    bettors m = 1, 2, 4, 8 and the one-sided bettors N = 1, 2, 3 both ways."""
    roots = [lambda m=m: StoppedAdditive(Fraction(2, m)) for m in (1, 2, 4, 8)] + [
        lambda n=n, d=d: OneSided(n, d) for n in (1, 2, 3) for d in ("down", "up")]
    return [worst_case(make(), 20, objective=objective)
            for make in roots for objective in ("running_min", "final")]


def test_tree_sweep_expands_a_pinned_number_of_nodes(monkeypatch):
    results, calls = _calls(monkeypatch, _tree_sweep)
    assert calls["children"] == 1786 == sum(r.nodes_expanded for r in results)
    assert sum(r.memo_hits for r in results) == 1290
    assert all(value >= 0 for value, _ in results)


def test_failing_oracle_walk_stops_at_its_first_node():
    # with slack -10 the bound "fails" wherever it is first checked, at n = 2
    report = exhaustive_log_bound_check(Fraction(1, 2), 6, slack=-10)
    assert not report.passed
    assert report.counterexample == (-1, -1)
    assert report.paths_checked == 0
    assert exhaustive(6, "log-lower-bound", c=Fraction(1, 2), slack=-0.5).to_json_dict() == {
        "identity": "log-lower-bound", "paths_checked": 0, "nodes_expanded": 2, "memo_hits": 0,
        "max_discrepancy": -0.13356602430006836, "counterexample": [-1, -1], "passed": False}


def test_report_serialization():
    d = exhaustive_summation_check(4).to_json_dict()
    assert d["passed"] is True
    assert d["paths_checked"] == 16
    assert d["counterexample"] is None


# -- vectorized float helpers ----------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**30))
def test_curves_match_exact_engine(seed):
    rng = np.random.default_rng(seed)
    moves = rng.choice([-1, 1], size=60)

    mulc = MultiplicativeContrarian(Fraction(1, 4))
    exact_mulc = []
    for x in moves:
        mulc.next_stake(); mulc.observe(int(x))
        exact_mulc.append(float(mulc.wealth))

    np.testing.assert_allclose(mulc_capital_curve(moves, 0.25), exact_mulc,
                               rtol=1e-12, atol=1e-12)


def test_log_margin_curve_matches_scalar_oracle():
    moves = np.array([1, -1, 1, 1, -1, -1, 1, -1, 1, 1])
    curve = log_bound_margin_curve(moves, 0.5)
    assert len(curve) == 9
    for n in range(2, 11):
        scalar = log_capital_bound_margin(list(moves[:n]), Fraction(1, 2))
        assert math.isclose(curve[n - 2], scalar, rel_tol=1e-10, abs_tol=1e-12)


def _plain_margin_curve(moves, c):
    """log_bound_margin_curve as one array expression per line."""
    x = np.asarray(moves, dtype=np.float64)
    n = np.arange(1, len(x) + 1, dtype=np.float64)
    xbar = np.cumsum(x) / n
    xbar_prev = np.concatenate(([0.0], xbar[:-1]))
    log_k = np.cumsum(np.log(1.0 - c * xbar_prev * x))
    a_terms = (n / np.maximum(n - 1, 1.0)) * xbar**2
    a_terms[0] = 0.0
    a = np.cumsum(a_terms)
    b = np.cumsum(xbar_prev**2)
    rhs = (c / 2) * (1.0 + np.log(n) - (a + 2 * c * b + n * xbar**2))
    return (log_k - rhs)[1:]


@pytest.mark.parametrize("c", [0.5, 0.25, 0.125])
def test_log_margin_curve_is_the_plain_expression_bit_for_bit(c):
    rng = np.random.default_rng(20260823)
    for size in (2, 3, 17, 5000):
        for dtype in (np.float64, np.int8):
            moves = rng.choice(np.array([-1, 1], dtype=dtype), size=size)
            given = moves.copy()
            got = log_bound_margin_curve(moves, c)
            assert got.tobytes() == _plain_margin_curve(moves, c).tobytes()
            assert np.array_equal(moves, given)  # the input is not written to
    assert log_bound_margin_curve([], c).shape == (0,)


def test_checks_registry_complete():
    assert set(CHECKS) == {
        "product-capital", "summation-identity", "log-lower-bound",
        "additive-closed-form", "stopped-additive-collateral",
        "one-sided-capital",
    }
