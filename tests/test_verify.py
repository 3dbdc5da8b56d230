"""Oracles and exhaustive identity sweeps."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faircoin
from faircoin import verify
from faircoin.strategies import AdditiveContrarian, MultiplicativeContrarian
from faircoin.verify import (
    CHECKS,
    VerifyError,
    additive_capital,
    additive_capital_curve,
    additive_closed_form_check,
    exhaustive,
    exhaustive_additive_check,
    exhaustive_log_bound_check,
    exhaustive_one_sided_check,
    exhaustive_product_check,
    exhaustive_stopped_additive_check,
    exhaustive_summation_check,
    log_bound_margin_curve,
    log_capital_bound_margin,
    log_capital_lower_bound_check,
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
    with pytest.raises(VerifyError):
        summation_identity_sides([1])


@given(moves_lists)
def test_summation_identity_random(moves):
    lhs, rhs = summation_identity_sides(moves)
    assert lhs == rhs


def test_log_bound_examples():
    assert log_capital_bound_margin([1, -1] * 50, Fraction(1, 2)) > 0
    assert log_capital_bound_margin([1] * 50, Fraction(1, 4)) > -1e-9
    assert log_capital_lower_bound_check([1, -1] * 7, Fraction(1, 2)).passed


def test_additive_capital_oracle():
    assert additive_capital([1, 1], eps=Fraction(1, 2)) == Fraction(-1, 2)
    assert additive_capital(4, 0, Fraction(1)) == 2
    assert additive_capital(1, 1, Fraction(2)) == 0


@given(moves_lists, st.sampled_from([Fraction(2), Fraction(1), Fraction(2, 7)]))
def test_additive_closed_form_check_passes(moves, eps):
    assert additive_closed_form_check(moves, eps).passed


# -- exhaustive sweeps ------------------------------------------------------

def test_exhaustive_product_depth8():
    for c in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        report = exhaustive_product_check(c, 8)
        assert report.passed and report.paths_checked == 256


def test_exhaustive_summation_depth10():
    assert exhaustive_summation_check(10).passed


def test_exhaustive_log_bound_depth10():
    assert exhaustive_log_bound_check(Fraction(1, 2), 10).passed


def test_exhaustive_additive_depth10():
    assert exhaustive_additive_check(Fraction(2, 7), 10).passed


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
    for check in ("summation-identity", "log-lower-bound"):
        with pytest.raises(VerifyError, match="needs depth >= 2"):
            exhaustive(1, check)
    with pytest.raises(VerifyError, match="does not take c, eps"):
        exhaustive(4, "summation-identity", c=Fraction(1, 3), eps=Fraction(5))
    with pytest.raises(VerifyError, match="does not take N"):
        exhaustive(4, "product-capital", N=2)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-1), Fraction(0), Fraction(3, 4)])
def test_log_bound_refuses_c_outside_its_claim(c):
    with pytest.raises(VerifyError, match="only for 0 < c <= 1/2"):
        log_capital_bound_margin([1, -1, 1], c)
    with pytest.raises(VerifyError, match="only for 0 < c <= 1/2"):
        exhaustive_log_bound_check(c, 3)


def test_bad_env_caps_fail_at_use_not_at_import(monkeypatch):
    env = dict(os.environ, FAIRCOIN_EXHAUSTIVE_CAP="abc",
               PYTHONPATH=str(Path(faircoin.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", "import faircoin"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    monkeypatch.setenv("FAIRCOIN_EXHAUSTIVE_CAP", "abc")
    with pytest.raises(VerifyError, match="FAIRCOIN_EXHAUSTIVE_CAP"):
        exhaustive(6, "summation-identity")


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


def test_failing_oracle_walk_stops_at_its_first_node():
    # with slack -10 the bound "fails" wherever it is first checked, at n = 2
    report = exhaustive_log_bound_check(Fraction(1, 2), 6, slack=-10)
    assert not report.passed
    assert report.counterexample == (-1, -1)
    assert report.paths_checked == 0


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
    addc = AdditiveContrarian(Fraction(1, 2))
    exact_mulc, exact_addc = [], []
    for x in moves:
        mulc.next_stake(); mulc.observe(int(x))
        addc.next_stake(); addc.observe(int(x))
        exact_mulc.append(float(mulc.wealth))
        exact_addc.append(float(addc.gain))

    np.testing.assert_allclose(mulc_capital_curve(moves, 0.25), exact_mulc,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(additive_capital_curve(moves, 0.5), exact_addc,
                               rtol=1e-12, atol=1e-12)


def test_log_margin_curve_matches_scalar_oracle():
    moves = np.array([1, -1, 1, 1, -1, -1, 1, -1, 1, 1])
    curve = log_bound_margin_curve(moves, 0.5)
    assert len(curve) == 9
    for n in range(2, 11):
        scalar = log_capital_bound_margin(list(moves[:n]), Fraction(1, 2))
        assert math.isclose(curve[n - 2], scalar, rel_tol=1e-10, abs_tol=1e-12)


def test_checks_registry_complete():
    assert set(CHECKS) == {
        "product-capital", "summation-identity", "log-lower-bound",
        "additive-closed-form", "stopped-additive-collateral",
        "one-sided-capital",
    }
