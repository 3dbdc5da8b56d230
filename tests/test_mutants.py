"""Mutant table: each entry breaks the strategy engine or a walker in one
way and names the check that must then fail.

A check that still passes under its mutant has stopped checking that part
of the engine.  Each check is first run on the unmutated engine, so a
mutant is caught by what it breaks and not by a check that fails anyway.
"""

from fractions import Fraction

import pytest

from faircoin import game, pricing, strategies, verify
from faircoin.game import run_game
from faircoin.reality import FixedPath, worst_case
from faircoin.strategies import (Mixture, MultiplicativeContrarian, OneSided, StoppedAdditive,
                                 Strategy, parse_strategy, truncated_q)
from faircoin.verify import VerifyError, exhaustive, product_capital
from test_pricing import series_lines_are_the_json_lines
from test_reality import plain_minimax

# -- mutants: each takes a monkeypatch and breaks one thing ------------------


def denominator_off_by_one(patch):
    init = Strategy.__init__

    def mutant(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._den is not None:
            self._den += 1
    patch.setattr(Strategy, "__init__", mutant)


def observe_drops_the_numerator_on_up(patch):
    observe = Strategy.observe

    def mutant(self, x):
        if x == 1 and self._den is not None and self._pending is not None:
            self._pending = 0
        observe(self, x)
    patch.setattr(Strategy, "observe", mutant)


def stopadd_key_without_its_account(patch):
    patch.setattr(StoppedAdditive, "state_key",
                  lambda self: ("stopadd", self.m, self.s, self.stopped))


def gain_ignores_the_denominator(patch):
    patch.setattr(Strategy, "gain", property(lambda self: self._k))


def mixture_denominator_too_small(patch):
    patch.setattr(strategies.math, "lcm", lambda *dens: max(dens, default=1))


def snapshot_never_merges(patch):
    patch.setattr(verify, "_snapshot", lambda v: None)


def mixture_key_drops_a_component(patch):
    patch.setattr(Mixture, "state_key",
                  lambda self: ("mix", tuple(s.state_key() for _, s in self.components[1:])))


def mulc_stake_swaps_c(patch):
    stake = MultiplicativeContrarian._stake

    def mutant(self):
        if self.n == 0:
            return stake(self)
        c = self.c
        return Fraction(-c.denominator * self.s, c.numerator * self.n) * (self._w0 + self._k)
    patch.setattr(MultiplicativeContrarian, "_stake", mutant)


def settle_ignores_the_sign(patch):
    def mutant(k, stake, x):
        return k + stake
    patch.setattr(game, "settle", mutant)
    patch.setattr(strategies, "settle", mutant)


def series_reuses_values_on_even_horizons(patch):
    def mutant(l, horizon):
        prev = None
        for b in pricing.bracket_series(l, horizon):
            if prev is None or (b.horizon % 2 and (b.lower_num != 2 * prev.lower_num
                                                   or b.upper_num != 2 * prev.upper_num)):
                values = b._json_values()
            yield b.json_line(values)
            prev = b
    patch.setattr(pricing, "series_json_lines", mutant)


# -- checks: each returns True when the engine passes it -----------------------


def additive_closed_form():
    return exhaustive(8, "additive-closed-form", eps=Fraction(2, 7)).passed


def product_capital_walk():
    return exhaustive(8, "product-capital", c=Fraction(1, 2)).passed


def one_sided_capital():
    return exhaustive(8, "one-sided-capital", N=2, direction="down").passed


def stopped_additive_collateral():
    return exhaustive(8, "stopped-additive-collateral", eps=Fraction(1, 2)).passed


def worst_case_is_the_plain_minimax():
    # m = 4: stopped paths meet at one (n, s) with different accounts by round 7
    return all(worst_case(StoppedAdditive(Fraction(1, 2)), rounds)
               == plain_minimax(StoppedAdditive(Fraction(1, 2)), rounds, "final")
               for rounds in (7, 8))


def mixture_worst_case_is_the_plain_minimax():
    # the stopped component's account tells apart states its sibling shares
    def make():
        return parse_strategy("mix:[1/2@stopadd:eps=1/2;1/4@oneside:N=2;1/4]")
    return all(worst_case(make(), rounds) == plain_minimax(make(), rounds, "final")
               for rounds in (5, 6))


def merging_walk_fits_136_states():
    # additive-closed-form at depth 16 has 136 distinct states
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "STATE_BUDGET", 136)
        try:
            return exhaustive(16, "additive-closed-form").passed
        except VerifyError:
            return False


def q_mixture_is_the_product_sum():
    moves = [1, 1, -1, 1, -1, -1, -1, 1, 1, -1]
    trace = run_game(truncated_q(4), FixedPath(moves), len(moves))
    want = sum((Fraction(1, 1 << i) * product_capital(moves, Fraction(1, 1 << i))
                for i in range(1, 5)), Fraction(1, 16))
    return 1 + trace.final_capital == want


MUTANTS = [
    (denominator_off_by_one, additive_closed_form),
    (denominator_off_by_one, one_sided_capital),
    (denominator_off_by_one, stopped_additive_collateral),
    (observe_drops_the_numerator_on_up, additive_closed_form),
    (observe_drops_the_numerator_on_up, one_sided_capital),
    (stopadd_key_without_its_account, worst_case_is_the_plain_minimax),
    (gain_ignores_the_denominator, additive_closed_form),
    (gain_ignores_the_denominator, one_sided_capital),
    (mixture_denominator_too_small, q_mixture_is_the_product_sum),
    (snapshot_never_merges, merging_walk_fits_136_states),
    (mixture_key_drops_a_component, mixture_worst_case_is_the_plain_minimax),
    (mulc_stake_swaps_c, product_capital_walk),
    (settle_ignores_the_sign, q_mixture_is_the_product_sum),
    (series_reuses_values_on_even_horizons, series_lines_are_the_json_lines),
]


@pytest.mark.parametrize("mutate, check", MUTANTS,
                         ids=[f"{m.__name__}-{c.__name__}" for m, c in MUTANTS])
def test_check_fails_on_its_mutant(monkeypatch, mutate, check):
    assert check()
    mutate(monkeypatch)
    assert not check()


def test_a_non_integer_numerator_stays_exact_or_fails_loudly():
    class Nudged(OneSided):
        def _stake(self):
            return super()._stake() + Fraction(1, 64)

    strat = Nudged(3)
    assert strat.next_stake() == Fraction(65, 64 * 3)
    strat.observe(1)
    assert strat.gain == Fraction(65, 192) and strat.wealth == 1 + Fraction(65, 192)

    class Floated(OneSided):
        def _stake(self):
            return super()._stake() + 0.5

    with pytest.raises(TypeError):
        Floated(3).next_stake()
