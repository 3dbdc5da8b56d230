"""Mutant table: each entry breaks the strategy engine, a walker, a pricing
check or an output route in one way and names the check that must then
fail.

A check that still passes under its mutant has stopped checking that part
of the engine.  Each check is first run on the unmutated engine, so a
mutant is caught by what it breaks and not by a check that fails anyway.
"""

import io
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from faircoin import cli, game, pricing, strategies, verify
from faircoin.game import run_game
from faircoin.pricing import replicate_and_verify
from faircoin.reality import FixedPath, worst_case
from faircoin.strategies import (Mixture, MultiplicativeContrarian, OneSided, SignForcing,
                                 StoppedAdditive, Strategy, parse_strategy, truncated_q)
from faircoin.verify import VerifyError, exhaustive, product_capital
from test_cli import (census_lines_are_json_dumps_of_the_counts,
                      census_prints_past_the_digit_floor,
                      price_lines_are_json_dumps_of_the_table_roots)
from test_game import _csv_writer_text, _json_dumps_text, mulc_stake_faults, product_faults
from test_pricing import (dyadic_faults, half_table_is_the_mean_of_the_full_tables,
                          series_lines_are_the_json_lines, series_matches_the_two_sided_sweep,
                          upper_bracket_roots_are_the_table_roots)
from test_reality import hedging_sign_forcing, plain_minimax
from test_strategies import (mixture_paths_off_their_parts, moving_stopped_bettors,
                             sign_forcing_settlement_faults, unsound_keys)

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


def stopadd_resumes(patch):
    # the guard is read afresh each round, so a walk back inside it resumes
    def mutant(self, x):
        self.stopped = strategies.boundary_exceeds(self.n + 1, self.s, self.m)
    patch.setattr(StoppedAdditive, "_after", mutant)


def worst_case_fold_drops_the_initial_capital(patch):
    patch.setattr(Strategy, "_numerator", lambda self: self._k)


def worst_case_folds_sign_forcing_on_numerators(patch):
    # each hedge re-bases the account, so the nodes' numerators are over
    # different denominators
    patch.setattr(SignForcing, "_numerator", Strategy._numerator)


def sign_forcing_settles_one_bit_off_scale(patch):
    stake = SignForcing._stake

    def mutant(self):
        num, value = stake(self)
        return num >> 1, value  # half the stake handed out
    patch.setattr(SignForcing, "_stake", mutant)


def sign_forcing_rebase_keeps_the_old_w0(patch):
    start = SignForcing._start_excursion

    def mutant(self):
        w0 = self._w0
        start(self)
        self._w0 = w0
    patch.setattr(SignForcing, "_start_excursion", mutant)


def half_table_mirror_drops_the_complement(patch):
    live = pricing.EtaTable._live_numerator

    def mutant(self, n, s):
        if s > 0 and self.tail_value == "half":  # V(n, -s) in place of 1 - V(n, -s)
            return live(self, n, -s)
        return live(self, n, s)
    patch.setattr(pricing.EtaTable, "_live_numerator", mutant)


def dyadic_keeps_the_factors_of_two(patch):
    # num over 2**bits as it stands, not in lowest terms
    patch.setattr(pricing, "_dyadic", lambda num, bits: pricing._coprime(num, 1 << bits))


def dyadic_shifts_one_bit_too_far(patch):
    def mutant(num, bits):
        if not num:
            return pricing.ZERO
        z = min((num & -num).bit_length(), bits)  # the trailing zeros and one bit more
        return pricing._coprime(num >> z, 1 << (bits - z))
    patch.setattr(pricing, "_dyadic", mutant)


def _stop_guard_shifted(patch, rounds, offset):
    """StoppedAdditive's guard as boundary_exceeds(n + 1, s, m), with
    ``rounds`` added to its round and ``offset`` to its offset."""
    def mutant(self, x):
        if not self.stopped and strategies.boundary_exceeds(self.n + 1 + rounds, self.s,
                                                             self.m + offset):
            self.stopped = True
    patch.setattr(StoppedAdditive, "_after", mutant)


def stop_guard_one_round_late(patch):
    _stop_guard_shifted(patch, -1, 0)


def stop_guard_offset_m_plus_one(patch):
    _stop_guard_shifted(patch, 0, 1)


def gain_ignores_the_denominator(patch):
    patch.setattr(Strategy, "gain", property(lambda self: self._k))


def mixture_denominator_too_small(patch):
    patch.setattr(strategies.math, "lcm", lambda *dens: max(dens, default=1))


def snapshot_never_merges(patch):
    # a fresh object in the key: a walk's key is its state plus the snapshot
    patch.setattr(verify, "_snapshot", lambda v: (object(),))


def snapshot_keeps_only_numerators(patch):
    snapshot = verify._snapshot

    def mutant(v):
        if isinstance(v, Strategy):
            v = v.clone()
            vars(v).update({name: x.numerator for name, x in vars(v).items()
                            if type(x) is Fraction})
        return snapshot(v)
    patch.setattr(verify, "_snapshot", mutant)


def mulc_key_without_the_denominator(patch):
    key = MultiplicativeContrarian.state_key
    patch.setattr(MultiplicativeContrarian, "state_key", lambda self: key(self)[:-1])


def children_announce_a_zero_stake(patch):
    def mutant(self):
        down = self.clone()
        down._pending = stake = type(down._w0)()
        up = down.clone()
        down.observe(-1)
        up.observe(1)
        return stake, down, up
    patch.setattr(Strategy, "children", mutant)


def children_hand_out_the_pending_stake(patch):
    # a product account pends the ratio r of its wealth W and hands out r * W
    def mutant(self):
        down = self.clone()
        down.next_stake()
        stake = down._pending
        up = down.clone()
        down.observe(-1)
        up.observe(1)
        return stake, down, up
    patch.setattr(Strategy, "children", mutant)


def mixture_stops_on_any_component(patch):
    init, after = Mixture.__init__, Mixture._after

    def mutant_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.stopped = any(s.stopped for _, s in self.components)

    def mutant_after(self, x):
        after(self, x)
        self.stopped = any(s.stopped for _, s in self.components)
    patch.setattr(Mixture, "__init__", mutant_init)
    patch.setattr(Mixture, "_after", mutant_after)


def mixture_key_drops_a_component(patch):
    patch.setattr(Mixture, "state_key",
                  lambda self: ("mix", tuple(s.state_key() for _, s in self.components[1:])))


def mulc_stake_swaps_c(patch):
    stake = MultiplicativeContrarian._stake

    def mutant(self):
        if self.n == 0:
            return stake(self)
        c = self.c
        return Fraction(-c.denominator * self.s, c.numerator * self.n)
    patch.setattr(MultiplicativeContrarian, "_stake", mutant)


def product_factor_flips_the_move(patch):
    settle_product = game.settle_product
    patch.setattr(strategies, "settle_product", lambda w, r, x: settle_product(w, r, -x))


def _mul_lowest_skipping(patch, skip_g, skip_h):
    """game._mul_lowest, in both modules that call it, without the cross
    gcd g = gcd(a, d) or h = gcd(t, b).  Either way the product is the
    right number over unreduced parts, which product_capital_walk cannot
    see: it compares the wealth by cross-multiplying."""
    def mutant(a, b, t, d):
        g = 1 if skip_g else math.gcd(a, d)
        h = 1 if skip_h else math.gcd(t, b)
        return game._coprime((a // g) * (t // h), (b // h) * (d // g))
    patch.setattr(game, "_mul_lowest", mutant)
    patch.setattr(strategies, "_mul_lowest", mutant)


def product_skips_the_gcd_of_a_and_d(patch):
    _mul_lowest_skipping(patch, skip_g=True, skip_h=False)


def product_skips_the_gcd_of_t_and_b(patch):
    _mul_lowest_skipping(patch, skip_g=False, skip_h=True)


def mulc_announces_the_negated_stake(patch):
    next_stake = Strategy.next_stake

    def mutant(self):
        stake = next_stake(self)
        return -stake if isinstance(self, MultiplicativeContrarian) else stake
    patch.setattr(Strategy, "next_stake", mutant)


def next_stake_leaves_no_pending_stake(patch):
    next_stake = Strategy.next_stake

    def mutant(self):
        stake = next_stake(self)
        self._pending = None
        return stake
    patch.setattr(Strategy, "next_stake", mutant)


def next_stake_pends_the_handed_out_value(patch):
    next_stake = Strategy.next_stake

    def mutant(self):
        stake = next_stake(self)
        if self._den:  # an integer account, over a denominator
            self._pending = stake
        return stake
    patch.setattr(Strategy, "next_stake", mutant)


def settle_ignores_the_sign(patch):
    def mutant(k, stake, x):
        return k + stake
    patch.setattr(game, "settle", mutant)
    patch.setattr(strategies, "settle", mutant)


def series_reuses_values_on_even_horizons(patch):
    def mutant(l, horizon):
        powers = pricing._Powers2()
        prev = None
        for b in pricing.bracket_series(l, horizon):
            if prev is None or (b.horizon % 2 and (b.lower_num != 2 * prev.lower_num
                                                   or b.upper_num != 2 * prev.upper_num)):
                values = b._json_values(powers)
            yield b.json_line(values)
            prev = b
    patch.setattr(pricing, "series_json_lines", mutant)


def half_sweep_drops_the_centre_mirror(patch):
    def mutant(l, horizon):
        widths = pricing._strip_widths(l, horizon)
        half = [1]
        for n in range(1, horizon + 1):
            w = widths[n - 1]
            if widths[n] > w:
                yield half, 0
                half = [0, *half]
            else:
                yield half, half[0] if half else 0
            nxt = [a + b for a, b in zip(half, half[1:])]
            if w % 2 and half:
                nxt.append(half[-1])
            half = nxt
    patch.setattr(pricing, "_absorption_sweep", mutant)


def _json_values_from(patch, odd_part, live_mass):
    """PriceBracket._json_values, for lower > 0, from ``odd_part(num)``, the
    (L, z) with lower's numerator num = L * 2**z, and from the live mass's
    numerator ``live_mass(whole, half, L)``."""
    json_values = pricing.PriceBracket._json_values

    def mutant(self, powers):
        if not self.lower_num:
            return json_values(self, powers)
        odd, z = odd_part(self.lower_num)
        lower, half = Decimal(odd), powers(self.horizon - z)
        whole = pricing._EXACT.add(half, half)
        return (f'"lower": "{lower}/{whole}", '
                f'"upper": "{pricing._EXACT.subtract(whole, lower)}/{whole}", '
                f'"live_mass": "{live_mass(whole, half, lower)}/{half}"')
    patch.setattr(pricing.PriceBracket, "_json_values", mutant)


def series_live_mass_over_the_wrong_power(patch):
    def odd_part(num):
        z = (num & -num).bit_length() - 1
        return num >> z, z
    _json_values_from(patch, odd_part,
                      lambda whole, half, lower: pricing._EXACT.subtract(whole, lower))


def lower_zero_line_with_no_live_mass(patch):
    json_values = pricing.PriceBracket._json_values

    def mutant(self, powers):
        if self.lower_num:
            return json_values(self, powers)
        return '"lower": "0/1", "upper": "1/1", "live_mass": "0/1"'
    patch.setattr(pricing.PriceBracket, "_json_values", mutant)


def lowest_dyadic_keeps_the_factors_of_two(patch):
    # lower printed over the bracket's own scale 2**(horizon + 1), unreduced
    _json_values_from(patch, lambda num: (num, 0),
                      lambda whole, half, lower: pricing._EXACT.subtract(half, lower))


def census_integers_through_plain_str(patch):
    patch.setattr(cli, "fmt_int", str)


def census_sum_over_twice_the_scale(patch):
    patch.setattr(pricing.AbsorptionCensus, "budget_sum",
                  property(lambda self: Fraction(self.b_k, 2 << self.k)))


def census_b_k_scale_off_by_one(patch):
    patch.setattr(pricing.AbsorptionCensus, "b_k",
                  property(lambda self: sum(ai << (self.k + 1 - i)
                                            for i, ai in enumerate(self.a, start=1))))


def _rewrite_trace_text(patch, method, old, new):
    """GameTrace.<method> writing its text with ``old`` replaced by ``new``."""
    write = getattr(game.GameTrace, method)

    def mutant(self, f):
        buf = io.StringIO()
        write(self, buf)
        f.write(buf.getvalue().replace(old, new))
    patch.setattr(game.GameTrace, method, mutant)


def csv_rows_end_in_lf(patch):
    _rewrite_trace_text(patch, "write_csv", "\r\n", "\n")


def jsonl_members_without_spaces(patch):
    _rewrite_trace_text(patch, "write_jsonl", ", ", ",")


def bracket_upper_off_by_one(patch):
    patch.setattr(pricing.PriceBracket, "upper_num",
                  property(lambda self: (2 << self.horizon) - self.lower_num - 1))


def one_tail_root_negated(patch):
    real = pricing.eta_table

    def mutant(l, horizon, tail_value="zero"):
        table = real(l, horizon, tail_value)
        if tail_value == "one":
            table._levels[0][0] = -table._levels[0][0]
        return table
    patch.setattr(pricing, "eta_table", mutant)


def census_budget_off_by_one_step(patch):
    patch.setattr(pricing.AbsorptionCensus, "budget_sum",
                  property(lambda self: Fraction(self.b_k + 1, 1 << self.k)))


# -- checks: each returns True when the engine passes it -----------------------


def lower_zero_price_lines_are_json_dumps_of_the_table_roots():
    # l = 9 has lower 0 at horizons 1 and 2; every offset runs in test_cli
    return price_lines_are_json_dumps_of_the_table_roots(offsets=[9])


def trace_writers_match_csv_and_json_modules():
    trace = run_game(MultiplicativeContrarian(Fraction(1, 2)), FixedPath([1, -1, -1, 1, 1]), 5)
    csv_buf, jsonl_buf = io.StringIO(), io.StringIO()
    trace.write_csv(csv_buf)
    trace.write_jsonl(jsonl_buf)
    return (csv_buf.getvalue() == _csv_writer_text(trace)
            and jsonl_buf.getvalue() == _json_dumps_text(trace))


def dyadic_is_the_fraction_in_lowest_terms():
    return not dyadic_faults()


def settle_product_is_the_public_product():
    return not product_faults()


def mulc_stake_is_the_public_product():
    return not mulc_stake_faults()


def additive_closed_form():
    return exhaustive(8, "additive-closed-form", eps=Fraction(2, 7)).passed


def product_capital_walk():
    return exhaustive(8, "product-capital", c=Fraction(1, 2)).passed


def one_sided_capital():
    return exhaustive(8, "one-sided-capital", N=2, direction="down").passed


def stopped_additive_collateral():
    return exhaustive(8, "stopped-additive-collateral", eps=Fraction(1, 2)).passed


def stopped_additive_collateral_eps_2():
    # m = 1: a guard at offset m + 1 overdraws the account at round 2, where
    # at m = 2 and m = 4 the late stop keeps it solvent to depth 8
    return exhaustive(8, "stopped-additive-collateral", eps=Fraction(2)).passed


def worst_case_is_the_plain_minimax():
    # m = 4: the guard stops the bettor on some paths by round 7, and the
    # fold settles those children as leaves; the sign-forcing root is
    # hedging already, and re-bases again at each later hedge
    return all(worst_case(make(), rounds) == plain_minimax(make(), rounds, "final")
               for make, depths in ((lambda: StoppedAdditive(Fraction(1, 2)), (7, 8)),
                                    (hedging_sign_forcing, (5, 6)))
               for rounds in depths)


def sign_forcing_settles_every_path():
    return not sign_forcing_settlement_faults(depth=6)


def half_table_is_the_mean_at_small_offsets():
    return half_table_is_the_mean_of_the_full_tables(offsets=range(4), horizons=range(1, 17))


def mixture_state_keys_are_sound():
    # the stopped component's account tells apart states its sibling shares;
    # a stopped mixture is a leaf of worst_case and never keyed there, so the
    # key is checked against the states it names directly
    return not unsound_keys(lambda strat: strat.state_key(),
                            [("mix:[1/2@stopadd:eps=1/2;1/4@oneside:N=2;1/4]", exact)
                             for exact in (True, False)])


def mixture_parts_add_up():
    return not mixture_paths_off_their_parts()


# exact mulc at three constants: at c = 1/2 the round-3 states W = 3/4 and
# W = 3/2 share (n, s, numerator)
MULC_ROOTS = [(f"mulc:c={c}", True) for c in ("1/2", "1/3", "2/5")]


# stopped states are settled as leaves by worst_case and never keyed there,
# so a stopadd key is checked against the states it names directly
STOPADD_ROOTS = [("stopadd:eps=2/4", exact) for exact in (True, False)]


def stopadd_state_keys_are_sound():
    return not unsound_keys(lambda strat: strat.state_key(), STOPADD_ROOTS)


def stopadd_stays_stopped():
    return not moving_stopped_bettors(STOPADD_ROOTS)


def mulc_state_keys_are_sound():
    return not unsound_keys(lambda strat: strat.state_key(), MULC_ROOTS)


def mulc_snapshots_are_sound():
    return not unsound_keys(lambda strat: verify._snapshot(strat), MULC_ROOTS)


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


def _replication_refusal():
    """replicate_and_verify(9, 10)'s refusal, or "" when it passes."""
    try:
        replicate_and_verify(9, 10)
    except pricing.PricingError as e:
        return str(e)
    return ""


def replication_sees_no_negative_hedge():
    return "hedge negative" not in _replication_refusal()


def replication_cost_is_the_census_sum():
    return "disagrees with absorption census" not in _replication_refusal()


MUTANTS = [
    (denominator_off_by_one, additive_closed_form),
    (denominator_off_by_one, one_sided_capital),
    (denominator_off_by_one, stopped_additive_collateral),
    (observe_drops_the_numerator_on_up, additive_closed_form),
    (observe_drops_the_numerator_on_up, one_sided_capital),
    (stopadd_key_without_its_account, stopadd_state_keys_are_sound),
    (stopadd_resumes, worst_case_is_the_plain_minimax),
    (stopadd_resumes, stopadd_stays_stopped),
    (worst_case_fold_drops_the_initial_capital, worst_case_is_the_plain_minimax),
    (worst_case_folds_sign_forcing_on_numerators, worst_case_is_the_plain_minimax),
    (sign_forcing_settles_one_bit_off_scale, sign_forcing_settles_every_path),
    (sign_forcing_rebase_keeps_the_old_w0, sign_forcing_settles_every_path),
    (half_table_mirror_drops_the_complement, half_table_is_the_mean_at_small_offsets),
    (dyadic_keeps_the_factors_of_two, dyadic_is_the_fraction_in_lowest_terms),
    (dyadic_shifts_one_bit_too_far, dyadic_is_the_fraction_in_lowest_terms),
    (stop_guard_one_round_late, stopped_additive_collateral),
    (stop_guard_offset_m_plus_one, stopped_additive_collateral_eps_2),
    (gain_ignores_the_denominator, additive_closed_form),
    (gain_ignores_the_denominator, one_sided_capital),
    (mixture_denominator_too_small, q_mixture_is_the_product_sum),
    (snapshot_never_merges, merging_walk_fits_136_states),
    (snapshot_keeps_only_numerators, mulc_snapshots_are_sound),
    (mulc_key_without_the_denominator, mulc_state_keys_are_sound),
    (children_announce_a_zero_stake, additive_closed_form),
    (children_hand_out_the_pending_stake, product_capital_walk),
    (mixture_key_drops_a_component, mixture_state_keys_are_sound),
    (mixture_stops_on_any_component, mixture_parts_add_up),
    (mulc_stake_swaps_c, product_capital_walk),
    (product_factor_flips_the_move, product_capital_walk),
    (product_skips_the_gcd_of_a_and_d, settle_product_is_the_public_product),
    (product_skips_the_gcd_of_t_and_b, settle_product_is_the_public_product),
    (product_skips_the_gcd_of_a_and_d, mulc_stake_is_the_public_product),
    (product_skips_the_gcd_of_t_and_b, mulc_stake_is_the_public_product),
    (mulc_announces_the_negated_stake, product_capital_walk),
    (next_stake_leaves_no_pending_stake, additive_closed_form),
    (next_stake_pends_the_handed_out_value, additive_closed_form),
    (settle_ignores_the_sign, q_mixture_is_the_product_sum),
    (series_reuses_values_on_even_horizons, series_lines_are_the_json_lines),
    (half_sweep_drops_the_centre_mirror, series_matches_the_two_sided_sweep),
    (series_live_mass_over_the_wrong_power, series_lines_are_the_json_lines),
    (lower_zero_line_with_no_live_mass, lower_zero_price_lines_are_json_dumps_of_the_table_roots),
    (lowest_dyadic_keeps_the_factors_of_two, series_lines_are_the_json_lines),
    (census_integers_through_plain_str, census_prints_past_the_digit_floor),
    (census_sum_over_twice_the_scale, census_lines_are_json_dumps_of_the_counts),
    (census_b_k_scale_off_by_one, census_lines_are_json_dumps_of_the_counts),
    (csv_rows_end_in_lf, trace_writers_match_csv_and_json_modules),
    (jsonl_members_without_spaces, trace_writers_match_csv_and_json_modules),
    (bracket_upper_off_by_one, upper_bracket_roots_are_the_table_roots),
    (one_tail_root_negated, replication_sees_no_negative_hedge),
    (census_budget_off_by_one_step, replication_cost_is_the_census_sum),
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
