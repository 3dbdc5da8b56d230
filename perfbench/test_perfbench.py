"""Tests for the benchmark's own work counts and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from faircoin import pricing
from faircoin.reality import IIDCoin
from faircoin.game import run_game
from faircoin.strategies import MultiplicativeContrarian

from counts import live_level_bounds, strip_states
from tracer import PER_LAYER, TARGETS, Target, TraceError, Tracer, unit_of
from workloads import WORKLOADS


@pytest.mark.parametrize("l", [0, 1, 4, 9])
@pytest.mark.parametrize("horizon", [1, 2, 3, 16, 64, 256])
def test_strip_states_match_eta_table(l, horizon):
    table = pricing.eta_table(l, horizon)
    live = {(n, s) for n in range(horizon + 1) for s in range(-n, n + 1)
            if table.is_live(n, s)}
    swept = {(n, s) for n, lo, hi in live_level_bounds(l, horizon) for s in range(lo, hi + 1, 2)}
    assert swept == live
    assert strip_states(l, horizon) == len(live)


def test_strip_states_count_reachability_not_the_closed_form():
    # the root plus every state that passes the boundary test at l = 0
    closed_form = 1 + sum(1 for n in range(1, 65) for s in range(-n, n + 1, 2)
                          if (abs(s) + 1) ** 2 <= n)
    assert (closed_form, strip_states(0, 64)) == (281, 1)
    assert strip_states(4, 4096) == 170_941


def _game():
    trace = run_game(MultiplicativeContrarian(Fraction(1, 2)), IIDCoin(3), 40)
    return [(r.stake, r.capital) for r in trace.rounds]


def test_tracer_is_transparent_and_removable():
    plain = _game()
    tracer = Tracer()
    tracer.install()
    try:
        assert len(Tracer.installed_wrappers()) == len(TARGETS)
        traced = _game()
    finally:
        tracer.uninstall()
    assert Tracer.installed_wrappers() == []
    assert traced == plain
    metrics = tracer.metrics(output_bytes=0)
    assert metrics["game.rounds"] == 40
    assert metrics["strategies.steps"] == 40
    assert metrics["reality.next_move.calls"] == 40


def test_tracer_fails_loudly_on_a_missing_binding(monkeypatch):
    monkeypatch.setattr("tracer.TARGETS", TARGETS + (
        Target("faircoin.pricing", "renamed_away", "span", "pricing.eta_table"),))
    tracer = Tracer()
    with pytest.raises(TraceError, match="renamed_away"):
        tracer.install()
    monkeypatch.undo()
    assert Tracer.installed_wrappers() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_boundary_a_workload_must_fire_is_traced(name, tmp_path):
    known = {t.id for t in TARGETS}
    assert set(WORKLOADS[name](1, str(tmp_path)).fires) <= known


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run_level = ("trace.overhead_ratio", "raw.setup_s", "raw.wall_s")
    assert listed == {name: unit_of(name) for name in PER_LAYER + run_level}
