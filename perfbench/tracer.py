"""Call tracing around faircoin's module boundaries, installed from outside.

Wrappers replace the names each caller looks up: ``from .x import y``
binds ``y`` in the importing module, so a function is wrapped at every
module that binds it, and a method on every class that defines it.  The
package source is never edited.

Three kinds of wrapper, by call rate:

* ``span``  times the call and keeps a span (name, start, end, parent);
* ``timed`` times the call into per-name totals only (hot methods);
* ``count`` only counts the call (the hottest boundaries).

Timed and span calls keep a stack, so a call's self time is its duration
minus the time its timed children cover; time inside ``count`` calls
stays in the caller's self time.  An exception is counted against a
layer when it leaves that layer for its caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from counts import strip_states, tree_nodes

SPAN, TIMED, COUNT = "span", "timed", "count"
LAYERS = ("cli", "game", "strategies", "stopping", "pricing", "reality", "verify")
MARK = "_perfbench_wrapper"


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``owner`` is a module, ``attr`` may be Class.method."""

    owner: str
    attr: str
    kind: str
    name: str

    @property
    def id(self) -> str:
        return f"{self.owner.removeprefix('faircoin.')}:{self.attr}"

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _t(owner, attr, kind, name):
    return Target("faircoin." + owner, attr, kind, name)


STRATEGY_CLASSES = ("Strategy", "MultiplicativeContrarian", "AdditiveContrarian",
                    "StoppedAdditive", "OneSided", "PathBettor", "Mixture",
                    "SignForcing", "ZeroStrategy")
REALITY_CLASSES = ("RealitySource", "FixedPath", "Alternating", "IIDCoin", "Greedy",
                   "Minimax")

TARGETS = (
    _t("cli", "main", SPAN, "cli.main"),
    _t("cli", "run_game", SPAN, "game.run_game"),
    _t("game", "run_game", SPAN, "game.run_game"),
    _t("game", "GameTrace.write_csv", SPAN, "game.write_trace"),
    _t("game", "GameTrace.write_jsonl", SPAN, "game.write_trace"),
    _t("game", "GameTrace.play", COUNT, "game.play"),
    _t("strategies", "Strategy.next_stake", TIMED, "strategies.next_stake"),
    _t("strategies", "Strategy.observe", TIMED, "strategies.observe"),
    _t("strategies", "Strategy.clone", TIMED, "strategies.clone"),
    _t("strategies", "Mixture.clone", TIMED, "strategies.clone"),
    _t("strategies", "SignForcing.clone", TIMED, "strategies.clone"),
    *(_t("strategies", f"{c}.state_key", COUNT, "strategies.state_key")
      for c in STRATEGY_CLASSES if c != "SignForcing"),
    _t("stopping", "boundary_exceeds", COUNT, "stopping.boundary_exceeds"),
    _t("pricing", "boundary_exceeds", COUNT, "stopping.boundary_exceeds"),
    _t("strategies", "boundary_exceeds", COUNT, "stopping.boundary_exceeds"),
    _t("cli", "event_report", SPAN, "stopping.event_report"),
    _t("stopping", "event_report", SPAN, "stopping.event_report"),
    _t("pricing", "eta_table", SPAN, "pricing.eta_table"),
    _t("pricing", "bracket_series", SPAN, "pricing.bracket_series"),
    _t("pricing", "upper_price_bracket", SPAN, "pricing.upper_price_bracket"),
    _t("pricing", "enumerate_absorption", SPAN, "pricing.enumerate_absorption"),
    _t("pricing", "replicate_and_verify", SPAN, "pricing.replicate_and_verify"),
    _t("pricing", "delta_hedge_bet", TIMED, "pricing.delta_hedge_bet"),
    *(_t("reality", f"{c}.next_move", TIMED, "reality.next_move") for c in REALITY_CLASSES),
    _t("reality", "worst_case", SPAN, "reality.worst_case"),
    _t("verify", "exhaustive", SPAN, "verify.exhaustive"),
    _t("verify", "log_bound_margin_curve", SPAN, "verify.curves"),
    _t("verify", "mulc_capital_curve", SPAN, "verify.curves"),
)

# Methods whose every defining class must appear in TARGETS, so that a new
# override cannot slip past the tracer unseen.
OVERRIDES = (("strategies", "Strategy", ("next_stake", "observe", "clone", "state_key")),
             ("reality", "RealitySource", ("next_move",)))

# Work counts read from a call's arguments (job inputs), never from the engine.
SWEEPS = ("pricing.eta_table", "pricing.bracket_series", "pricing.enumerate_absorption")

PER_LAYER = (
    "cli.main.self_s", "cli.output_bytes",
    "game.run_game.self_s", "game.rounds", "game.us_per_round", "game.write_trace.self_s",
    "strategies.steps", "strategies.step.self_s", "strategies.us_per_step.exact",
    "strategies.us_per_step.float64", "strategies.clones", "strategies.wealth_bits_max",
    "stopping.boundary_exceeds.calls", "stopping.event_report.self_s",
    "pricing.states", "pricing.us_per_state", "pricing.eta_table.calls",
    "pricing.eta_table.self_s", "pricing.bracket_series.self_s",
    "pricing.enumerate_absorption.self_s", "pricing.replicate_and_verify.self_s",
    "pricing.replicate.nodes", "pricing.delta_hedge_bet.calls",
    "pricing.delta_hedge_bet.self_s", "pricing.value_bits_max",
    "reality.next_move.calls", "reality.next_move.self_s", "reality.worst_case.calls",
    "reality.worst_case.self_s", "reality.memo_hit_ratio",
    "verify.exhaustive.self_s", "verify.us_per_node", "verify.paths_checked",
    "verify.curves.self_s", "verify.curves.ns_per_point",
    *(f"{layer}.errors" for layer in LAYERS),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name.  Times are in
    reference units (see bench_pass.reference), except the raw clock
    readings under ``raw.``."""
    if name.startswith("raw."):
        return "s"
    if name.endswith("_s"):
        return "ref_s"
    for part, unit in ((".us_per_", "ref_us"), (".ns_per_", "ref_ns"), ("_ratio", "ratio"),
                       ("_bits_max", "bits"), ("_bytes", "bytes")):
        if part in name:
            return unit
    return "count"


class TraceError(Exception):
    """The tracer could not find or restore a boundary it is meant to wrap."""


def _resolve(target: Target):
    module = importlib.import_module(target.owner)
    holder = module
    *path, leaf = target.attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    if leaf not in vars(holder):
        raise TraceError(f"{target.id}: no such binding (renamed or moved?)")
    return holder, leaf, vars(holder)[leaf]


def _value_bits(result) -> int:
    """Largest numerator or denominator bit length of a pricing result's
    public root values."""
    if isinstance(result, list):
        result = result[-1] if result else None
    if isinstance(result, dict):
        values = [result.get("upper_start")]
    else:
        values = [getattr(result, a, None) for a in ("root_value", "lower", "upper", "budget_sum")]
    bits = 0
    for v in values:
        if isinstance(v, Fraction):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    """Records spans and per-boundary totals while installed."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        # frame: [start, child_time, name, layer, span_id]
        self.stack: list[list] = [[0.0, 0.0, "", "", 0]]
        self.calls: Counter = Counter()    # target id -> calls
        self.self_s: Counter = Counter()   # name -> self time
        self.incl_s: Counter = Counter()   # name -> inclusive time
        self.busy_s: Counter = Counter()   # layer -> time of outermost calls into it
        self.outer: Counter = Counter()    # name -> calls from another layer
        self.edges: Counter = Counter()    # (parent name, name) -> calls
        self.errors: Counter = Counter()   # layer -> exceptions leaving it
        self.work: Counter = Counter()     # work counts read from arguments
        self.peak: Counter = Counter()     # maxima (bit lengths)
        self.spans: list[tuple] = []
        self._key_depth = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, base, methods in OVERRIDES:
            mod = importlib.import_module("faircoin." + module)
            wrapped = {t.attr for t in TARGETS if t.owner == mod.__name__}
            for cls_name, cls in vars(mod).items():
                if not (inspect.isclass(cls) and issubclass(cls, getattr(mod, base))):
                    continue
                for meth in methods:
                    if meth in vars(cls) and f"{cls_name}.{meth}" not in wrapped:
                        raise TraceError(f"{module}:{cls_name}.{meth} is not traced")
        try:
            for target in TARGETS:
                holder, leaf, original = _resolve(target)
                setattr(holder, leaf, self._wrap(target, original))
                self._installed.append((holder, leaf, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            holder, leaf, original = self._installed.pop()
            setattr(holder, leaf, original)

    @staticmethod
    def installed_wrappers() -> list[str]:
        """Ids of targets currently bound to a tracer wrapper, so a test can
        check that uninstall() restores every binding."""
        found = []
        for t in TARGETS:
            try:
                bound = _resolve(t)[2]
            except (TraceError, AttributeError, ImportError):
                continue
            if getattr(bound, MARK, False):
                found.append(t.id)
        return found

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        if target.kind == COUNT:
            wrapper = (self._count_key(target, fn) if target.name == "strategies.state_key"
                       else self._count(target, fn))
        else:
            wrapper = self._timed(target, fn)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, target: Target, fn):
        calls, errors, tid, layer = self.calls, self.errors, target.id, target.layer

        def wrapper(*args, **kwargs):
            calls[tid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
        return wrapper

    def _count_key(self, target: Target, fn):
        """state_key: count only top-level probes, not a mixture's
        component keys, under the caller's name."""
        calls, edges, errors, stack, tid = self.calls, self.edges, self.errors, self.stack, target.id

        def wrapper(obj):
            calls[tid] += 1
            if self._key_depth == 0:
                edges[(stack[-1][2], target.name)] += 1
            self._key_depth += 1
            try:
                return fn(obj)
            except BaseException:
                if self._key_depth == 1:
                    errors["strategies"] += 1
                raise
            finally:
                self._key_depth -= 1
        return wrapper

    def _timed(self, target: Target, fn):
        clock = time.perf_counter
        stack, calls, edges = self.stack, self.calls, self.edges
        self_s, incl_s, busy_s, outer, errors = (self.self_s, self.incl_s, self.busy_s,
                                                 self.outer, self.errors)
        spans, tid, name, layer = self.spans, target.id, target.name, target.layer
        keep = target.kind == SPAN
        is_strategy = layer == "strategies"
        before, after = self._hooks(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if is_strategy:  # split the strategy layer by numeric mode
                lay = "strategies.exact" if args[0].exact else "strategies.float64"
                key = f"{name}.{lay[11:]}"
            else:
                lay, key = layer, name
            if before is not None:
                before(args, kwargs)
            frame = [0.0, 0.0, key, lay, len(spans) + 1 if keep else parent[4]]
            if keep:
                spans.append(None)  # reserve the id; filled at exit
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[3] != lay:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[tid] += 1
                self_s[key] += dur - frame[1]
                incl_s[key] += dur
                parent[1] += dur
                edges[(parent[2], key)] += 1
                if parent[3] != lay:
                    busy_s[lay] += dur
                    outer[key] += 1
                if keep:
                    spans[frame[4] - 1] = (frame[4], parent[4], key, start, end, dur - frame[1])
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _hooks(self, name: str):
        work, peak = self.work, self.peak

        def states(args, kwargs):
            work["pricing.states"] += strip_states(args[0], args[1])

        def pricing_bits(args, result):
            peak["pricing.value_bits_max"] = max(peak["pricing.value_bits_max"],
                                                 _value_bits(result))

        def replicated(args, result):
            pricing_bits(args, result)
            work["pricing.replicate.nodes"] += (result["hedge_states_checked"]
                                                + result["portfolio_nodes_checked"])

        def exhaustive(args, kwargs):
            work["verify.nodes"] += tree_nodes(args[0])

        def exhaustive_done(args, result):
            work["verify.paths_checked"] += result.paths_checked

        def curve(args, kwargs):
            work["verify.curve_points"] += len(args[0])

        def observed(args, result):
            gain = args[0].gain
            if isinstance(gain, Fraction):
                peak["strategies.wealth_bits_max"] = max(peak["strategies.wealth_bits_max"],
                                                         gain.numerator.bit_length())

        if name in SWEEPS:
            return states, pricing_bits
        return {
            "pricing.upper_price_bracket": (None, pricing_bits),
            "pricing.replicate_and_verify": (None, replicated),
            "verify.exhaustive": (exhaustive, exhaustive_done),
            "verify.curves": (curve, None),
            "strategies.observe": (None, observed),
        }.get(name, (None, None))

    # -- results ----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return sum(self.calls[t.id] for t in TARGETS if t.name == name)

    def metrics(self, output_bytes: int) -> dict[str, float]:
        s, incl, work, outer = self.self_s, self.incl_s, self.work, self.outer

        def sum_of(counter, *names):
            return sum(v for k, v in counter.items() if k.startswith(names))

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        rounds = self.calls_of("game.play")
        states = work["pricing.states"]
        searched = sum(v for (p, c), v in self.edges.items()
                       if p == "reality.worst_case" and c.startswith("strategies.next_stake"))
        probes = self.edges[("reality.worst_case", "strategies.state_key")]
        out = {
            "cli.main.self_s": s["cli.main"],
            "cli.output_bytes": output_bytes,
            "game.run_game.self_s": s["game.run_game"],
            "game.rounds": rounds,
            "game.us_per_round": per(incl["game.run_game"], rounds, 1e6),
            "game.write_trace.self_s": s["game.write_trace"],
            "strategies.steps": sum_of(outer, "strategies.observe."),
            "strategies.step.self_s": sum_of(s, "strategies."),
            "strategies.us_per_step.exact": per(self.busy_s["strategies.exact"],
                                                outer["strategies.observe.exact"], 1e6),
            "strategies.us_per_step.float64": per(self.busy_s["strategies.float64"],
                                                  outer["strategies.observe.float64"], 1e6),
            "strategies.clones": sum_of(outer, "strategies.clone."),
            "strategies.wealth_bits_max": self.peak["strategies.wealth_bits_max"],
            "stopping.boundary_exceeds.calls": self.calls_of("stopping.boundary_exceeds"),
            "stopping.event_report.self_s": s["stopping.event_report"],
            "pricing.states": states,
            "pricing.us_per_state": per(sum(incl[n] for n in SWEEPS), states, 1e6),
            "pricing.eta_table.calls": self.calls_of("pricing.eta_table"),
            "pricing.eta_table.self_s": s["pricing.eta_table"],
            "pricing.bracket_series.self_s": s["pricing.bracket_series"],
            "pricing.enumerate_absorption.self_s": s["pricing.enumerate_absorption"],
            "pricing.replicate_and_verify.self_s": s["pricing.replicate_and_verify"],
            "pricing.replicate.nodes": work["pricing.replicate.nodes"],
            "pricing.delta_hedge_bet.calls": self.calls_of("pricing.delta_hedge_bet"),
            "pricing.delta_hedge_bet.self_s": s["pricing.delta_hedge_bet"],
            "pricing.value_bits_max": self.peak["pricing.value_bits_max"],
            "reality.next_move.calls": self.calls_of("reality.next_move"),
            "reality.next_move.self_s": s["reality.next_move"],
            "reality.worst_case.calls": self.calls_of("reality.worst_case"),
            "reality.worst_case.self_s": s["reality.worst_case"],
            "reality.memo_hit_ratio": per(probes - searched, probes, 1.0),
            "verify.exhaustive.self_s": s["verify.exhaustive"],
            "verify.us_per_node": per(incl["verify.exhaustive"], work["verify.nodes"], 1e6),
            "verify.paths_checked": work["verify.paths_checked"],
            "verify.curves.self_s": s["verify.curves"],
            "verify.curves.ns_per_point": per(incl["verify.curves"],
                                              work["verify.curve_points"], 1e9),
        }
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        if list(out) != list(PER_LAYER):
            raise TraceError("metrics() and PER_LAYER list different metrics")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, start, end, self_time in filter(None, self.spans):
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end, "self_s": self_time}) + "\n")
