"""The benchmark's workloads: fixed job lists, seeded inputs, output checks.

Each workload is chosen so that one faircoin module does most of the
work.  A job's ``run`` is the timed call; its ``check`` runs afterwards,
outside the timed region and with no tracer installed, and compares the
output with an independent route that already exists in the package.
``work`` is the job's share of the workload's rate numerator, computed
from the job's inputs only.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import faircoin.cli
from faircoin import pricing, reality, stopping, strategies, verify

from counts import strip_states

PIN_SEED = 1  # pinned payloads of seeded jobs are checked at this seed
SLACK = 1e-9  # log-bound slack and float64 agreement, as in the acceptance tests


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]
    payload: Callable[[object], object]
    warm: Callable[[], object]
    work: int = 0
    seeded: bool = True  # inputs follow --seed, so pins hold at PIN_SEED only
    output: str | None = None  # file holding the job's CLI stdout
    approx: bool = False  # payload is rows of floats, pinned to a relative 1e-9


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    fires: tuple[str, ...]  # tracer target ids that must fire on this workload


# ---------------------------------------------------------------------------
# CLI jobs write stdout to a file, so a large response costs the process no
# memory and the check can stream it back after the timed region.
# ---------------------------------------------------------------------------

def _cli(argv: list[str], path: str) -> int:
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        return faircoin.cli.main(argv)


def _lines(path: str) -> list[str]:
    with open(path) as f:
        return f.read().splitlines()


def _json_lines(path: str) -> list[dict]:
    return [json.loads(line) for line in _lines(path) if line.startswith("{")]


def _pick(d: dict, keys: tuple[str, ...]) -> list:
    # only the fields pinned at this commit; extra keys are allowed
    return [d[k] for k in keys]


def _cli_job(name, argv, warm_argv, work_dir, check, payload, work=0, seeded=False):
    path = f"{work_dir}/{name}.out"
    return Job(name=name, run=lambda: (_cli(argv, path), path), check=check,
               payload=payload, warm=lambda: _cli(warm_argv, f"{work_dir}/warm.out"),
               work=work, seeded=seeded, output=path)


# ---------------------------------------------------------------------------
# simulate: traces are re-derived from the seeded path
# ---------------------------------------------------------------------------

EVENT_KEYS = ("rounds", "exceed_count", "exceed_rounds", "pos_exceed_count",
              "neg_exceed_count", "zero_return_count", "last_zero_return", "max_s",
              "min_s", "max_abs_s", "max_n_xbar_sq")


def _read_trace(path: str):
    lines = _lines(path)
    body = [line for line in lines if not line.startswith("{")]
    rows = list(csv.reader(body))
    report = next(d["event_report"] for d in map(json.loads, lines[len(body):])
                  if "event_report" in d)
    return rows, report


def _simulate_payload(result):
    rows, report = _read_trace(result[1])
    return [rows, _pick(report, EVENT_KEYS)]


def _trace_failures(result, horizon: int, exact: bool, moves=None):
    """Recompute s and K row by row; return (failures, rows as numbers)."""
    rc, path = result
    if rc != 0:
        return [f"exit code {rc}"], None
    rows, report = _read_trace(path)
    if rows[0] != ["n", "x", "M", "K", "s"] or len(rows) != horizon + 1:
        return [f"bad trace shape: header {rows[0]}, {len(rows) - 1} rows"], None
    num = Fraction if exact else float
    parsed = [(int(n), int(x), num(m), num(k), int(s)) for n, x, m, k, s in rows[1:]]
    s, cap = 0, num(0)
    for i, (n, x, m, k, s_row) in enumerate(parsed, start=1):
        s += x
        cap = cap + m * x
        if n != i or s_row != s or k != cap or (moves is not None and x != moves[i - 1]):
            return [f"row {i} inconsistent: {rows[i]}"], None
    return _event_failures([row[1] for row in parsed], report), parsed


def _event_failures(moves, report) -> list[str]:
    s = max_s = min_s = zeros = exceed = 0
    for n, x in enumerate(moves, start=1):
        s += x
        max_s, min_s = max(max_s, s), min(min_s, s)
        zeros += s == 0
        exceed += (abs(s) + 1) ** 2 > n
    expect = {"rounds": len(moves), "max_s": max_s, "min_s": min_s, "zero_return_count": zeros,
              "exceed_count": exceed}
    got = {k: report[k] for k in expect}
    return [] if got == expect else [f"event report {got} != {expect}"]


def _simulate_job(name, strategy, seed, horizon, mode, work_dir, final_wealth):
    """``final_wealth(moves)`` is the independent route to the last wealth."""
    argv = ["simulate", "--strategy", strategy, "--reality", f"iid:seed={seed}",
            "--horizon", str(horizon), "--mode", mode]
    warm = argv[:5] + ["--horizon", "50", "--mode", mode]
    exact = mode == "exact"

    def check(result, _):
        moves = reality.iid_path(seed, horizon)
        failures, parsed = _trace_failures(result, horizon, exact, moves)
        if failures:
            return failures
        wealth, want = 1 + parsed[-1][3], final_wealth(moves)
        if wealth != want if exact else not math.isclose(wealth, want, rel_tol=SLACK):
            return [f"final wealth {wealth} != independent {want}"]
        return _stopadd_failures(parsed) if strategy.startswith("stopadd") else []
    return _cli_job(name, argv, warm, work_dir, check, _simulate_payload, work=horizon,
                    seeded=True)


def _stopadd_failures(parsed) -> list[str]:
    """eps = 1 = 2/m with m = 2: the stake is -s_{i-1} while
    (|s_{i-1}| + 1)^2 <= i + 2 and zero from the first round where that
    fails; until then K is the additive closed form (n - s^2)/2."""
    s, stopped = 0, False
    for i, (_, x, m, k, _) in enumerate(parsed, start=1):
        stopped = stopped or (abs(s) + 1) ** 2 > i + 2
        if m != (0 if stopped else -s):
            return [f"round {i}: stake {m} breaks the stop rule"]
        s += x
        if not stopped and k != verify.additive_capital(i, s, Fraction(1)):
            return [f"round {i}: K={k} != closed form"]
    return []


def _stopadd_final(moves):
    n = s = 0
    while n < len(moves) and (abs(s) + 1) ** 2 <= (n + 1) + 2:  # round n + 1, m = 2
        s += moves[n]
        n += 1
    return 1 + verify.additive_capital(n, s, Fraction(1))


def _q_exact(moves):
    return sum((Fraction(1, 1 << i) * verify.product_capital(moves, Fraction(1, 1 << i))
                for i in range(1, 21)), Fraction(1, 1 << 20))


def _mulc_curve(moves, c):
    return float(verify.mulc_capital_curve(np.asarray(moves, dtype=np.float64), c)[-1])


def _q_curve(moves):
    return sum(2.0**-i * _mulc_curve(moves, 2.0**-i) for i in range(1, 21)) + 2.0**-20


def longpath_exact(seed: int, work_dir: str) -> Workload:
    return Workload(
        name="longpath-exact",
        jobs=[
            _simulate_job("stopadd", "stopadd:eps=1", seed, 20_000, "exact", work_dir,
                          _stopadd_final),
            _simulate_job("mulc", "mulc:c=1/2", seed, 2000, "exact", work_dir,
                          lambda moves: verify.product_capital(moves, Fraction(1, 2))),
            _simulate_job("q", "q:depth=20", seed, 200, "exact", work_dir, _q_exact),
        ],
        fires=("cli:main", "cli:run_game", "game:GameTrace.write_csv", "game:GameTrace.play",
               "strategies:Strategy.next_stake", "strategies:Strategy.observe",
               "cli:event_report", "stopping:boundary_exceeds", "reality:IIDCoin.next_move"))


def _curves_job(seed: int) -> Job:
    paths = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8),
                                                size=(20, 100_000))

    def run():
        return [(float(verify.log_bound_margin_curve(m, 0.5).min()),
                 float(verify.mulc_capital_curve(m, 0.5)[-1])) for m in paths]

    def check(result, _):
        bad = [i for i, (margin, final) in enumerate(result)
               if margin < -SLACK or not (0 < final < math.inf)]
        return [f"paths {bad}: log-bound margin below -{SLACK} or wealth not positive"] \
            if bad else []
    return Job(name="curves", run=run, check=check, payload=lambda r: r, approx=True,
               warm=lambda: verify.log_bound_margin_curve(paths[0, :100], 0.5))


def longpath_float(seed: int, work_dir: str) -> Workload:
    return Workload(
        name="longpath-float",
        jobs=[
            _simulate_job("mulc", "mulc:c=1/2", seed, 20_000, "float64", work_dir,
                          lambda moves: _mulc_curve(moves, 0.5)),
            _simulate_job("q", "q:depth=20", seed, 5000, "float64", work_dir, _q_curve),
            _curves_job(seed),
        ],
        fires=("cli:main", "cli:run_game", "game:GameTrace.write_csv", "game:GameTrace.play",
               "strategies:Strategy.next_stake", "strategies:Strategy.observe",
               "cli:event_report", "reality:IIDCoin.next_move",
               "verify:log_bound_margin_curve", "verify:mulc_capital_curve"))


# ---------------------------------------------------------------------------
# lattice: pricing sweeps and CLI formatting of large dyadic numbers
# ---------------------------------------------------------------------------

BRACKET_KEYS = ("l", "horizon", "lower", "upper", "live_mass")
CENSUS_KEYS = ("l", "k", "a", "b_k", "sum_ai_2^-i")


def _brackets(result):
    return [_pick(d, BRACKET_KEYS) for d in _json_lines(result[1])]


def _ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den)


def _series_check(l: int, horizon: int):
    """Every bracket holds 1/2, lower + upper = 1, live_mass = upper - lower,
    and each bracket nests inside the one before; in integer arithmetic."""
    def check(result, _):
        if result[0] != 0:
            return [f"exit code {result[0]}"]
        rows = _brackets(result)
        if [r[:2] for r in rows] != [[l, h] for h in range(1, horizon + 1)]:
            return ["series does not list every horizon once"]
        prev = (0, 1), (1, 1)
        for _, h, lower, upper, mass in rows:
            (a, b), (c, d), (m, e) = _ratio(lower), _ratio(upper), _ratio(mass)
            if a * d + c * b != b * d or m * b * d != (c * b - a * d) * e \
                    or not 2 * a <= b or not 2 * c >= d:
                return [f"horizon {h}: bracket [{lower}, {upper}] fails lower + upper = 1, "
                        "live_mass = upper - lower, or does not hold 1/2"]
            (pa, pb), (pc, pd) = prev
            if a * pb < pa * b or c * pd > pc * d:
                return [f"horizon {h}: brackets do not nest"]
            prev = (a, b), (c, d)
        return []
    return check


def _bracket_check(result, results):
    if result[0] != 0:
        return [f"exit code {result[0]}"]
    got = _brackets(result)
    series = _brackets(results["series-l9"])
    return [] if got == series[-1:] else [f"bracket {got} != last series element"]


def _full_count(l: int, k: int) -> int:
    """Length-k sequences under an absorbed-negative cylinder, counted by a
    forward sweep over whole sequences (the acceptance test's second count)."""
    live, absorbed = {0: 1}, 0
    for n in range(1, k + 1):
        absorbed *= 2
        nxt: dict[int, int] = {}
        for s, cnt in live.items():
            for c in (s - 1, s + 1):
                if (abs(c) + 1) ** 2 > n + l:
                    absorbed += cnt if c < 0 else 0
                else:
                    nxt[c] = nxt.get(c, 0) + cnt
        live = nxt
    return absorbed


def _census_check(result, _):
    if result[0] != 0:
        return [f"exit code {result[0]}"]
    (d,) = _json_lines(result[1])
    l, k, a, b_k = d["l"], d["k"], d["a"], d["b_k"]
    failures = []
    if b_k != sum(ai << (k - i) for i, ai in enumerate(a, start=1)) or len(a) != k:
        failures.append("b_k disagrees with a_1..a_k")
    if b_k != _full_count(l, k) or b_k > 1 << (k - 1):
        failures.append(f"b_k={b_k} != forward count {_full_count(l, k)} or > 2^(k-1)")
    if Fraction(d["sum_ai_2^-i"]) != Fraction(b_k, 1 << k):
        failures.append("budget sum != b_k / 2^k")
    return failures


REPLICATE_KEYS = ("upper_start", "hedge_states_checked", "absorptions_checked",
                  "portfolio_targets", "portfolio_cost", "portfolio_nodes_checked", "ok")


def _replicate_check(result, _):
    upper = pricing.bracket_series(4, 16)[-1].upper
    if result.get("ok") is not True or result["upper_start"] != upper:
        return [f"replication not ok or start {result['upper_start']} != bracket {upper}"]
    return []


def lattice(seed: int, work_dir: str) -> Workload:
    def price(name, l, horizon, series, check):
        argv = ["price", "--l", str(l), "--horizon", str(horizon)] + (["--series"] if series else [])
        warm = argv[:3] + ["--horizon", "64"] + argv[5:]
        work = strip_states(l, horizon) * (1 if series else 2)  # a bracket builds two tables
        return _cli_job(name, argv, warm, work_dir, check, _brackets, work=work)

    return Workload(
        name="lattice",
        jobs=[
            price("series-l4", 4, 4096, True, _series_check(4, 4096)),
            price("series-l9", 9, 2048, True, _series_check(9, 2048)),
            price("bracket-l9", 9, 2048, False, _bracket_check),
            _cli_job("census", ["census", "--l", "4", "--k", "26"],
                     ["census", "--l", "4", "--k", "8"], work_dir, _census_check,
                     lambda r: [_pick(d, CENSUS_KEYS) for d in _json_lines(r[1])],
                     work=strip_states(4, 26)),
            Job(name="replicate", run=lambda: pricing.replicate_and_verify(4, 16),
                check=_replicate_check, warm=lambda: pricing.replicate_and_verify(4, 4),
                payload=lambda r: [str(r[k]) for k in REPLICATE_KEYS],
                work=strip_states(4, 16), seeded=False),
        ],
        fires=("cli:main", "pricing:bracket_series", "pricing:eta_table",
               "pricing:upper_price_bracket", "pricing:enumerate_absorption",
               "pricing:replicate_and_verify", "pricing:delta_hedge_bet",
               "pricing:boundary_exceeds"))


# ---------------------------------------------------------------------------
# tree: exhaustive engine-vs-oracle walks and minimax search
# ---------------------------------------------------------------------------

VERIFY_KEYS = ("identity", "paths_checked", "max_discrepancy", "counterexample", "passed")


def _verify_job(name, check_name, depth, extra, work_dir):
    argv = ["verify", "--check", check_name, "--depth", str(depth)] + extra

    def check(result, _):
        reports = _json_lines(result[1])
        if result[0] != 0 or len(reports) != 1 or reports[0]["passed"] is not True \
                or reports[0]["paths_checked"] != 1 << depth:
            return [f"exit code {result[0]}, reports {reports}"]
        return []
    return _cli_job(name, argv, argv[:3] + ["--depth", "4"] + extra, work_dir, check,
                    lambda r: [_pick(d, VERIFY_KEYS) for d in _json_lines(r[1])],
                    work=1 << depth)


def _sweep_strategies():
    return ([(f"stopadd m={m}", lambda m=m: strategies.StoppedAdditive(Fraction(2, m)))
             for m in (1, 2, 4, 8)]
            + [(f"oneside N={n} {d}", lambda n=n, d=d: strategies.OneSided(n, d))
               for n in (1, 2, 3) for d in ("down", "up")])


def _sweep(depth: int):
    return [(name, objective, *reality.worst_case(make(), depth, objective=objective))
            for name, make in _sweep_strategies() for objective in ("running_min", "final")]


def _sweep_check(result, _):
    bad = [(name, objective, str(value)) for name, objective, value, _ in result if value < 0]
    return [f"negative adversarial wealth {bad}"] if bad else []


def _minimax_check(result, _):
    failures, parsed = _trace_failures(result, 12, True)
    if parsed is None or failures:
        return failures
    value, _ = reality.worst_case(strategies.MultiplicativeContrarian(Fraction(1, 2)), 12)
    wealth = 1 + parsed[-1][3]
    return [] if wealth == value else [f"minimax wealth {wealth} != worst_case {value}"]


def tree(seed: int, work_dir: str) -> Workload:
    minimax = ["simulate", "--strategy", "mulc:c=1/2", "--reality", "minimax:depth=12",
               "--horizon", "12"]
    sweep_paths = len(_sweep_strategies()) * 2 << 20
    return Workload(
        name="tree",
        jobs=[
            _verify_job("additive", "additive-closed-form", 14, [], work_dir),
            _verify_job("stopped-additive", "stopped-additive-collateral", 14, [], work_dir),
            _verify_job("product", "product-capital", 13, [], work_dir),
            _verify_job("one-sided", "one-sided-capital", 13, ["--N", "3"], work_dir),
            _cli_job("minimax", minimax, minimax[:4] + ["minimax:depth=4", "--horizon", "4"],
                     work_dir, _minimax_check, _simulate_payload, work=1 << 12),
            Job(name="sweep", run=lambda: _sweep(20), check=_sweep_check, warm=lambda: _sweep(4),
                payload=lambda r: [[n, o, str(v), list(p)] for n, o, v, p in r],
                work=sweep_paths, seeded=False),
        ],
        fires=("cli:main", "verify:exhaustive", "strategies:Strategy.clone",
               "strategies:Strategy.next_stake", "strategies:Strategy.observe",
               "strategies:MultiplicativeContrarian.state_key",
               "strategies:StoppedAdditive.state_key", "strategies:OneSided.state_key",
               "reality:worst_case", "reality:Minimax.next_move", "cli:run_game"))


# ---------------------------------------------------------------------------
# hedge: the excursion hedge, many small value tables and one bet per round
# ---------------------------------------------------------------------------

HEDGE_PATHS, HEDGE_ROUNDS = 24, 4096


def _flip_excursions(path: list[int], rng: random.Random) -> list[int]:
    """The path with each excursion away from 0 given a random sign.

    |s_n| is unchanged, so are the return rounds, the excursion schedule
    and every value table the hedge builds: the cost of hedging depends
    on |s| alone, while the side of each boundary hit, and so the wealth,
    follows the seed.  The cost of i.i.d. paths varies too much (a
    coefficient of variation of about 0.6 per 4096-round path) for a
    pass over a few of them to time the same under every seed.
    """
    out, s, sign = [], 0, 1
    for x in path:
        if s == 0:
            sign = rng.choice((-1, 1))
        out.append(sign * x)
        s += x
    return out


def _hedge_job(seed: int) -> Job:
    rng = random.Random(seed)
    paths = [_flip_excursions(reality.iid_path(i, HEDGE_ROUNDS), rng) for i in range(HEDGE_PATHS)]

    def play(path):
        strat = strategies.SignForcing(hedge_cap=1024, run_horizon=len(path))
        for x in path:
            strat.next_stake()
            strat.observe(x)
        return ([(e.w, e.v, e.side, e.multiplier, e.hedged) for e in strat.excursion_log],
                strat.wealth)

    def check(result, _):
        failures = []
        for i, (path, (log, wealth)) in enumerate(zip(paths, result)):
            schedule = [(p.w, p.v) for p in stopping.excursions(path) if p.v is not None]
            if [(w, v) for w, v, *_ in log] != schedule:
                failures.append(f"path {i}: excursion schedule differs")
            product = Fraction(1)
            for w, _, side, mult, hedged in log:
                want = (Fraction(3, 2) if side == -1 else Fraction(1, 2)) if hedged else 1
                if mult != want:
                    failures.append(f"path {i} w={w}: multiplier {mult} != {want}")
                product *= mult
            if wealth != product:
                failures.append(f"path {i}: wealth {wealth} != product {product}")
        return failures

    return Job(name="signforce", run=lambda: [play(p) for p in paths], check=check,
               payload=lambda r: [[[list(map(str, e)) for e in log], str(w)] for log, w in r],
               warm=lambda: play(paths[0][:256]), work=HEDGE_PATHS * HEDGE_ROUNDS)


def hedge(seed: int, work_dir: str) -> Workload:
    return Workload(
        name="hedge",
        jobs=[_hedge_job(seed)],
        fires=("strategies:Strategy.next_stake", "strategies:Strategy.observe",
               "pricing:eta_table", "pricing:delta_hedge_bet", "pricing:boundary_exceeds",
               "strategies:boundary_exceeds"))


WORKLOADS = {w.__name__.replace("_", "-"): w
             for w in (longpath_exact, longpath_float, lattice, tree, hedge)}
