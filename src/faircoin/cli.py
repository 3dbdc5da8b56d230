"""Command-line entry point: simulate, price, census, verify, excursions.

Outputs are machine-readable (CSV or JSON lines), deterministic for a
given configuration, and carry exact rationals as "num/den" strings in
exact mode so reports can be diffed against golden files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import pricing, verify
from .game import GameError, fmt_dyadic, parse_moves, run_game, spec_value
from .pricing import PricingError
from .reality import FixedPath, RealityError, parse_reality
from .stopping import event_report, excursions
from .strategies import StrategyError, ZeroStrategy, parse_strategy
from .verify import VerifyError


def main(argv=None) -> int:
    """Run one subcommand.  Exit codes: 0 ok, 1 a check failed, 2 a usage
    or domain error (argparse's own usage errors also exit 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (GameError, PricingError, RealityError, StrategyError, VerifyError) as exc:
        print(f"faircoin: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircoin",
        description="Fair-coin betting game: simulation, pricing, verification.")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("simulate", help="play one game and emit the trace")
    p.add_argument("--strategy", required=True, help="e.g. mulc:c=1/2, stopadd:eps=2/4")
    p.add_argument("--reality", required=True,
                   help="e.g. fixed:+1-1, iid:seed=42, alt, greedy, minimax:depth=12")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "float64"], default="exact")
    p.add_argument("--initial", default="1", help="initial capital, rational")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--output", default="-", help="trace destination, '-' for stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("price", help="bracket the boundary ticket's upper price")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--series", action="store_true",
                   help="emit the bracket at every horizon up to --horizon")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("census", help="absorbed-negative situation counts")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run an identity check exhaustively")
    p.add_argument("--check", required=True, choices=sorted(verify.CHECKS))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--c", default=None, help="contrarian fraction, rational")
    p.add_argument("--eps", default=None, help="additive stake slope, rational")
    p.add_argument("--N", type=int, default=None, help="one-sided level")
    p.add_argument("--direction", choices=["down", "up"], default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("excursions", help="origin-departure / boundary-hit schedule")
    p.add_argument("--path", help="explicit move string, e.g. +1-1-1 or +--")
    p.add_argument("--reality", help="reality spec to generate the path instead")
    p.add_argument("--horizon", type=int, default=None,
                   help="rounds to play; defaults to the length of --path")
    p.set_defaults(func=cmd_excursions)

    return parser


def cmd_simulate(args) -> int:
    exact = args.mode == "exact"
    strategy = parse_strategy(args.strategy, exact=exact)
    reality = parse_reality(
        args.reality,
        strategy_factory=lambda: parse_strategy(args.strategy, exact=exact),
        horizon=args.horizon)
    initial = spec_value("--initial", args.initial, Fraction, GameError)
    if initial < 0:
        raise GameError(f"--initial must be >= 0, got {args.initial}")
    trace = run_game(strategy, reality, args.horizon, initial_capital=initial, exact=exact)
    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w")
    except OSError as exc:
        raise GameError(f"cannot open --output {args.output}: {exc.strerror}") from None
    try:
        if args.format == "csv":
            trace.write_csv(out)
        else:
            trace.write_jsonl(out)
        out.write(json.dumps({"event_report": event_report(trace.moves).to_json_dict()}) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_price(args) -> int:
    if args.series:
        sys.stdout.writelines(pricing.series_json_lines(args.l, args.horizon))
    else:
        sys.stdout.write(pricing.upper_price_bracket(args.l, args.horizon).json_line())
    return 0


def cmd_census(args) -> int:
    census = pricing.enumerate_absorption(args.l, args.k)
    print(json.dumps({
        "l": census.l,
        "k": census.k,
        "a": list(census.a),
        "b_k": census.b_k,
        "sum_ai_2^-i": fmt_dyadic(census.b_k, census.k),
    }))
    return 0


def cmd_verify(args) -> int:
    params = {}
    if args.c is not None:
        params["c"] = spec_value("--c", args.c, Fraction, VerifyError)
    if args.eps is not None:
        params["eps"] = spec_value("--eps", args.eps, Fraction, VerifyError)
    if args.N is not None:
        params["N"] = args.N
    if args.direction is not None:
        params["direction"] = args.direction
    report = verify.exhaustive(args.depth, args.check, **params)
    print(json.dumps(report.to_json_dict()))
    return 0 if report.passed else 1


def cmd_excursions(args) -> int:
    if (args.path is None) == (args.reality is None):
        raise RealityError("excursions needs exactly one of --path / --reality")
    if args.path is not None:
        source = FixedPath(parse_moves(args.path))
        horizon = len(source.moves) if args.horizon is None else args.horizon
    elif args.horizon is None:
        raise RealityError("excursions --reality needs --horizon")
    else:
        source, horizon = parse_reality(args.reality), args.horizon
    moves = run_game(ZeroStrategy(), source, horizon).moves
    schedule = excursions(moves)
    print(json.dumps({
        "rounds": len(moves),
        "excursions": [{"w": p.w, "v": p.v} for p in schedule],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
