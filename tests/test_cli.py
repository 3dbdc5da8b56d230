"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from faircoin.cli import main
from faircoin.game import GameTrace
from faircoin.strategies import StrategyError, parse_strategy
from faircoin.verify import product_capital


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def trace_and_report(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    report = json.loads(lines[-1])["event_report"]
    return lines[:-1], report


def test_simulate_stopped_additive_alternating(capsys):
    # eps = 1 = 2/2: s returns to 0 every other round, so K_100 = 50
    code, out = run_cli(capsys, "simulate", "--strategy", "stopadd:eps=1",
                        "--reality", "alt", "--horizon", "100")
    assert code == 0
    rows, report = trace_and_report(out)
    trace = GameTrace.read_csv(io.StringIO("\n".join(rows)))
    assert trace.final_capital == 50
    assert report["zero_return_count"] == 50


def test_simulate_mulc_vs_greedy_matches_product(capsys):
    code, out = run_cli(capsys, "simulate", "--strategy", "mulc:c=1/2",
                        "--reality", "greedy", "--horizon", "20")
    assert code == 0
    rows, _ = trace_and_report(out)
    trace = GameTrace.read_csv(io.StringIO("\n".join(rows)))
    assert 1 + trace.final_capital == product_capital(trace.moves, Fraction(1, 2))


def test_simulate_one_sided_fixed_path(capsys):
    code, out = run_cli(capsys, "simulate", "--strategy", "oneside:N=2,dir=down",
                        "--reality", "fixed:-1-1", "--horizon", "2")
    assert code == 0
    rows, _ = trace_and_report(out)
    trace = GameTrace.read_csv(io.StringIO("\n".join(rows)))
    assert trace.final_capital == -1


def test_simulate_jsonl_format(capsys):
    code, out = run_cli(capsys, "simulate", "--strategy", "zero",
                        "--reality", "alt", "--horizon", "3",
                        "--format", "jsonl")
    assert code == 0
    rows, _ = trace_and_report(out)
    assert len(rows) == 3
    assert json.loads(rows[0]) == {"n": 1, "x": 1, "M": "0/1", "K": "0/1", "s": 1}


def test_simulate_minimax_reality(capsys):
    code, out = run_cli(capsys, "simulate", "--strategy", "oneside:N=1,dir=down",
                        "--reality", "minimax:depth=4", "--horizon", "4")
    assert code == 0
    rows, _ = trace_and_report(out)
    trace = GameTrace.read_csv(io.StringIO("\n".join(rows)))
    assert trace.final_capital == -1


def test_simulate_to_file(tmp_path, capsys):
    dest = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "simulate", "--strategy", "zero",
                      "--reality", "alt", "--horizon", "2",
                      "--output", str(dest))
    assert code == 0
    text = dest.read_text()
    assert text.startswith("n,x,M,K,s")
    assert "event_report" in text


def test_price_l0(capsys):
    code, out = run_cli(capsys, "price", "--l", "0", "--horizon", "8")
    assert code == 0
    d = json.loads(out)
    assert d["lower"] == "1/2" and d["upper"] == "1/2"
    assert d["live_mass"] == "0/1"


def test_price_series(capsys):
    code, out = run_cli(capsys, "price", "--l", "4", "--horizon", "4", "--series")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    assert [r["horizon"] for r in rows] == [1, 2, 3, 4]
    assert rows[1]["lower"] == "1/4" and rows[1]["upper"] == "3/4"
    assert rows[3]["lower"] == "3/8" and rows[3]["upper"] == "5/8"


def test_census(capsys):
    code, out = run_cli(capsys, "census", "--l", "4", "--k", "4")
    assert code == 0
    d = json.loads(out)
    assert d["a"] == [0, 1, 0, 2]
    assert d["b_k"] == 6
    assert d["sum_ai_2^-i"] == "3/8"


# SHA-256 of the concatenated stdout of these calls, recorded when every
# bracket still printed through Fraction and fmt_number
DYADIC_OUTPUT_PIN = ("243468e8aca0a55a0b33dacf95550c34cf3b4a22a7510f460621f359784be3ad",
                     [["price", "--l", "4", "--horizon", "512", "--series"],
                      ["price", "--l", "9", "--horizon", "2048"],
                      ["census", "--l", "4", "--k", "26"]])


def test_price_and_census_output_pinned(capsys):
    digest, calls = DYADIC_OUTPUT_PIN
    h = hashlib.sha256()
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        h.update(out.encode())
    assert h.hexdigest() == digest


def test_verify_pass_and_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--check", "additive-closed-form",
                        "--depth", "10")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_with_params(capsys):
    code, out = run_cli(capsys, "verify", "--check", "one-sided-capital",
                        "--depth", "8", "--N", "3", "--direction", "up")
    assert code == 0
    assert json.loads(out)["passed"] is True


# the six checks at their defaults, pinned byte for byte
VERIFY_PINS = {
    check: json.dumps({"identity": identity, "paths_checked": 1024, "max_discrepancy": "0/1",
                       "counterexample": None, "passed": True})
    for check, identity in [
        ("additive-closed-form", "additive-closed-form"),
        ("log-lower-bound", "log-lower-bound"),
        ("one-sided-capital", "one-sided-capital-down-2"),
        ("product-capital", "product-capital"),
        ("stopped-additive-collateral", "stopped-additive-collateral"),
        ("summation-identity", "summation-identity"),
    ]
}


@pytest.mark.parametrize("check", sorted(VERIFY_PINS))
def test_verify_output_pinned_at_depth_10(capsys, check):
    code, out = run_cli(capsys, "verify", "--check", check, "--depth", "10")
    assert code == 0
    assert out == VERIFY_PINS[check] + "\n"


def test_excursions_from_path(capsys):
    code, out = run_cli(capsys, "excursions", "--path=-1+1-1")
    assert code == 0
    d = json.loads(out)
    assert d["excursions"] == [{"w": 2, "v": 3}]
    # --horizon plays a prefix of the path
    code, out = run_cli(capsys, "excursions", "--path=-1+1-1", "--horizon", "2")
    assert json.loads(out) == {"rounds": 2, "excursions": [{"w": 2, "v": None}]}


def test_excursions_from_reality(capsys):
    code, out = run_cli(capsys, "excursions", "--reality", "alt",
                        "--horizon", "10")
    assert code == 0
    d = json.loads(out)
    assert d["rounds"] == 10


def test_excursions_requires_one_source(capsys):
    code = main(["excursions", "--path", "+-", "--reality", "alt"])
    assert code == 2
    code = main(["excursions", "--reality", "alt"])  # missing horizon
    assert code == 2


def test_bad_strategy_spec_raises(capsys):
    with pytest.raises(StrategyError):
        parse_strategy("nope")
    code = main(["simulate", "--strategy", "nope", "--reality", "alt",
                 "--horizon", "1"])
    assert code == 2
    assert "unknown strategy spec" in capsys.readouterr().err


def _simulate(strategy="zero", reality="alt"):
    return ["simulate", "--strategy", strategy, "--reality", reality, "--horizon", "1"]


@pytest.mark.parametrize("argv", [
    ["census", "--l", "4", "--k", "0"],
    ["price", "--l", "0", "--horizon", "0"],
    # a missing spec argument or a bad literal is a usage error too
    *(_simulate(reality=r) for r in ("iid:", "iid:seed=x", "greedy:tie=x", "minimax:")),
    *(_simulate(strategy=s) for s in ("mulc:", "mulc:c=x", "oneside:N=x", "pathbet:budget=1",
                                      "signforce:cap=x", "q:depth=x",
                                      "mix:[1/2@mulc:c=1/2;x]")),
    ["verify", "--check", "product-capital", "--depth", "2", "--c", "x"],
    ["verify", "--check", "additive-closed-form", "--depth", "2", "--eps", "x"],
    _simulate() + ["--initial", "x"],
    _simulate() + ["--initial", "1/0"],
    # a negative offset is refused by the strip kernel all three share
    ["census", "--l", "-2", "--k", "3"],
    ["price", "--l", "-1", "--horizon", "3", "--series"],
    ["price", "--l", "-1", "--horizon", "3"],
    _simulate() + ["--initial", "-7"],
    # a parameter the check does not take is refused, not dropped
    ["verify", "--check", "summation-identity", "--depth", "4",
     "--c", "1/3", "--eps", "5", "--N", "9"],
    ["verify", "--check", "product-capital", "--depth", "3", "--direction", "up"],
    # the log bound is claimed only for 0 < c <= 1/2
    *(["verify", "--check", "log-lower-bound", "--depth", "3", "--c", c]
      for c in ("1", "-1", "0", "3/4")),
    # both identities are checked only from n = 2
    ["verify", "--check", "summation-identity", "--depth", "1"],
    ["verify", "--check", "log-lower-bound", "--depth", "1"],
    ["excursions", "--reality", "alt", "--horizon", "-3"],
    ["excursions", "--path", "+-", "--horizon", "5"],
    ["excursions", "--path", "+-", "--reality", "alt"],
    ["excursions", "--reality", "alt"],
])
def test_domain_error_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_identical_configs_identical_output(capsys):
    _, a = run_cli(capsys, "simulate", "--strategy", "q:depth=4",
                   "--reality", "iid:seed=9", "--horizon", "30")
    _, b = run_cli(capsys, "simulate", "--strategy", "q:depth=4",
                   "--reality", "iid:seed=9", "--horizon", "30")
    assert a == b
