"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from faircoin import cli, game, pricing
from faircoin.cli import main
from faircoin.game import GameTrace, fmt_number
from faircoin.pricing import PriceBracket, enumerate_absorption, eta_table
from faircoin.strategies import StrategyError, parse_strategy
from faircoin.verify import product_capital


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cli_output(*argv):
    """main(argv)'s exit code and stdout, for checks that run without capsys."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, out.getvalue()


@contextlib.contextmanager
def int_digit_limit(digits):
    """sys.set_int_max_str_digits(digits) inside the block; 0 lifts the limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


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


# SHA-256 of the series stdout of the benchmark's lattice jobs, recorded
# when every line of a series formatted its own values
SERIES_DIGESTS = {
    (4, 4096): "454bb9ae172b7ae5b4c16a25e7a6ed32bdc4c5c9c883837fe67420094a88cdef",
    (9, 2048): "7fa71fcb68ff0298eb46bce9dd95d59a33d611f3360f8e8923ad65bf25621435",
}


@pytest.mark.parametrize("l, horizon", sorted(SERIES_DIGESTS))
def test_long_price_series_pinned(capsys, l, horizon):
    code, out = run_cli(capsys, "price", "--l", str(l), "--horizon", str(horizon), "--series")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[l, horizon]


# SHA-256 of each simulate stdout (trace and event report), recorded when the
# rows still went through csv.writer and json.dumps and the report kept a
# Fraction max; minimax searches the whole game, so it plays 8 rounds
SIMULATE_HORIZONS = {"iid:seed=3": 300, "alt": 300, "minimax:depth=8": 8}
SIMULATE_DIGESTS = {
    ("stopadd:eps=1", "iid:seed=3", "exact", "csv"): "5e072dcd710441cb9a2b191e0b62861a35887c9e4e79874518361544746e365d",
    ("stopadd:eps=1", "iid:seed=3", "exact", "jsonl"): "bc09d92cb71755fccd1650c914add146cb73b0d6eac3982bcb4783047c1f5b1f",
    ("stopadd:eps=1", "iid:seed=3", "float64", "csv"): "0c781892995259ef679f549b18413adf04558f1d676208ca23c34e5503726283",
    ("stopadd:eps=1", "iid:seed=3", "float64", "jsonl"): "81d64b07862442da77c13786c7a41ce5c96adfdfb62d9419b343688faf64d909",
    ("stopadd:eps=1", "alt", "exact", "csv"): "f53056d36e071efead06fee7e49c3546244e9b7282588b0680a2b596aae40f78",
    ("stopadd:eps=1", "alt", "exact", "jsonl"): "0fb41cae2ad31bd84e600f32b698cd21741de78d49589b5c5b059bbb41cf406d",
    ("stopadd:eps=1", "alt", "float64", "csv"): "3a533b27ec857e5f6f86a9c8be1437354337412dfcc54b44c02c2bc1f8ac4e7b",
    ("stopadd:eps=1", "alt", "float64", "jsonl"): "aa99355a6e512423566178df10f922f355c3e6099d6c1b433842ad07a5aab9d3",
    ("stopadd:eps=1", "minimax:depth=8", "exact", "csv"): "19180e97f50cf5e7165bae9a8db791e7f026739de63f55d2cb6d7a04cf5b1a0e",
    ("stopadd:eps=1", "minimax:depth=8", "exact", "jsonl"): "b39c0c00aa14ee0c5c78e37e4252ef6ffe69bb6ae4c83c0d56bbe6851961d27a",
    ("stopadd:eps=1", "minimax:depth=8", "float64", "csv"): "1c70c36dac03b7edeb67a644cbe2f43606b898a4be4b608dfce768a7c3cb97ad",
    ("stopadd:eps=1", "minimax:depth=8", "float64", "jsonl"): "d90f65515f503af6b6175ca3c5bdef9e54d560012e13a2cbcf0b5930fa92bc2c",
    ("mulc:c=1/2", "iid:seed=3", "exact", "csv"): "a5fe78a31e66de72de808fa303d17ba1e7e102cb9417af802799979ff24ad5cc",
    ("mulc:c=1/2", "iid:seed=3", "exact", "jsonl"): "f7596bafca5bfa8784a3f979baaa1620c7ea725f53d676aef77d2d5ba6641433",
    ("mulc:c=1/2", "iid:seed=3", "float64", "csv"): "644bffb64ad8ea62e4b4931263e27ce66a40c210f9c04ad83db6853c7d63a3b5",
    ("mulc:c=1/2", "iid:seed=3", "float64", "jsonl"): "72c461b62afc8c75db06e81d12b24c9325f13f9c02895bfd1d9c9837e69fd957",
    ("mulc:c=1/2", "alt", "exact", "csv"): "1453c87784780c9955ec44e1f7c43589f9dacd898fae115212ed6b22d4e53f0a",
    ("mulc:c=1/2", "alt", "exact", "jsonl"): "5c260b11ee572ff23f8391b2bf0f4b09cc45636257e774f9ec78cd0342665fe9",
    ("mulc:c=1/2", "alt", "float64", "csv"): "a59b90f27ca086e373c18ecdca1fd560d2892315ad254c046923eb8e12b9f9ce",
    ("mulc:c=1/2", "alt", "float64", "jsonl"): "183cb6733a9db39b181f2c8a3a81df390d8f71be4538067482d29f6e30eb020b",
    ("mulc:c=1/2", "minimax:depth=8", "exact", "csv"): "e23799ce94bd94526217a8f558daaa19e54e9b02597208e161d25c8997f2bfe0",
    ("mulc:c=1/2", "minimax:depth=8", "exact", "jsonl"): "1856b716f859f57a0a77d27d8cb0a47094fb16a239836fba9510f3aec7e54149",
    ("mulc:c=1/2", "minimax:depth=8", "float64", "csv"): "8fcb36c74fdc96350e44bdf6c1584b3543f85045d2ace56b4f422fcc76afb370",
    ("mulc:c=1/2", "minimax:depth=8", "float64", "jsonl"): "8836c8761c0f7a436cbc58bc2f7dcebfd4f2ea2a7c4111bcb3fce96594830c96",
    ("q:depth=5", "iid:seed=3", "exact", "csv"): "942dd1cb20017c15ff5e9dfdbeb5c27f1127d6c16efa81a0a18109bdbfd157b1",
    ("q:depth=5", "iid:seed=3", "exact", "jsonl"): "513308e721f2d0dcacf6657259002824699639d0c8276a313db3433eee1c897a",
    ("q:depth=5", "iid:seed=3", "float64", "csv"): "75513ef31d35e2951dc1fbf47adbdd98f3226117f74663caeabf8adf9071abab",
    ("q:depth=5", "iid:seed=3", "float64", "jsonl"): "6593d4898ca9c30a092569b836469ede8126d0267098645366757a9b3035f8a9",
    ("q:depth=5", "alt", "exact", "csv"): "55ce5acacdb81a3481ca22f7b9e1c196e019da533459e3914cb5ce06e362e4b7",
    ("q:depth=5", "alt", "exact", "jsonl"): "9f47a09caa8572bde0ad43ec45328630f38cb25d9c7714f52bdc0b1a1dc0fae3",
    ("q:depth=5", "alt", "float64", "csv"): "1275e41057f4c33d0855ea179b14e6e30edda39f7b8d3bfa7a18f60dc00dcedb",
    ("q:depth=5", "alt", "float64", "jsonl"): "f3c7a0ab2a33a466b3b16fa48e5ac9a80cbcd678fe302216c935ab8435459663",
    ("q:depth=5", "minimax:depth=8", "exact", "csv"): "639c64f430685c0c59d4bfb970f157f591722d40a96185567f11f60e5163f09b",
    ("q:depth=5", "minimax:depth=8", "exact", "jsonl"): "759530d99a91864cb1664762ad8712dce31028cef01888eae933d2471b5dac94",
    ("q:depth=5", "minimax:depth=8", "float64", "csv"): "be9bf9724ce302bf437807b54bfb4d91659c7be18d2eb8cba137439d55f16f8c",
    ("q:depth=5", "minimax:depth=8", "float64", "jsonl"): "e470025ffeeca9ed5c1db4426aaf9c6edd75dd9900d8f2f3225aae460c0ccdf9",
    ("oneside:N=3,dir=up", "iid:seed=3", "exact", "csv"): "0da555cb4698edb850f3b898267334b8fbebe65750456862b9f498d1fc9c0e16",
    ("oneside:N=3,dir=up", "iid:seed=3", "exact", "jsonl"): "cf353276940c37f12c46adf0f4b2507d0117cbb6820699d5ca8afb2dc6636ea2",
    ("oneside:N=3,dir=up", "iid:seed=3", "float64", "csv"): "a279820319c0f0e1e23f62a8fda72a487fc31937178a28bfd1f5485849c3e81f",
    ("oneside:N=3,dir=up", "iid:seed=3", "float64", "jsonl"): "4bc0e4af4c87c0d78fc953a278466febda8c05887bbd253f42864f1dc65fc0d7",
    ("oneside:N=3,dir=up", "alt", "exact", "csv"): "3462d61c15956bbb17e6850940531b39fae6e428d51f7244e35a56d08d83d8e4",
    ("oneside:N=3,dir=up", "alt", "exact", "jsonl"): "8ea0a9131394afec7837c993b2ff8fedbf3fc44436bf0b5a51578e83478d80ff",
    ("oneside:N=3,dir=up", "alt", "float64", "csv"): "aa9ebeeeb7f3925f92be36255a2c4424a0e7bd2393e6af002e308e56aa9d68a6",
    ("oneside:N=3,dir=up", "alt", "float64", "jsonl"): "4b8947878fadc96e84107247b52cc7dba109fbcbc7ac6c6ff55249d9667158bd",
    ("oneside:N=3,dir=up", "minimax:depth=8", "exact", "csv"): "e788d864dd1e28b48ba381aeb0d93240c7cb7646e0aa3d990b4253cf4541cdbf",
    ("oneside:N=3,dir=up", "minimax:depth=8", "exact", "jsonl"): "bbf9dcbf3d565caa144e5e49a0d992bb35ddf4a1c14159a05080ae4d3f280ef7",
    ("oneside:N=3,dir=up", "minimax:depth=8", "float64", "csv"): "f62451bae26e66672bc3502f7b05e59a4fe25e032b7f2cdee08019d192c7594f",
    ("oneside:N=3,dir=up", "minimax:depth=8", "float64", "jsonl"): "e29bca1c8118eebb8650e62297a61c4d6eea63fcc714de89ffb8f2b62d6cf5d8",
}


def _bracket_json(l, horizon, lower, upper):
    """The line json.dumps prints for a bracket, from Fractions and fmt_number."""
    return json.dumps({"l": l, "horizon": horizon, "lower": fmt_number(lower),
                       "upper": fmt_number(upper), "live_mass": fmt_number(upper - lower)})


def price_lines_are_json_dumps_of_the_table_roots(offsets=range(10)):
    # l = 9 has lower 0 at horizons 1 and 2, l = 0 lower 1/2 throughout
    for l in offsets:
        expect = []
        for h in range(1, 65):
            line = _bracket_json(l, h, eta_table(l, h, "zero").root_value,
                                 eta_table(l, h, "one").root_value) + "\n"
            expect.append(line)
            if cli_output("price", "--l", str(l), "--horizon", str(h)) != (0, line):
                return False
        if cli_output("price", "--l", str(l), "--horizon", "64", "--series") != (0, "".join(expect)):
            return False
    return True


def test_price_lines_are_json_dumps_of_the_table_roots():
    assert price_lines_are_json_dumps_of_the_table_roots()


def test_bracket_line_past_the_int_digit_limit():
    # 2**15001 has 4,516 decimal digits, past str(int)'s default limit of
    # 4,300: json.dumps of fmt_number takes fmt_int's Decimal route, and
    # json_line() takes none, as it converts through Decimal from the
    # start.  A lone line starts its powers of two afresh, and the shared
    # run here goes up and down as a series' does
    horizon = 15000
    den = Fraction(1, 2 << horizon)
    powers = pricing._Powers2()
    for lower_num in [3 << 20,  # a small odd numerator over huge powers of two
                      (1 << 14999) + 12345,  # the odd numerator itself past the limit
                      7 << 4,  # back down to a smaller power
                      1 << horizon, 0]:  # lower 1/2 and 0
        b = PriceBracket(7, horizon, lower_num)
        line = _bracket_json(7, horizon, lower_num * den, 1 - lower_num * den) + "\n"
        assert b.json_line() == line
        assert b.json_line(b._json_values(powers)) == line


def _census_json(l, k):
    """The line json.dumps prints for a census, from its counts a_i alone."""
    a = list(enumerate_absorption(l, k).a)
    total = sum(Fraction(ai, 1 << i) for i, ai in enumerate(a, start=1))
    return json.dumps({"l": l, "k": k, "a": a, "b_k": int(total * (1 << k)),
                       "sum_ai_2^-i": fmt_number(total)}) + "\n"


def census_lines_are_json_dumps_of_the_counts():
    return all(cli_output("census", "--l", str(l), "--k", str(k)) == (0, _census_json(l, k))
               for l in (0, 1, 4, 9) for k in (1, 2, 13, 200))


def test_census_lines_are_json_dumps_of_the_counts():
    assert census_lines_are_json_dumps_of_the_counts()


# str(int)'s digit limit at its floor: every route from an integer to its
# text must take the Decimal fallback past 640 digits
DIGIT_FLOOR = 640


def census_prints_past_the_digit_floor():
    # b_k at k = 2200 has 662 digits; json.dumps itself cannot print it
    # under the floor, so the reference is made with the limit lifted
    with int_digit_limit(0):
        line = _census_json(4, 2200)
    try:
        with int_digit_limit(DIGIT_FLOOR):
            return cli_output("census", "--l", "4", "--k", "2200") == (0, line)
    except ValueError:  # a route without the fallback
        return False


def test_census_prints_past_the_digit_floor():
    assert census_prints_past_the_digit_floor()


def test_price_pins_hold_at_the_digit_floor():
    # the series' numerators reach about 1,230 digits at (4, 4096)
    digest, calls = DYADIC_OUTPUT_PIN
    calls = [*calls, ["price", "--l", "4", "--horizon", "4096", "--series"]]
    with int_digit_limit(DIGIT_FLOOR):
        outs = [cli_output(*argv) for argv in calls]
    assert [code for code, _ in outs] == [0] * len(calls)
    h = hashlib.sha256()
    for _, out in outs[:-1]:
        h.update(out.encode())
    assert h.hexdigest() == digest
    assert hashlib.sha256(outs[-1][1].encode()).hexdigest() == SERIES_DIGESTS[4, 4096]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_simulate_prints_past_the_digit_floor(fmt):
    argv = ["simulate", "--strategy", "mulc:c=1/2", "--reality", "iid:seed=1",
            "--horizon", "2000", "--format", fmt]
    code, out = cli_output(*argv)
    with int_digit_limit(DIGIT_FLOOR):
        assert cli_output(*argv) == (code, out)
    assert code == 0 and max(map(len, out.split(","))) > DIGIT_FLOOR


@pytest.mark.parametrize("spec, reality, mode, fmt", sorted(SIMULATE_DIGESTS))
def test_simulate_output_pinned(capsys, spec, reality, mode, fmt):
    code, out = run_cli(capsys, "simulate", "--strategy", spec, "--reality", reality,
                        "--horizon", str(SIMULATE_HORIZONS[reality]), "--mode", mode,
                        "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[spec, reality, mode, fmt]


@pytest.mark.parametrize("mode, stakes", [
    ("float64", ["1.0", "0.0", "0.0", "0.0", "0.0", "0.0"]),
    ("exact", ["1/1", "0/1", "0/1", "0/1", "0/1", "0/1"]),
])
def test_pathbet_bets_unsigned_zeros_after_a_miss(capsys, mode, stakes):
    # the miss at round 1 wipes the account; a float zero stake on a -1
    # target move once came out as -0.0, a short bet of nothing
    code, out = run_cli(capsys, "simulate", "--strategy", "pathbet:target=+-+-,budget=1",
                        "--reality", "fixed:-+-+-+", "--horizon", "6", "--mode", mode)
    assert code == 0
    rows, _ = trace_and_report(out)
    assert [row.split(",")[2] for row in rows[1:]] == stakes


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


# the six checks at their defaults, pinned byte for byte; the oracle-only
# walks expand all 1023 inner nodes, the engine walks merge equal states
VERIFY_PINS = {
    check: json.dumps({"identity": identity, "paths_checked": 1024,
                       "nodes_expanded": expanded, "memo_hits": hits,
                       "max_discrepancy": "0/1", "counterexample": None, "passed": True})
    for check, identity, expanded, hits in [
        ("additive-closed-form", "additive-closed-form", 55, 36),
        ("log-lower-bound", "log-lower-bound", 1023, 0),
        ("one-sided-capital", "one-sided-capital-down-2", 71, 44),
        ("product-capital", "product-capital", 523, 24),
        ("stopped-additive-collateral", "stopped-additive-collateral", 103, 60),
        ("summation-identity", "summation-identity", 1023, 0),
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


def test_main_reuses_one_parser(capsys):
    # each call parses into a fresh namespace: an option given to one call
    # (--c, --series) is not left set for the next
    argvs = [["verify", "--check", "product-capital", "--depth", "3", "--c", "1/3"],
             ["verify", "--check", "product-capital", "--depth", "3"],
             ["price", "--l", "2", "--horizon", "8", "--series"],
             ["price", "--l", "2", "--horizon", "8"],
             ["census", "--l", "1", "--k", "4"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert [(main(argv), capsys.readouterr()) for argv in argvs] == fresh
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):  # a usage error leaves the parser fit for the next call
        with pytest.raises(SystemExit) as exc:
            main(["price", "--l", "x", "--horizon", "8"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
    assert (main(argvs[0]), capsys.readouterr()) == fresh[0]


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
    # a walk over the state budget
    ["verify", "--check", "summation-identity", "--depth", "23"],
    _simulate() + ["--output", "/nonexistent/dir/x.csv"],
    # a key the spec's kind does not take, or a repeated key, is refused, not dropped
    _simulate(strategy="oneside:N=1,direction=up"),
    _simulate(strategy="q:dpeth=3"),
    _simulate(strategy="zero:foo=1"),
    _simulate(reality="alt:seed=3"),
    _simulate(strategy="mulc:c=1/2,c=1/3"),
    # a bad parameter, a malformed spec, a nonpositive budget, horizon 0
    _simulate(strategy="q:depth=0"),
    _simulate(strategy="signforce:cap=3"),
    _simulate(strategy="mulc:c"),
    _simulate(strategy="mix:1/2@zero"),
    _simulate(strategy="mix:[3/2@zero;-1/2]"),
    _simulate(strategy="pathbet:target=+,budget=0"),
    ["price", "--l", "0", "--horizon", "0", "--series"],
    # a second mixture tail, and a negative minimax depth, are refused
    _simulate(strategy="mix:[1/2@zero;1/2;1/2]"),
    ["simulate", "--strategy", "zero", "--reality", "minimax:depth=-1", "--horizon", "0"],
])
def test_domain_error_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "additive-closed-form", "--depth", "4"],
    ["price", "--l", "2", "--horizon", "8", "--series"],
    _simulate(),
])
def test_a_closed_stdout_exits_1(monkeypatch, argv):
    # the reader of a pipe went away (`faircoin ... | head`): exit 1, no traceback
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(argv) == 1


def test_minimax_over_the_state_budget_exits_2(capsys, monkeypatch):
    # mulc's state_key holds its path-dependent gain, so its minimax tree
    # hardly merges: depth 40 is stopped by the count, not by its depth
    monkeypatch.setattr(game, "STATE_BUDGET", 1 << 10)
    argv = ["simulate", "--strategy", "mulc:c=1/2", "--reality", "minimax:depth=40",
            "--horizon", "40"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "faircoin: minimax depth 40 is over the state budget 1024"]


def test_minimax_runs_past_the_interpreter_recursion_limit(capsys):
    # only the state budget bounds a walk.  A path bettor on 1,500 moves of
    # +1 is stopped by any -1, a settled leaf, so its walk is a chain of
    # 1,500 live states; zero is stopped from the start and walks none
    for spec in ("pathbet:target=" + "+" * 1500 + ",budget=1", "zero"):
        code, out = run_cli(capsys, "simulate", "--strategy", spec,
                            "--reality", "minimax:depth=1500", "--horizon", "1500")
        assert code == 0
        rows, _ = trace_and_report(out)
        trace = GameTrace.read_csv(io.StringIO("\n".join(rows)))
        assert trace.moves == (-1,) * 1500


def test_identical_configs_identical_output(capsys):
    _, a = run_cli(capsys, "simulate", "--strategy", "q:depth=4",
                   "--reality", "iid:seed=9", "--horizon", "30")
    _, b = run_cli(capsys, "simulate", "--strategy", "q:depth=4",
                   "--reality", "iid:seed=9", "--horizon", "30")
    assert a == b
