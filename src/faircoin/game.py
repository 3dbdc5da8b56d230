"""Fair-coin betting protocol: move strings, traces, and game execution.

Each round Skeptic announces a stake, Reality answers with a move in
{-1, +1}, and Skeptic's cumulative gain moves by stake * move.  Gains are
tracked from zero; the initial capital rides alongside the trace so that
collateral (non-bankruptcy) checks stay explicit.

Two numeric modes are supported: exact rational arithmetic (the default,
used for all identity and pricing verification) and float64 for long
simulations where exact denominators would blow up.  One ``exact: bool``
flag chooses between them everywhere, and ``zero`` and ``number`` below
are the one place that maps it to Fraction or float.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import IO, NamedTuple


class GameError(Exception):
    """Protocol-level failure (bad move, float overflow, ...)."""


ZERO = Fraction(0)  # the stake of an idle round; Fractions are immutable, so one is shared

STATE_BUDGET = 1 << 22  # the most states one walk_tree call (verify's, worst_case's) may expand


def walk_tree(root, depth: int, expand, key, error: type[Exception], what: str):
    """Fold the game tree below ``root`` (round 0) down to round ``depth``.

    ``expand(node, n)`` is a generator: it yields each child of the node at
    round n that it folds, is sent back that child's value, and returns the
    node's value.  Nodes of equal round and ``key(node)`` expand once; a None
    key, or ``key=None``, never merges.  The walk is depth first and keeps
    its path on a list, so only STATE_BUDGET bounds its depth: a depth below
    1 or over the budget, or a keyless root whose 2**depth - 1 inner nodes
    are over it, is refused before the root is expanded, and the walk stops
    at its first expansion past the budget, each time raising ``error``,
    naming ``what``.  Returns the root's value, the number of nodes expanded
    and the number of memo hits.

    Each visit hashes its memo key once: ``setdefault`` enters a one-item
    list, the node's cell, that holds ``pending`` until the node's fold
    returns and its value after, so a value may be None.  ``pending`` is a
    fresh object, not the memo, so a walk that raises leaves no reference
    cycle to keep its memo alive.
    """
    if depth < 1:
        raise error(f"{what} depth must be >= 1")
    if depth > STATE_BUDGET:
        raise error(f"{what} depth {depth} is over the state budget {STATE_BUDGET}")
    memo: dict = {}
    pending = object()
    expanded = hits = 0
    path = []  # a (fold, memo cell) frame for each node above the one visited
    node = root
    while True:
        n = len(path)
        k = None if key is None else key(node)
        if k is None:
            cell, value = None, pending  # a miss, with no cell to fill
            if n == 0 and depth >= (STATE_BUDGET + 1).bit_length():
                raise error(f"{what} depth {depth} walks all 2**{depth} - 1 states, over budget")
        else:
            cell = memo.setdefault((n, k), [pending])
            value = cell[0]
        if value is not pending:
            hits += 1
            fold, cell = path.pop()  # a hit is never the root: the memo starts empty
        else:
            expanded += 1
            if expanded > STATE_BUDGET:
                raise error(f"{what} depth {depth} is over the state budget {STATE_BUDGET}")
            fold, value = expand(node, n), None
        while True:  # send each value up until some fold yields its next child
            try:
                node = fold.send(value)
                break
            except StopIteration as done:
                value = done.value
            if cell is not None:
                cell[0] = value
            if not path:
                return value, expanded, hits
            fold, cell = path.pop()
        path.append((fold, cell))


def zero(exact: bool):
    """The zero of a numeric mode: a Fraction when exact, a float in float64 mode."""
    return ZERO if exact else 0.0


def number(v, exact: bool):
    """v in the number type of a numeric mode: Fraction when exact, float otherwise."""
    if exact:
        return Fraction(v)
    return float(v)


def validate_move(x, error=GameError) -> int:
    """x as the int -1 or +1.  Integers of other types (numpy's) are
    converted; bool and float are refused, though True and 1.0 equal 1."""
    if type(x) is not int and not isinstance(x, bool) and isinstance(x, numbers.Integral):
        x = int(x)
    if type(x) is not int or x not in (-1, 1):
        raise error(f"move must be -1 or +1, got {x!r}")
    return x


def settle(k, stake, x: int):
    """The account k after a round: k + stake * x.

    The sign of x picks k + stake or k - stake, which skips a product:
    a Fraction fewer, and in float64 the same bits, as multiplying by
    +-1.0 is exact.  An exact zero stake on an exact account returns k
    itself and does no rational arithmetic, so idle rounds stay cheap.
    Every other pairing keeps the number type of the sum: a float zero
    stake still turns a Fraction account into a float.
    """
    if stake or type(stake) is not Fraction or type(k) is not Fraction:
        return k + stake if x == 1 else k - stake
    return k


# a Fraction from coprime parts, with no gcd: Fraction(n, d, _normalize=False)
# before Python 3.12, Fraction._from_coprime_ints from 3.12 on
_coprime = getattr(Fraction, "_from_coprime_ints", None) or partial(Fraction, _normalize=False)


def _mul_lowest(a: int, b: int, t: int, d: int) -> Fraction:
    """a/b * t/d in lowest terms, for a/b and t/d in lowest terms with b, d > 0:
    Fraction's own product, its two cross gcds, with no operator dispatch."""
    g, h = math.gcd(a, d), math.gcd(t, b)
    if g > 1:  # a division by 1 would still copy a big part
        a, d = a // g, d // g
    if h > 1:
        t, b = t // h, b // h
    return _coprime(a * t, b * d)


def settle_product(w: Fraction, r: Fraction, x: int) -> Fraction:
    """The exact wealth w after a round that staked r * w: w * (1 + r * x).

    For r = n/d that is w * (d + n * x) / d, a factor in lowest terms by
    construction, as gcd(d + n * x, d) = gcd(n, d) = 1.  So a round takes
    two cross gcds, each of a part of w with a small number, where
    w + r * w * x would pair two numbers of w's size.  A zero r returns w itself.
    """
    if not r:
        return w
    n, d = r.numerator, r.denominator
    return _mul_lowest(w.numerator, w.denominator, d + n if x == 1 else d - n, d)


def moves_of(prefix) -> tuple[int, ...]:
    """Normalize an iterable of +-1 ints to a move tuple."""
    return tuple(validate_move(x) for x in prefix)


def parse_moves(text: str) -> tuple[int, ...]:
    """Parse "+1-1+1" (or the shorthand "+-+") into a move tuple."""
    moves = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "+-":
            raise GameError(f"bad move string {text!r} at position {i}")
        moves.append(1 if ch == "+" else -1)
        i += 2 if text[i + 1 : i + 2] == "1" else 1
    return tuple(moves)


class Round(NamedTuple):
    n: int
    x: int
    stake: Fraction | float
    capital: Fraction | float  # cumulative gain K_n (zero initial capital)
    s: int


@dataclass
class GameTrace:
    """Round-by-round record of one play-out.

    ``capital`` in each round is the zero-initial-capital gain K_n; total
    wealth after round n is ``initial_capital + K_n``.  The CSV and JSONL
    forms do not record the initial capital; a trace read back starts at 1.
    """

    initial_capital: Fraction | float = Fraction(1)
    exact: bool = True
    rounds: list[Round] = field(default_factory=list)

    @property
    def final_capital(self):
        return self._last().capital

    @property
    def moves(self) -> tuple[int, ...]:
        return tuple(r.x for r in self.rounds)

    def play(self, stake, move: int) -> "GameTrace":
        move = validate_move(move)
        prev = self._last()
        if not self.exact:
            stake = float(stake)
        capital = settle(prev.capital, stake, move)
        if not self.exact and not math.isfinite(capital):
            raise GameError(f"capital overflowed float64 range at round {prev.n + 1}")
        self.rounds.append(Round(prev.n + 1, move, stake, capital, prev.s + move))
        return self

    def _last(self) -> Round:
        """The last round; round 0 (no move, zero gain) while the trace is empty."""
        return self.rounds[-1] if self.rounds else Round(0, 0, 0, zero(self.exact), 0)

    def wealth(self, i: int):
        """Total wealth after round i (i=0 gives the initial capital)."""
        if not 0 <= i <= len(self.rounds):
            raise GameError(f"round {i} is outside 0..{len(self.rounds)}")
        if i == 0:
            return self.initial_capital
        return self.initial_capital + self.rounds[i - 1].capital

    def min_wealth(self):
        w = self.initial_capital
        for r in self.rounds:
            w = min(w, self.initial_capital + r.capital)
        return w

    # -- serialization -----------------------------------------------------

    CSV_COLUMNS = ("n", "x", "M", "K", "s")

    def write_csv(self, f: IO[str]) -> None:
        """The rows csv.writer would write, CRLF ended; no field needs quoting.
        A stake or capital that is the previous row's object, as an idle
        round's are, reuses that row's text."""
        f.write(",".join(self.CSV_COLUMNS) + "\r\n")
        stake = capital = None
        for r in self.rounds:
            if r.stake is not stake:
                stake, m = r.stake, fmt_number(r.stake)
            if r.capital is not capital:
                capital, k = r.capital, fmt_number(r.capital)
            f.write(f"{r.n},{r.x},{m},{k},{r.s}\r\n")

    @classmethod
    def read_csv(cls, f: IO[str], exact: bool = True) -> "GameTrace":
        reader = csv.reader(f)
        header = next(reader, [])  # empty input reads as a blank header
        if tuple(header) != cls.CSV_COLUMNS:
            raise GameError(f"unexpected CSV header {header!r}")
        trace = cls(initial_capital=number(1, exact), exact=exact)
        for row in reader:
            trace._append_read(f"CSV line {reader.line_num}", row)
        return trace

    def write_jsonl(self, f: IO[str]) -> None:
        """The lines json.dumps would write: the number texts need no
        escaping.  Repeated objects reuse their text, as in write_csv."""
        stake = capital = None
        for r in self.rounds:
            if r.stake is not stake:
                stake, m = r.stake, fmt_number(r.stake)
            if r.capital is not capital:
                capital, k = r.capital, fmt_number(r.capital)
            f.write(f'{{"n": {r.n}, "x": {r.x}, "M": "{m}", "K": "{k}", "s": {r.s}}}\n')

    @classmethod
    def read_jsonl(cls, f: IO[str], exact: bool = True) -> "GameTrace":
        trace = cls(initial_capital=number(1, exact), exact=exact)
        for i, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                row = [str(d[c]) for c in cls.CSV_COLUMNS]  # as text, like a CSV row
            except (ValueError, KeyError, TypeError) as exc:
                raise GameError(f"JSONL line {i}: {exc!r}") from None
            trace._append_read(f"JSONL line {i}", row)
        return trace

    def _append_read(self, where: str, row) -> None:
        """Append a read row (n, x, M, K, s) if it continues the trace: n
        counts up by one, x is +-1, s moves by x and K by M * x, compared
        exactly in either mode (a written float round-trips through repr)."""
        try:
            n, x, m, k, s = row
            n, x, s = int(n), int(x), int(s)
            m, k = parse_number(m, self.exact), parse_number(k, self.exact)
        except (ValueError, ArithmeticError) as exc:
            raise GameError(f"{where}: cannot read row {row!r}: {exc}") from None
        prev = self._last()
        if n != prev.n + 1 or x not in (-1, 1) or s != prev.s + x or k != prev.capital + m * x:
            raise GameError(f"{where}: row {row!r} does not follow round n={prev.n}, "
                            f"s={prev.s}, K={fmt_number(prev.capital)}")
        self.rounds.append(Round(n=n, x=x, stake=m, capital=k, s=s))


def fmt_int(i: int) -> str:
    """The decimal digits of the integer i.  str(int) refuses more digits
    than sys.get_int_max_str_digits(); such numbers go through Decimal,
    which converts exactly and without that limit."""
    try:
        return str(i)
    except ValueError:
        return str(Decimal(i))


def fmt_number(v) -> str:
    """Rationals serialize as "num/den", each part through fmt_int; floats
    use repr round-tripping."""
    if type(v) is float:
        return repr(v)
    if isinstance(v, (Fraction, int)):
        return f"{fmt_int(v.numerator)}/{fmt_int(v.denominator)}"
    return repr(float(v))


_INTEGER_RATIO = re.compile(r"[-+]?\d+(/\d+)?")


def parse_number(text: str, exact: bool = True):
    if not exact:
        return float(Fraction(text)) if "/" in text else float(text)
    try:
        return Fraction(text)
    except ValueError:
        # past the int digit limit, "num/den" is read through Decimal
        if not _INTEGER_RATIO.fullmatch(text):
            raise
        num, _, den = text.partition("/")
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def spec_value(name: str, text: str, convert, error: type[Exception]):
    """convert(text); a bad literal raises ``error`` naming ``name``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise error(f"bad value {text!r} for {name}") from None


def spec_args(rest: str, error: type[Exception], *keys: str):
    """Read the ``key=value,...`` part of a strategy or reality spec.

    ``keys`` are the keys the spec's kind accepts.  Returns
    ``arg(key, convert=str, default=None)``, where no default makes the
    key required.  A part without a value, a key outside ``keys``, a
    repeated key, a missing required key and a bad literal all raise
    ``error``.
    """
    args = {}
    for part in rest.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if not val.strip():
            raise error(f"malformed spec argument {part!r}")
        if key in args or key not in keys:
            raise error(f"{'repeated' if key in args else 'unknown'} spec argument {key!r}; "
                        f"this kind takes: {', '.join(keys) or 'none'}")
        args[key] = val.strip()

    def arg(key: str, convert=str, default=None):
        if key in args:
            return spec_value(key, args[key], convert, error)
        if default is None:
            raise error(f"missing spec argument {key!r}")
        return default

    return arg


def run_game(strategy, reality, horizon: int, initial_capital=Fraction(1),
             exact: bool = True) -> GameTrace:
    """Play ``horizon`` rounds of the protocol.

    The strategy sees x_1..x_{n-1} through its own observe() calls before
    announcing M_n; Reality sees M_n before announcing x_n.  ``exact``
    sets the trace's number type, apart from the strategy's own mode.
    """
    if horizon < 0:
        raise GameError("horizon must be >= 0")
    trace = GameTrace(initial_capital=number(initial_capital, exact), exact=exact)
    for _ in range(horizon):
        stake = strategy.next_stake()
        move = reality.next_move(stake)
        trace.play(stake, move)
        strategy.observe(move)
    return trace
