"""Fair-coin betting protocol: situations, traces, and game execution.

Each round Skeptic announces a stake, Reality answers with a move in
{-1, +1}, and Skeptic's cumulative gain moves by stake * move.  Gains are
tracked from zero; the initial capital rides alongside the trace so that
collateral (non-bankruptcy) checks stay explicit.

Two numeric modes are supported: exact rational arithmetic (the default,
used for all identity and pricing verification) and float64 for long
simulations where exact denominators would blow up.  One ``exact: bool``
flag chooses between them everywhere, and ``zero``, ``number`` and
``ratio`` below are the one place that maps it to Fraction or float.
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
from functools import cached_property, lru_cache
from typing import IO, Iterable, Iterator, NamedTuple, Sequence


class GameError(Exception):
    """Protocol-level failure (bad move, float overflow, ...)."""


ZERO = Fraction(0)  # the stake of an idle round; Fractions are immutable, so one is shared

STATE_BUDGET = 1 << 22  # the most states one walk_tree call (verify's, worst_case's) may expand


def walk_tree(root, depth: int, expand, key, error: type[Exception], what: str):
    """Fold the game tree below ``root`` (round 0) down to round ``depth``.

    ``expand(node, n)`` is a generator: it yields each child of the node at
    round n that it folds, is sent back that child's value, and returns the
    node's value.  Nodes of equal round and ``key(node)`` expand once; a None
    key, or ``key=None``, never merges, and a root with no key is refused up
    front when its 2**depth - 1 inner nodes are over STATE_BUDGET.  The walk
    recurses one frame per round; the budget and the recursion limit raise
    ``error``, naming ``what``.
    """
    memo: dict = {}
    expanded = 0

    def visit(node, n):
        nonlocal expanded
        k = None if key is None else key(node)
        if k is not None:
            k = (n, k)
            hit = memo.get(k, memo)  # memo itself marks a miss: a value may be None
            if hit is not memo:
                return hit
        elif n == 0 and depth >= (STATE_BUDGET + 1).bit_length():
            raise error(f"{what} depth {depth} walks all 2**{depth} - 1 states, over budget")
        expanded += 1
        if expanded > STATE_BUDGET:
            raise error(f"{what} depth {depth} is over the state budget {STATE_BUDGET}")
        fold = expand(node, n)
        try:
            child = next(fold)
            while True:
                child = fold.send(visit(child, n + 1))
        except StopIteration as done:
            value = done.value
        if k is not None:
            memo[k] = value
        return value

    try:
        return visit(root, 0)
    except RecursionError:
        raise error(f"{what} depth {depth} is too deep to recurse") from None


def zero(exact: bool):
    """The zero of a numeric mode: a Fraction when exact, a float in float64 mode."""
    return ZERO if exact else 0.0


def number(v, exact: bool):
    """v in the number type of a numeric mode: Fraction when exact, float otherwise."""
    if exact:
        return Fraction(v)
    return float(v)


def ratio(p: int, q: int, exact: bool):
    """p / q in the number type of a numeric mode, without a division of Fractions."""
    return Fraction(p, q) if exact else p / q


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

    An exact zero stake on an exact account returns k itself and does no
    rational arithmetic, so idle rounds stay cheap.  Every other pairing
    takes the sum, which keeps its number type: a float zero stake still
    turns a Fraction account into a float.
    """
    if stake or type(stake) is not Fraction or type(k) is not Fraction:
        return k + stake * x
    return k


def moves_of(prefix) -> tuple[int, ...]:
    """Normalize a Situation or iterable of +-1 ints to a move tuple."""
    if isinstance(prefix, Situation):
        return prefix.moves
    return tuple(validate_move(x) for x in prefix)


@dataclass(frozen=True)
class Situation:
    """A finite sequence of moves: one node of the binary game tree."""

    moves: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(validate_move(x) for x in self.moves))

    @classmethod
    def from_string(cls, text: str) -> "Situation":
        """Parse "+1-1+1" (or the shorthand "+-+") into a Situation."""
        moves = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch not in "+-":
                raise GameError(f"bad move string {text!r} at position {i}")
            moves.append(1 if ch == "+" else -1)
            i += 2 if text[i + 1 : i + 2] == "1" else 1
        return cls(tuple(moves))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[int]:
        return iter(self.moves)

    def __neg__(self) -> "Situation":
        return Situation(tuple(-x for x in self.moves))

    @property
    def n(self) -> int:
        return len(self.moves)

    @cached_property
    def s(self) -> int:
        return sum(self.moves)

    @property
    def xbar(self) -> Fraction:
        return Fraction(self.s, self.n) if self.moves else Fraction(0)


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
        """The rows csv.writer would write, CRLF ended; no field needs quoting."""
        f.write(",".join(self.CSV_COLUMNS) + "\r\n")
        for r in self.rounds:
            f.write(f"{r.n},{r.x},{fmt_number(r.stake)},{fmt_number(r.capital)},{r.s}\r\n")

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
        """The lines json.dumps would write: the number texts need no escaping."""
        for r in self.rounds:
            f.write(f'{{"n": {r.n}, "x": {r.x}, "M": "{fmt_number(r.stake)}", '
                    f'"K": "{fmt_number(r.capital)}", "s": {r.s}}}\n')

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


def fmt_number(v) -> str:
    """Rationals serialize as "num/den"; floats use repr round-tripping."""
    if type(v) is float:
        return repr(v)
    if isinstance(v, (Fraction, int)):
        return _fmt_ratio(v.numerator, v.denominator)
    return repr(float(v))


def fmt_dyadic(num: int, bits: int) -> str:
    """fmt_number(Fraction(num, 2**bits)) without building the Fraction:
    the common factors of two are shifted out, so no gcd is taken."""
    z = min((num & -num).bit_length() - 1, bits) if num else bits
    return _fmt_ratio(num >> z, _pow2_text(bits - z))


def _fmt_ratio(num: int, den: int | str) -> str:
    """The text num/den; den may come as its decimal digits.  str(int)
    refuses more digits than sys.get_int_max_str_digits(); such numbers go
    through Decimal, which converts both exactly and without that limit."""
    try:
        return f"{num}/{den}"
    except ValueError:
        return f"{Decimal(num)}/{Decimal(den)}"


@lru_cache(maxsize=8)  # a price series repeats a few neighbouring denominators
def _pow2_text(k: int) -> str:
    """The decimal digits of 2**k, by way of Decimal, which has no digit limit."""
    return str(Decimal(1 << k))


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


def check_collateral(trace: GameTrace) -> bool:
    """True iff initial_capital + K_n >= 0 for every round of the trace."""
    return all(trace.initial_capital + r.capital >= 0 for r in trace.rounds)
