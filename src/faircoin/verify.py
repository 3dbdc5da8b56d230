"""Brute-force oracles for the closed-form capital identities.

Every identity the strategies rely on is re-derived here along an
arithmetic path independent of the strategy engine (direct products,
direct sums, direct formulas), and the exhaustive sweeps run the engine
and the oracle side by side over every move sequence up to a depth, in
one walk that steps each check once per move.  The summation identity
and the log bound are each one per-round update, folded over a prefix by
its oracle and stepped per move by its walk.
In exact mode any nonzero discrepancy is a bug; the only inexact check
is the logarithmic capital lower bound, which uses floats with a
conservative slack margin because its slack is bounded away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import fmt_number, moves_of, walk_tree
from .strategies import (
    AdditiveContrarian,
    MultiplicativeContrarian,
    OneSided,
    StoppedAdditive,
    Strategy,
)

LOG_BOUND_SLACK = 1e-9


class VerifyError(Exception):
    pass


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    # full-length paths whose checks ran: all 2**depth unless the walk
    # stopped at a counterexample
    paths_checked: int
    max_discrepancy: Fraction | float
    counterexample: tuple[int, ...] | None = None
    # the walk's work: nodes expanded, and nodes met again and not expanded
    nodes_expanded: int = 0
    memo_hits: int = 0

    @property
    def passed(self) -> bool:
        return self.counterexample is None and self.max_discrepancy == 0

    def to_json_dict(self) -> dict:
        disc = self.max_discrepancy
        return {
            "identity": self.identity,
            "paths_checked": self.paths_checked,
            "nodes_expanded": self.nodes_expanded,
            "memo_hits": self.memo_hits,
            "max_discrepancy": fmt_number(disc) if isinstance(disc, Fraction) else disc,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# single-prefix oracles
# ---------------------------------------------------------------------------

def product_capital(prefix, c) -> Fraction:
    """Direct product of (1 - c * xbar_{i-1} * x_i), i from 2 (xbar_0 = 0)."""
    c = Fraction(c)
    moves = moves_of(prefix)
    prod = Fraction(1)
    s = 0
    for i, x in enumerate(moves, start=1):
        if i >= 2:
            prod *= 1 - c * Fraction(s, i - 1) * x
        s += x
    return prod


def _summation_round(node, n, x):
    """The sums (s, LHS, sum (i/(i-1)) xbar_i^2, x_1^2 + sum x_i^2/(i-1))
    after move x of round n + 1, and that round's RHS."""
    s, lhs, a, b = node
    lhs += Fraction(s, n or 1) * x
    b += Fraction(x * x, n or 1)
    s += x
    n += 1
    sq = Fraction(s, n) ** 2  # xbar_n^2
    if n > 1:
        a += Fraction(n, n - 1) * sq
    return (s, lhs, a, b), a / 2 + Fraction(n, 2) * sq - b / 2


def summation_identity_sides(prefix) -> tuple[Fraction, Fraction]:
    """Both sides of the partial-summation identity, computed directly.

    LHS = sum_{i=2}^n xbar_{i-1} x_i;
    RHS = (1/2) sum_{i=2}^n (i/(i-1)) xbar_i^2 + (n/2) xbar_n^2
          - (1/2)(x_1^2 + sum_{i=2}^n x_i^2 / (i-1)).
    """
    moves = moves_of(prefix)
    if len(moves) < 2:
        raise VerifyError("the summation identity needs length >= 2")
    node = (0, Fraction(0), Fraction(0), Fraction(0))
    for n, x in enumerate(moves):
        node, rhs = _summation_round(node, n, x)
    return node[1], rhs


def _log_bound_c(c) -> float:
    cf = Fraction(c)
    if not 0 < cf <= Fraction(1, 2):
        raise VerifyError(f"the log bound is claimed only for 0 < c <= 1/2, got {c}")
    return float(cf)


def _log_bound_round(node, n, x, c: float):
    """The float sums (s, log K, sum (i/(i-1)) xbar_i^2, sum xbar_{i-1}^2)
    after move x of round n + 1, and that round's margin log K - bound."""
    s, log_k, a, b = node
    xbar_prev = s / (n or 1)
    log_k += math.log(1.0 - c * xbar_prev * x)
    b += xbar_prev * xbar_prev
    s += x
    n += 1
    sq = (s / n) ** 2  # xbar_n^2
    if n > 1:
        a += (n / (n - 1)) * sq
    rhs = (c / 2) * (1 + math.log(n) - (a + 2 * c * b + n * sq))
    return (s, log_k, a, b), log_k - rhs


def log_capital_bound_margin(prefix, c) -> float:
    """log K_n minus its contrarian lower bound, evaluated in float.

    The bound is (c/2) * {1 + log n - (sum (i/(i-1)) xbar_i^2
    + 2c sum xbar_{i-1}^2 + n xbar_n^2)}; the margin should stay positive
    (up to float noise) for every path and 0 < c <= 1/2.
    """
    c = _log_bound_c(c)
    moves = moves_of(prefix)
    if len(moves) < 2:
        raise VerifyError("the log bound needs length >= 2")
    node = (0, 0.0, 0.0, 0.0)
    for n, x in enumerate(moves):
        node, margin = _log_bound_round(node, n, x, c)
    return margin


def additive_capital(n, s, eps=Fraction(2)) -> Fraction:
    """The closed form (eps/2)(n - s_n^2)."""
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    return Fraction(eps.numerator * (n - s * s), 2 * eps.denominator)


# ---------------------------------------------------------------------------
# exhaustive engine-vs-oracle sweeps
# ---------------------------------------------------------------------------

_NESTED = (Strategy, list, tuple)  # the values _snapshot copies part by part


def _snapshot(v):
    """A hashable copy of v's complete state.  v is a strategy, or a list
    or tuple held by one: a strategy becomes its type and every attribute
    but the announced stake, each name followed by its value in one flat
    tuple (a pair per attribute made the memo 1.7 times larger); a list or
    tuple becomes a tuple of its elements, each of them snapshotted if it
    is one of these kinds and kept as itself otherwise.

    A Fraction attribute is followed by its numerator and denominator, two
    integers, in place of itself: a Fraction's hash takes a modular
    inverse.  The next part is a name, a str, so no other value's parts
    can match those two.  Attributes come in their insertion order, not
    sorted.  Names are kept, so two states whose attributes were set in
    different orders can only fail to merge; equal snapshots always hold
    equal states.  A snapshot is a memo key within one walk only.
    """
    if isinstance(v, Strategy):
        parts = [type(v)]
        for name, x in vars(v).items():
            if name == "_pending":
                continue
            if type(x) is Fraction:
                parts += name, x.numerator, x.denominator
            else:
                parts += name, _snapshot(x) if isinstance(x, _NESTED) else x
        return tuple(parts)
    return tuple([_snapshot(x) if isinstance(x, _NESTED) else x for x in v])


def _walk(identity: str, depth: int, state: tuple, step, engine=None) -> IdentityReport:
    """Check every move sequence up to ``depth`` by a depth-first ``walk_tree``.

    A node is an engine and the check's state, a tuple, at round n.  One
    ``children()`` call, the protocol's round, expands it into the stake
    announced and the two clones it settled (all None with no engine);
    then ``step(state, n, x, stake, child)`` returns ``(failure, state')``
    for each move x, -1 first.  ``failure`` is None when the child checks
    out, else the discrepancy to report.  The walk stops at the first
    failure; ``paths_checked`` counts the full-length paths reached, a
    failing leaf included.

    A node that carries an engine has a future that is a function of its
    complete state, so it is keyed on its state followed by the engine's
    snapshot, one flat tuple: a state met again at the same round belongs
    to a subtree that passed, and the counterexample and counts are those
    of the plain tree walk.  The oracle-only walks carry path-dependent
    sums and are not keyed.
    """
    if depth < 1:
        raise VerifyError("exhaustive depth must be >= 1")
    path = []  # the failing path, leaf move first, built as the walk unwinds

    def expand(node, n):
        strat, state = node
        stake, down, up = (None, None, None) if strat is None else strat.children()
        for x, child in ((-1, down), (1, up)):
            failure, after = step(state, n, x, stake, child)
            if failure is None and n + 1 < depth:
                failure = yield child, after
            if failure is not None:
                path.append(x)
                return failure

    key = None if engine is None else lambda node: node[1] + _snapshot(node[0])
    failure, expanded, hits = walk_tree((engine, state), depth, expand, key, VerifyError,
                                        "exhaustive")
    if failure is None:
        return IdentityReport(identity, 1 << depth, Fraction(0), None, expanded, hits)
    path.reverse()  # -1 is tried first, so each +1 on it skips a finished subtree
    checked = sum(1 << (depth - i) for i, x in enumerate(path, start=1) if x == 1)
    return IdentityReport(identity, checked + (len(path) == depth), failure, tuple(path),
                          expanded, hits)


def _mismatch(got, want):
    return None if got == want else abs(got - want)


def exhaustive_product_check(c, depth: int) -> IdentityReport:
    """Engine capital == direct product, every factor > 0, all paths.

    At each node the engine's announced stake must also be the paper's
    M_{n+1} = -c * xbar_n * K_n, with K_n the walk's own product; with the
    wealth check this is the protocol's settlement K_{n+1} = K_n + M_{n+1}
    * x_{n+1}, which the engine's running product does not compute.  The
    stake checked is the one ``children()`` handed out, which settled the
    children checked.

    The walk keeps K_n unreduced, as an integer pn over pd, the product of
    the factor denominators: pd is the same on every path to a round, so
    equal products have equal pn and a memo merges them as it would in
    lowest terms.  The stake and wealth are compared by cross-multiplying;
    a Fraction is built only for a discrepancy.
    """
    c = Fraction(c)
    p, q = c.numerator, c.denominator

    def step(state, n, x, m, child):
        pn, pd, s = state
        ps, qn = p * s, q * (n or 1)  # c * xbar_n is ps / qn (s is 0 when n is)
        pd2 = pd * qn  # K_{n+1}'s denominator on every path
        top = qn - ps * x  # the factor 1 - c * xbar_n * x is top / qn
        pn2 = pn * top
        wealth = child.wealth
        if top <= 0:
            failure = Fraction(1)
        elif m.numerator * pd2 != -ps * pn * m.denominator:  # m == -(ps / qn) * K_n
            failure = abs(m + Fraction(ps * pn, pd2))
        elif wealth.numerator * pd2 != pn2 * wealth.denominator:
            failure = abs(wealth - Fraction(pn2, pd2))
        else:
            failure = None
        return failure, (pn2, pd2, s + x)

    return _walk("product-capital", depth, (1, 1, 0), step, MultiplicativeContrarian(c))


def exhaustive_summation_check(depth: int) -> IdentityReport:
    """The partial-summation identity, checked at every node of depth >= 2."""
    if depth < 2:
        raise VerifyError("the summation identity needs depth >= 2")

    def step(state, n, x, _stake, _child):
        state, rhs = _summation_round(state, n, x)
        return (_mismatch(state[1], rhs) if n else None), state

    return _walk("summation-identity", depth, (0, Fraction(0), Fraction(0), Fraction(0)), step)


def exhaustive_log_bound_check(c, depth: int, slack: float = LOG_BOUND_SLACK) -> IdentityReport:
    """Float check of the log capital lower bound at every node of depth >= 2."""
    if depth < 2:
        raise VerifyError("the log bound needs depth >= 2")
    cf = _log_bound_c(c)

    def step(state, n, x, _stake, _child):
        state, margin = _log_bound_round(state, n, x, cf)
        return (-margin if n and margin < -slack else None), state

    return _walk("log-lower-bound", depth, (0, 0.0, 0.0, 0.0), step)


def exhaustive_additive_check(eps, depth: int) -> IdentityReport:
    """Engine capital of the unstopped additive bettor == (eps/2)(n - s^2)."""
    eps = Fraction(eps)

    def step(state, n, x, _stake, child):
        s = state[0] + x
        return _mismatch(child.gain, additive_capital(n + 1, s, eps)), (s,)

    return _walk("additive-closed-form", depth, (0,), step, AdditiveContrarian(eps))


def exhaustive_stopped_additive_check(eps, depth: int) -> IdentityReport:
    """Stop-rule bettor: wealth >= 0 always; Lemma-form capital while unstopped."""
    eps = Fraction(eps)
    root = StoppedAdditive(eps)
    m = int(2 / eps)  # an integer, or the constructor above had refused eps

    def step(state, n, x, _stake, child):
        s, stopped = state
        # the guard for round n + 1 reads s_n: (|s_n| + 1)^2 <= n + 1 + m
        stopped = stopped or (abs(s) + 1) ** 2 > n + 1 + m
        failure = -child.wealth if child.wealth < 0 else None
        if failure is None and not stopped:
            failure = _mismatch(child.gain, additive_capital(n + 1, s + x, eps))
        return failure, (s + x, stopped)

    return _walk("stopped-additive-collateral", depth, (0, False), step, root)


def exhaustive_one_sided_check(N: int, direction: str, depth: int) -> IdentityReport:
    """One-sided capital: +-s_n/N before the hit, -1 at and after; wealth >= 0."""
    sign = 1 if direction == "down" else -1

    def step(state, n, x, _stake, child):
        s, hit = state
        s += x
        hit = hit or sign * s <= -N
        expect = Fraction(-1) if hit else Fraction(sign * s, N)
        bad = child.gain != expect or child.wealth < 0
        return (abs(child.gain - expect) if bad else None), (s, hit)

    return _walk(f"one-sided-capital-{direction}-{N}", depth, (0, False), step,
                 OneSided(N, direction))


# check name -> (walk, the parameters it takes with their defaults)
CHECKS = {
    "product-capital": (exhaustive_product_check, {"c": Fraction(1, 2)}),
    "summation-identity": (exhaustive_summation_check, {}),
    "log-lower-bound": (exhaustive_log_bound_check,
                        {"c": Fraction(1, 2), "slack": LOG_BOUND_SLACK}),
    "additive-closed-form": (exhaustive_additive_check, {"eps": Fraction(2)}),
    "stopped-additive-collateral": (exhaustive_stopped_additive_check, {"eps": Fraction(1, 2)}),
    "one-sided-capital": (exhaustive_one_sided_check, {"N": 2, "direction": "down"}),
}


def exhaustive(depth: int, check: str, **params) -> IdentityReport:
    """Run the named identity check over all 2**depth move sequences."""
    if check not in CHECKS:
        raise VerifyError(f"unknown check {check!r}; known: {sorted(CHECKS)}")
    walk, defaults = CHECKS[check]
    if unknown := [name for name in params if name not in defaults]:
        raise VerifyError(f"check {check!r} does not take {', '.join(unknown)}; "
                          f"it takes: {', '.join(defaults) or 'none'}")
    return walk(depth=depth, **{**defaults, **params})


# ---------------------------------------------------------------------------
# vectorized float helpers for long paths
# ---------------------------------------------------------------------------

def mulc_capital_curve(moves: np.ndarray, c: float) -> np.ndarray:
    """Wealth curve of the multiplicative contrarian, float, via the product."""
    x = np.asarray(moves, dtype=np.float64)
    n = np.arange(1, len(x) + 1, dtype=np.float64)
    xbar = np.cumsum(x) / n
    xbar_prev = np.concatenate(([0.0], xbar[:-1]))
    return np.cumprod(1.0 - c * xbar_prev * x)


def log_bound_margin_curve(moves: np.ndarray, c: float) -> np.ndarray:
    """Margins log K_n - bound for n = 2..len(moves), vectorized.

    Computed in six buffers, in place, in the operation order of the
    formula, so the margins are those of the plain array expression.
    """
    c = _log_bound_c(c)
    x = np.asarray(moves, dtype=np.float64)
    n = np.arange(1, len(x) + 1, dtype=np.float64)
    xbar = np.cumsum(x)
    np.divide(xbar, n, out=xbar)
    b = np.empty_like(xbar)  # xbar_{i-1}, then sum of its squares
    b[:1] = 0.0  # [:1], not [0]: an empty path gives no margins
    b[1:] = xbar[:-1]
    log_k = np.multiply(b, c)
    np.multiply(log_k, x, out=log_k)
    np.subtract(1.0, log_k, out=log_k)
    np.log(log_k, out=log_k)
    np.cumsum(log_k, out=log_k)
    sq = np.square(xbar)
    a = np.subtract(n, 1)  # then sum of (i/(i-1)) xbar_i^2
    np.maximum(a, 1.0, out=a)
    np.divide(n, a, out=a)
    np.multiply(a, sq, out=a)
    a[:1] = 0.0
    np.cumsum(a, out=a)
    np.square(b, out=b)
    np.cumsum(b, out=b)
    np.multiply(b, 2 * c, out=b)
    np.add(a, b, out=a)
    np.multiply(n, sq, out=sq)
    np.add(a, sq, out=a)
    rhs = np.log(n, out=n)
    np.add(rhs, 1.0, out=rhs)
    np.subtract(rhs, a, out=rhs)
    np.multiply(rhs, c / 2, out=rhs)
    np.subtract(log_k, rhs, out=log_k)
    return log_k[1:]
