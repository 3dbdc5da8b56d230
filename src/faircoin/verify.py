"""Brute-force oracles for the closed-form capital identities.

Every identity the strategies rely on is re-derived here along an
arithmetic path independent of the strategy engine (direct products,
direct sums, direct formulas), and the exhaustive sweeps run the engine
and the oracle side by side over every move sequence up to a depth.  The
summation identity and the log bound are each one per-round update,
folded over a prefix by its oracle and stepped per child by its walk.
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

    @property
    def passed(self) -> bool:
        return self.counterexample is None and self.max_discrepancy == 0

    def to_json_dict(self) -> dict:
        disc = self.max_discrepancy
        return {
            "identity": self.identity,
            "paths_checked": self.paths_checked,
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

_MOVES = (-1, 1)


def _snapshot(v):
    """A hashable copy of v's complete state: a strategy as its type and
    every attribute but the announced stake, each name followed by its
    value in one flat tuple (a pair per attribute made the memo 1.7 times
    larger), lists and tuples element by element, anything else as itself."""
    if isinstance(v, Strategy):
        return (type(v), *[part for name, x in sorted(vars(v).items()) if name != "_pending"
                           for part in (name, _snapshot(x))])
    if isinstance(v, (list, tuple)):
        return tuple(map(_snapshot, v))
    return v


def _walk(identity: str, depth: int, root, step) -> IdentityReport:
    """Check every move sequence up to ``depth`` by a depth-first ``walk_tree``.

    ``step(node, n)`` yields one ``(failure, child)`` pair per move of
    _MOVES, in that order, for a node at round n; ``failure`` is None when
    the child checks out, else the discrepancy to report.  The walk stops
    at the first failure; ``paths_checked`` counts the full-length paths
    reached, a failing leaf included.

    A node that carries an engine has a future that is a function of its
    complete state, so it is keyed on its snapshot: a state met again at
    the same round belongs to a subtree that passed, and the counterexample
    and counts are those of the plain tree walk.  The oracle-only walks
    carry path-dependent sums and are not keyed.
    """
    if depth < 1:
        raise VerifyError("exhaustive depth must be >= 1")
    path = []  # the failing path, leaf move first, built as the walk unwinds

    def expand(node, n):
        for x, (failure, child) in zip(_MOVES, step(node, n)):
            if failure is None and n + 1 < depth:
                failure = yield child
            if failure is not None:
                path.append(x)
                return failure

    key = _snapshot if any(isinstance(v, Strategy) for v in root) else None
    failure = walk_tree(root, depth, expand, key, VerifyError, "exhaustive")
    if failure is None:
        return IdentityReport(identity, 1 << depth, Fraction(0))
    path.reverse()  # -1 is tried first, so each +1 on it skips a finished subtree
    checked = sum(1 << (depth - i) for i, x in enumerate(path, start=1) if x == 1)
    return IdentityReport(identity, checked + (len(path) == depth), failure, tuple(path))


def _mismatch(got, want):
    return None if got == want else abs(got - want)


def exhaustive_product_check(c, depth: int) -> IdentityReport:
    """Engine capital == direct product, every factor > 0, all paths."""
    c = Fraction(c)

    def step(node, n):
        strat, prod, s = node
        cxbar = c * Fraction(s, n) if n else Fraction(0)
        for x, child in zip(_MOVES, strat.children()):
            factor = 1 - cxbar * x
            prod2 = prod * factor
            failure = Fraction(1) if factor <= 0 else _mismatch(child.wealth, prod2)
            yield failure, (child, prod2, s + x)

    return _walk("product-capital", depth,
                 (MultiplicativeContrarian(c), Fraction(1), 0), step)


def exhaustive_summation_check(depth: int) -> IdentityReport:
    """The partial-summation identity, checked at every node of depth >= 2."""
    if depth < 2:
        raise VerifyError("the summation identity needs depth >= 2")

    def step(node, n):
        for x in _MOVES:
            child, rhs = _summation_round(node, n, x)
            yield (_mismatch(child[1], rhs) if n else None), child

    return _walk("summation-identity", depth,
                 (0, Fraction(0), Fraction(0), Fraction(0)), step)


def exhaustive_log_bound_check(c, depth: int, slack: float = LOG_BOUND_SLACK) -> IdentityReport:
    """Float check of the log capital lower bound at every node of depth >= 2."""
    if depth < 2:
        raise VerifyError("the log bound needs depth >= 2")
    cf = _log_bound_c(c)

    def step(node, n):
        for x in _MOVES:
            child, margin = _log_bound_round(node, n, x, cf)
            yield (-margin if n and margin < -slack else None), child

    return _walk("log-lower-bound", depth, (0, 0.0, 0.0, 0.0), step)


def exhaustive_additive_check(eps, depth: int) -> IdentityReport:
    """Engine capital of the unstopped additive bettor == (eps/2)(n - s^2)."""
    eps = Fraction(eps)

    def step(node, n):
        strat, s = node
        for x, child in zip(_MOVES, strat.children()):
            yield _mismatch(child.gain, additive_capital(n + 1, s + x, eps)), (child, s + x)

    return _walk("additive-closed-form", depth, (AdditiveContrarian(eps), 0), step)


def exhaustive_stopped_additive_check(eps, depth: int) -> IdentityReport:
    """Stop-rule bettor: wealth >= 0 always; Lemma-form capital while unstopped."""
    eps = Fraction(eps)
    root = StoppedAdditive(eps)
    m = int(2 / eps)  # an integer, or the constructor above had refused eps

    def step(node, n):
        strat, s, stopped = node
        # the guard for round n + 1 reads s_n: (|s_n| + 1)^2 <= n + 1 + m
        stopped = stopped or (abs(s) + 1) ** 2 > n + 1 + m
        for x, child in zip(_MOVES, strat.children()):
            failure = -child.wealth if child.wealth < 0 else None
            if failure is None and not stopped:
                failure = _mismatch(child.gain, additive_capital(n + 1, s + x, eps))
            yield failure, (child, s + x, stopped)

    return _walk("stopped-additive-collateral", depth, (root, 0, False), step)


def exhaustive_one_sided_check(N: int, direction: str, depth: int) -> IdentityReport:
    """One-sided capital: +-s_n/N before the hit, -1 at and after; wealth >= 0."""
    sign = 1 if direction == "down" else -1

    def step(node, n):
        strat, s, hit = node
        for x, child in zip(_MOVES, strat.children()):
            hit2 = hit or sign * (s + x) <= -N
            expect = Fraction(-1) if hit2 else Fraction(sign * (s + x), N)
            bad = child.gain != expect or child.wealth < 0
            yield (abs(child.gain - expect) if bad else None), (child, s + x, hit2)

    return _walk(f"one-sided-capital-{direction}-{N}", depth,
                 (OneSided(N, direction), 0, False), step)


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
    """Margins log K_n - bound for n = 2..len(moves), vectorized."""
    c = _log_bound_c(c)
    x = np.asarray(moves, dtype=np.float64)
    n = np.arange(1, len(x) + 1, dtype=np.float64)
    s = np.cumsum(x)
    xbar = s / n
    xbar_prev = np.concatenate(([0.0], xbar[:-1]))
    log_k = np.cumsum(np.log(1.0 - c * xbar_prev * x))
    a_terms = (n / np.maximum(n - 1, 1.0)) * xbar**2
    a_terms[0] = 0.0
    a = np.cumsum(a_terms)
    b = np.cumsum(xbar_prev**2)
    rhs = (c / 2) * (1.0 + np.log(n) - (a + 2 * c * b + n * xbar**2))
    return (log_k - rhs)[1:]
