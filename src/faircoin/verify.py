"""Brute-force oracles for the closed-form capital identities.

Every identity the strategies rely on is re-derived here along an
arithmetic path independent of the strategy engine (direct products,
direct sums, direct formulas), and the exhaustive sweeps run the engine
and the oracle side by side over every move sequence up to a depth.  In
exact mode any nonzero discrepancy is a bug; the only inexact check is
the logarithmic capital lower bound, which uses floats with a
conservative slack margin because its slack is bounded away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import STATE_BUDGET, fmt_number, moves_of
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


def summation_identity_sides(prefix) -> tuple[Fraction, Fraction]:
    """Both sides of the partial-summation identity, computed directly.

    LHS = sum_{i=2}^n xbar_{i-1} x_i;
    RHS = (1/2) sum_{i=2}^n (i/(i-1)) xbar_i^2 + (n/2) xbar_n^2
          - (1/2)(x_1^2 + sum_{i=2}^n x_i^2 / (i-1)).
    """
    moves = moves_of(prefix)
    n = len(moves)
    if n < 2:
        raise VerifyError("the summation identity needs length >= 2")
    s = 0
    lhs = Fraction(0)
    a = Fraction(0)  # sum (i/(i-1)) xbar_i^2
    b = Fraction(moves[0] ** 2)  # x_1^2 + sum x_i^2/(i-1)
    for i, x in enumerate(moves, start=1):
        if i >= 2:
            lhs += Fraction(s, i - 1) * x
        s += x
        if i >= 2:
            a += Fraction(i, i - 1) * Fraction(s, i) ** 2
            b += Fraction(x * x, i - 1)
    rhs = a / 2 + Fraction(n, 2) * Fraction(s, n) ** 2 - b / 2
    return lhs, rhs


def _log_bound_c(c) -> float:
    cf = Fraction(c)
    if not 0 < cf <= Fraction(1, 2):
        raise VerifyError(f"the log bound is claimed only for 0 < c <= 1/2, got {c}")
    return float(cf)


def log_capital_bound_margin(prefix, c) -> float:
    """log K_n minus its contrarian lower bound, evaluated in float.

    The bound is (c/2) * {1 + log n - (sum (i/(i-1)) xbar_i^2
    + 2c sum xbar_{i-1}^2 + n xbar_n^2)}; the margin should stay positive
    (up to float noise) for every path and 0 < c <= 1/2.
    """
    c = _log_bound_c(c)
    moves = moves_of(prefix)
    n = len(moves)
    if n < 2:
        raise VerifyError("the log bound needs length >= 2")
    s = 0
    log_k = 0.0
    a = 0.0  # sum (i/(i-1)) xbar_i^2
    b = 0.0  # sum xbar_{i-1}^2
    for i, x in enumerate(moves, start=1):
        if i >= 2:
            xbar_prev = s / (i - 1)
            log_k += math.log(1.0 - c * xbar_prev * x)
            b += xbar_prev * xbar_prev
        s += x
        if i >= 2:
            a += (i / (i - 1)) * (s / i) ** 2
    rhs = (c / 2) * (1 + math.log(n) - (a + 2 * c * b + n * (s / n) ** 2))
    return log_k - rhs


def log_capital_lower_bound_check(prefix, c) -> IdentityReport:
    margin = log_capital_bound_margin(prefix, c)
    ok = margin >= -LOG_BOUND_SLACK
    return IdentityReport("log-lower-bound", 1, 0.0 if ok else -margin,
                          None if ok else moves_of(prefix))


def additive_capital(prefix_or_n, s=None, eps=Fraction(2)) -> Fraction:
    """The closed form (eps/2)(n - s_n^2), from (n, s) or a prefix."""
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if s is None:
        moves = moves_of(prefix_or_n)
        n, s = len(moves), sum(moves)
    else:
        n = prefix_or_n
    return Fraction(eps.numerator * (n - s * s), 2 * eps.denominator)


def additive_closed_form_check(prefix, eps) -> IdentityReport:
    """Run the additive strategy over the prefix and compare to the formula."""
    strat = AdditiveContrarian(eps)
    worst = Fraction(0)
    witness = None
    moves = moves_of(prefix)
    for x in moves:
        strat.next_stake()
        strat.observe(x)
        disc = abs(strat.gain - additive_capital(strat.n, strat.s, eps))
        if disc > worst:
            worst = disc
            witness = moves[: strat.n]
    return IdentityReport("additive-closed-form", 1, worst, witness)


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
    """Check every move sequence up to ``depth``, depth first.

    ``step(node, n)`` yields one ``(failure, child)`` pair per move of
    _MOVES, in that order, for a node at round n; ``failure`` is None when
    the child checks out, else the discrepancy to report.  The walk stops
    at the first failure; ``paths_checked`` counts the full-length paths
    reached, a failing leaf included.

    A node that carries an engine has a future that is a function of its
    complete state, so equal states at equal rounds are checked once: a
    child whose snapshot matches a subtree already checked is credited
    with that subtree's leaves and not walked again.  The walk ends at the
    first failure, so a state it meets again belongs to a subtree that
    passed, and the order, the counterexample and the counts are those of
    the plain tree walk.  Nodes of the oracle-only walks carry
    path-dependent sums, never merge, and are not keyed: such a walk
    expands all 2**depth - 1 inner nodes, and is refused before it starts
    when that is over STATE_BUDGET.  A walk raises VerifyError when its
    ``rec`` calls pass the budget or its depth the recursion limit.
    """
    if depth < 1:
        raise VerifyError("exhaustive depth must be >= 1")
    seen = set() if any(isinstance(v, Strategy) for v in root) else None
    if seen is None and depth >= (STATE_BUDGET + 1).bit_length():
        raise VerifyError(f"exhaustive depth {depth} walks all 2**{depth} - 1 states, over budget")
    leaves = expanded = 0
    path = []  # the failing path, leaf move first, built as the walk unwinds

    def rec(node, n):
        nonlocal leaves, expanded
        expanded += 1
        if expanded > STATE_BUDGET:
            raise VerifyError(f"exhaustive depth {depth} is over the state budget {STATE_BUDGET}")
        if n + 1 == depth:  # the children are leaves: count and check them
            for x, (failure, _) in zip(_MOVES, step(node, n)):
                leaves += 1
                if failure is not None:
                    path.append(x)
                    return failure
            return None
        for x, (failure, child) in zip(_MOVES, step(node, n)):
            if failure is None:
                if seen is not None:
                    key = (n, _snapshot(child))
                    if key in seen:
                        leaves += 1 << (depth - n - 1)
                        continue
                    seen.add(key)
                failure = rec(child, n + 1)
            if failure is not None:
                path.append(x)
                return failure
        return None

    try:
        failure = rec(root, 0)
    except RecursionError:
        raise VerifyError(f"exhaustive depth {depth} is too deep to recurse") from None
    if failure is None:
        return IdentityReport(identity, leaves, Fraction(0))
    return IdentityReport(identity, leaves, failure, tuple(reversed(path)))


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
        s, lhs, a, b = node
        xbar = Fraction(s, n) if n else Fraction(0)
        n2 = n + 1
        b2 = b + (Fraction(1, n) if n else Fraction(1))
        for x in _MOVES:
            s2 = s + x
            lhs2 = lhs + xbar * x
            a2 = a + (Fraction(n2, n) * Fraction(s2, n2) ** 2 if n else Fraction(0))
            rhs = a2 / 2 + Fraction(n2, 2) * Fraction(s2, n2) ** 2 - b2 / 2
            yield (_mismatch(lhs2, rhs) if n else None), (s2, lhs2, a2, b2)

    return _walk("summation-identity", depth,
                 (0, Fraction(0), Fraction(0), Fraction(0)), step)


def exhaustive_log_bound_check(c, depth: int, slack: float = LOG_BOUND_SLACK) -> IdentityReport:
    """Float check of the log capital lower bound at every node of depth >= 2."""
    if depth < 2:
        raise VerifyError("the log bound needs depth >= 2")
    cf = _log_bound_c(c)

    def step(node, n):
        s, log_k, a, b = node
        xbar_prev = s / n if n else 0.0
        b2 = b + xbar_prev * xbar_prev
        n2 = n + 1
        for x in _MOVES:
            s2 = s + x
            log_k2 = log_k + math.log(1.0 - cf * xbar_prev * x)
            a2 = a + ((n2 / n) * (s2 / n2) ** 2 if n else 0.0)
            rhs = (cf / 2) * (1 + math.log(n2) - (a2 + 2 * cf * b2 + n2 * (s2 / n2) ** 2))
            failure = rhs - log_k2 if n and log_k2 - rhs < -slack else None
            yield failure, (s2, log_k2, a2, b2)

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


def additive_capital_curve(moves: np.ndarray, eps: float) -> np.ndarray:
    """Gain curve (eps/2)(n - s_n^2) of the unstopped additive bettor."""
    x = np.asarray(moves, dtype=np.float64)
    s = np.cumsum(x)
    n = np.arange(1, len(x) + 1, dtype=np.float64)
    return 0.5 * eps * (n - s * s)


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
