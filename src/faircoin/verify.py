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
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import moves_of
from .strategies import (
    AdditiveContrarian,
    MultiplicativeContrarian,
    OneSided,
    StoppedAdditive,
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
            "max_discrepancy": (f"{disc.numerator}/{disc.denominator}"
                                if isinstance(disc, Fraction) else disc),
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


def log_capital_bound_margin(prefix, c) -> float:
    """log K_n minus its contrarian lower bound, evaluated in float.

    The bound is (c/2) * {1 + log n - (sum (i/(i-1)) xbar_i^2
    + 2c sum xbar_{i-1}^2 + n xbar_n^2)}; the margin should stay positive
    (up to float noise) for every path and 0 < c <= 1/2.
    """
    c = float(Fraction(c))
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


def log_capital_lower_bound_check(prefix, c, slack: float = LOG_BOUND_SLACK) -> IdentityReport:
    margin = log_capital_bound_margin(prefix, c)
    ok = margin >= -slack
    return IdentityReport("log-lower-bound", 1, 0.0 if ok else -margin,
                          None if ok else moves_of(prefix))


def additive_capital(prefix_or_n, s=None, eps=Fraction(2)) -> Fraction:
    """The closed form (eps/2)(n - s_n^2), from (n, s) or a prefix."""
    eps = Fraction(eps)
    if s is None:
        moves = moves_of(prefix_or_n)
        n, s = len(moves), sum(moves)
    else:
        n = prefix_or_n
    return eps * (n - s * s) / 2


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

def _cap(depth: int, cap: int | None) -> None:
    if cap is None:
        text = os.environ.get("FAIRCOIN_EXHAUSTIVE_CAP", "22")
        try:
            cap = int(text)
        except ValueError:
            raise VerifyError(
                f"FAIRCOIN_EXHAUSTIVE_CAP must be an integer, got {text!r}") from None
    if depth > cap:
        raise VerifyError(f"exhaustive depth {depth} exceeds cap {cap}")
    if depth < 1:
        raise VerifyError("exhaustive depth must be >= 1")


def _report(identity: str, leaves: int, failure) -> IdentityReport:
    if failure is None:
        return IdentityReport(identity, leaves, Fraction(0))
    disc, path = failure
    return IdentityReport(identity, leaves, disc, tuple(path))


def exhaustive_product_check(c, depth: int, cap: int | None = None) -> IdentityReport:
    """Engine capital == direct product, every factor > 0, all paths."""
    _cap(depth, cap)
    c = Fraction(c)
    leaves = 0

    def rec(strat, prod, n, s, path):
        nonlocal leaves
        strat.next_stake()
        for x in (-1, 1):
            if n + 1 == depth:
                leaves += 1
            factor = 1 - c * Fraction(s, n) * x if n else Fraction(1)
            if factor <= 0:
                return (Fraction(1), path + [x])
            child = strat.clone()
            child.observe(x)
            prod2 = prod * factor
            if child.wealth != prod2:
                return (abs(child.wealth - prod2), path + [x])
            if n + 1 < depth:
                bad = rec(child, prod2, n + 1, s + x, path + [x])
                if bad:
                    return bad
        strat._pending = None
        return None

    failure = rec(MultiplicativeContrarian(c), Fraction(1), 0, 0, [])
    return _report("product-capital", leaves, failure)


def exhaustive_summation_check(depth: int, cap: int | None = None) -> IdentityReport:
    """The partial-summation identity, checked at every node of depth >= 2."""
    _cap(depth, cap)
    leaves = 0

    def rec(n, s, lhs, a, b, path):
        nonlocal leaves
        for x in (-1, 1):
            if n + 1 == depth:
                leaves += 1
            lhs2 = lhs + (Fraction(s, n) * x if n else Fraction(0))
            n2, s2 = n + 1, s + x
            a2 = a + (Fraction(n2, n2 - 1) * Fraction(s2, n2) ** 2 if n2 >= 2 else Fraction(0))
            b2 = b + (Fraction(1, n2 - 1) if n2 >= 2 else Fraction(1))
            if n2 >= 2:
                rhs = a2 / 2 + Fraction(n2, 2) * Fraction(s2, n2) ** 2 - b2 / 2
                if lhs2 != rhs:
                    return (abs(lhs2 - rhs), path + [x])
            if n2 < depth:
                bad = rec(n2, s2, lhs2, a2, b2, path + [x])
                if bad:
                    return bad
        return None

    failure = rec(0, 0, Fraction(0), Fraction(0), Fraction(0), [])
    return _report("summation-identity", leaves, failure)


def exhaustive_log_bound_check(c, depth: int, slack: float = LOG_BOUND_SLACK,
                               cap: int | None = None) -> IdentityReport:
    """Float check of the log capital lower bound at every node of depth >= 2."""
    _cap(depth, cap)
    cf = float(Fraction(c))
    leaves = 0

    def rec(n, s, log_k, a, b, path):
        nonlocal leaves
        for x in (-1, 1):
            if n + 1 == depth:
                leaves += 1
            if n:
                xbar_prev = s / n
                log_k2 = log_k + math.log(1.0 - cf * xbar_prev * x)
                b2 = b + xbar_prev * xbar_prev
            else:
                log_k2, b2 = log_k, b
            n2, s2 = n + 1, s + x
            a2 = a + ((n2 / (n2 - 1)) * (s2 / n2) ** 2 if n2 >= 2 else 0.0)
            if n2 >= 2:
                rhs = (cf / 2) * (1 + math.log(n2) - (a2 + 2 * cf * b2 + n2 * (s2 / n2) ** 2))
                if log_k2 - rhs < -slack:
                    return (rhs - log_k2, path + [x])
            if n2 < depth:
                bad = rec(n2, s2, log_k2, a2, b2, path + [x])
                if bad:
                    return bad
        return None

    failure = rec(0, 0, 0.0, 0.0, 0.0, [])
    return _report("log-lower-bound", leaves, failure)


def exhaustive_additive_check(eps, depth: int, cap: int | None = None) -> IdentityReport:
    """Engine capital of the unstopped additive bettor == (eps/2)(n - s^2)."""
    _cap(depth, cap)
    eps = Fraction(eps)
    leaves = 0

    def rec(strat, path):
        nonlocal leaves
        strat.next_stake()
        for x in (-1, 1):
            if strat.n + 1 == depth:
                leaves += 1
            child = strat.clone()
            child.observe(x)
            expect = additive_capital(child.n, child.s, eps)
            if child.gain != expect:
                return (abs(child.gain - expect), path + [x])
            if child.n < depth:
                bad = rec(child, path + [x])
                if bad:
                    return bad
        strat._pending = None
        return None

    failure = rec(AdditiveContrarian(eps), [])
    return _report("additive-closed-form", leaves, failure)


def exhaustive_stopped_additive_check(eps, depth: int, cap: int | None = None) -> IdentityReport:
    """Stop-rule bettor: wealth >= 0 always; Lemma-form capital while unstopped."""
    _cap(depth, cap)
    eps = Fraction(eps)
    leaves = 0

    def rec(strat, path):
        nonlocal leaves
        strat.next_stake()
        for x in (-1, 1):
            if strat.n + 1 == depth:
                leaves += 1
            child = strat.clone()
            child.observe(x)
            if child.wealth < 0:
                return (-child.wealth, path + [x])
            if not child.stopped and child.gain != additive_capital(child.n, child.s, eps):
                return (abs(child.gain - additive_capital(child.n, child.s, eps)), path + [x])
            if child.n < depth:
                bad = rec(child, path + [x])
                if bad:
                    return bad
        strat._pending = None
        return None

    failure = rec(StoppedAdditive(eps), [])
    return _report("stopped-additive-collateral", leaves, failure)


def exhaustive_one_sided_check(N: int, direction: str, depth: int,
                               cap: int | None = None) -> IdentityReport:
    """One-sided capital: +-s_n/N before the hit, -1 at and after; wealth >= 0."""
    _cap(depth, cap)
    sign = 1 if direction == "down" else -1
    leaves = 0

    def rec(strat, hit, path):
        nonlocal leaves
        strat.next_stake()
        for x in (-1, 1):
            if strat.n + 1 == depth:
                leaves += 1
            child = strat.clone()
            child.observe(x)
            hit2 = hit or (sign * child.s <= -N)
            expect = Fraction(-1) if hit2 else Fraction(sign * child.s, N)
            if child.gain != expect or child.wealth < 0:
                return (abs(child.gain - expect), path + [x])
            if child.n < depth:
                bad = rec(child, hit2, path + [x])
                if bad:
                    return bad
        strat._pending = None
        return None

    failure = rec(OneSided(N, direction), False, [])
    return _report(f"one-sided-capital-{direction}-{N}", leaves, failure)


CHECKS = {
    "product-capital": lambda depth, **kw: exhaustive_product_check(
        kw.get("c", Fraction(1, 2)), depth),
    "summation-identity": lambda depth, **kw: exhaustive_summation_check(depth),
    "log-lower-bound": lambda depth, **kw: exhaustive_log_bound_check(
        kw.get("c", Fraction(1, 2)), depth, kw.get("slack", LOG_BOUND_SLACK)),
    "additive-closed-form": lambda depth, **kw: exhaustive_additive_check(
        kw.get("eps", Fraction(2)), depth),
    "stopped-additive-collateral": lambda depth, **kw: exhaustive_stopped_additive_check(
        kw.get("eps", Fraction(1, 2)), depth),
    "one-sided-capital": lambda depth, **kw: exhaustive_one_sided_check(
        int(kw.get("N", 2)), kw.get("direction", "down"), depth),
}


def exhaustive(depth: int, check: str, **params) -> IdentityReport:
    """Run the named identity check over all 2**depth move sequences."""
    if check not in CHECKS:
        raise VerifyError(f"unknown check {check!r}; known: {sorted(CHECKS)}")
    return CHECKS[check](depth, **params)


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
