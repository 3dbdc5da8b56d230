"""Work counts derived from job inputs alone, never from the engine.

The rate metrics divide these counts by measured time, so an
implementation cannot change its own denominator.
"""

from __future__ import annotations

from math import isqrt

_STATES: dict[tuple[int, int], int] = {}


def live_level_bounds(l: int, horizon: int):
    """Yield (n, lo, hi) for n = 0..horizon: the live sums at round n are
    lo, lo + 2, ..., hi, or none when lo > hi.

    A state (n, s) is live when it is reachable from the root through live
    states and not absorbed, i.e. (|s| + 1)^2 <= n + l.  Live sums at one
    round share the parity of n and form a contiguous run, so one interval
    per round describes the strip.  Reachability is what the closed form
    (|s| + 1)^2 <= n + l alone misses: at l <= 1 both children of the root
    are absorbed and nothing below it is live.
    """
    lo = hi = 0
    yield 0, lo, hi
    for n in range(1, horizon + 1):
        if lo > hi:
            yield n, 1, 0
            continue
        r = isqrt(n + l) - 1  # largest |s| with (|s| + 1)^2 <= n + l
        lo, hi = max(lo - 1, -r), min(hi + 1, r)
        # keep the parity of n: the bounds move by one from round n - 1
        if (lo - n) % 2:
            lo += 1
        if (hi - n) % 2:
            hi -= 1
        yield n, lo, hi


def strip_states(l: int, horizon: int) -> int:
    """Number of live (n, s) states for n = 0..horizon."""
    key = (l, horizon)
    if key not in _STATES:
        _STATES[key] = sum((hi - lo) // 2 + 1 for _, lo, hi in live_level_bounds(l, horizon)
                           if lo <= hi)
    return _STATES[key]


def tree_nodes(depth: int) -> int:
    """Nodes below the root of the full binary tree of the given depth."""
    return (1 << (depth + 1)) - 2
