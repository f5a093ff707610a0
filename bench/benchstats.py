"""Arithmetic of the benchmark: order statistics, span self time, failure
fraction and the metric-name rule.

Pure functions over plain sequences, so the tests can pin them without
running the program.
"""
from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """A name starts with a letter or digit and is at most 64 characters
    of letters, digits, ``_``, ``.`` and ``-``."""
    return isinstance(name, str) and METRIC_NAME.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def fail_frac(attempted: int, failed: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    Span ``i`` runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is
    the index of the span that caused it, or -1 for a root.  Children
    may overlap one another (siblings on other threads); the union is
    subtracted once, clipped to the parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(parents)):
        lo, hi = starts[i], ends[i]
        kids = children.get(i)
        busy = covered((max(a, lo), min(b, hi)) for a, b in kids if b > lo and a < hi) \
            if kids else 0.0
        out.append((hi - lo) - busy)
    return out
