"""Spans around calls into qswalk, and the arithmetic that turns them into metrics.

A :class:`Tracer` replaces a module attribute with a wrapper that records one
span per call: name, start, end, the index of the enclosing span, and an
optional count derived from the result.  qswalk modules bind their
dependencies with ``from .x import y``, so a function is patched at every
module that calls it, not only where it is defined.  Spans stay in memory;
the caller writes them out when the run ends.

A span is the list ``[name, start, end, parent, count]``.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import math
import os
import time

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans from wrapped functions in this process only."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._pid = os.getpid()

    def patch(self, module, attr: str, name: str, on_result=None) -> bool:
        """Wrap ``module.attr`` so each call records a span called ``name``.

        ``on_result(result)`` may return a count stored on the span.
        Returns False, patching nothing, when the attribute does not exist.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        if hasattr(original, "_perfbench_span"):
            raise RuntimeError(f"{module.__name__}.{attr} is already traced")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked pool worker stays untraced
                return original(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, None, stack[-1] if stack else None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()
            if on_result is not None:
                span[4] = on_result(result)
            return result

        traced._perfbench_span = name
        self._patched.append((module, attr, original))
        setattr(module, attr, traced)
        return True

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def root_self_time(spans, start: float, end: float) -> float:
    """Time in [start, end] that no top-level span covers."""
    top = [(s[1], s[2]) for s in spans if s[3] is None]
    return (end - start) - covered(top, start, end)


def ancestors(spans, idx: int):
    parent = spans[idx][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """Highest ladder percentile with at least ten samples strictly above it.

    Returns ``(percentile, value, sample_count)``, or None when no
    percentile of the ladder has ten samples beyond it.
    """
    for p in PERCENTILE_LADDER:
        v = percentile(values, p) if values else None
        if v is not None and sum(x > v for x in values) >= TAIL_MIN_BEYOND:
            return p, v, len(values)
    return None
