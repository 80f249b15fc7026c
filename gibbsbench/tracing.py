"""Spans around the program's public functions, recorded from outside it.

A :class:`Tracer` wraps named functions of the ``hiersbm`` package and rebinds
every name the package (and this benchmark) calls them by, so calls made
inside the program are traced too.  Spans are not kept one by one: each
(phase, function) pair accumulates its call count, its total time, its self
time (total minus the time of traced calls it made) and an optional size of
its results.  ``phase`` is set by the benchmark to say which of its timed
blocks is running.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("calls", "total", "self_time", "size")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.size = 0.0


class Tracer:
    def __init__(self):
        self.phase = "other"
        self.spans: dict[tuple[str, str], Span] = defaultdict(Span)
        self._children: list[float] = []  # traced time spent in the callees of each open span

    def span(self, phase: str, name: str) -> Span:
        return self.spans.get((phase, name), Span())

    def _wrap(self, name, fn, size):
        clock = time.perf_counter
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += took
                span = self.spans[(self.phase, name)]
                span.calls += 1
                span.total += took
                span.self_time += took - inner
            if size is not None:
                span.size += size(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Trace ``targets`` while the block runs, then restore every binding.

        ``targets`` maps a span name to ``(owner, attribute, size)``: the
        module or class that defines the function, its attribute name, and a
        function of the result to accumulate as the span's size, or None.
        """
        undo = []
        try:
            for name, (owner, attr, size) in targets.items():
                original = getattr(owner, attr, None)
                if original is None:  # gone from the program: its spans stay empty
                    continue
                traced = self._wrap(name, original, size)
                holders = [owner] + [
                    mod for key, mod in list(sys.modules.items())
                    if (key == "hiersbm" or key.startswith("hiersbm.")) and mod is not owner
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, original))
                            setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)
