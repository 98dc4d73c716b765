"""Outside-in tracing: wrappers installed around the solver's public boundaries.

Coarse boundaries (one call per instance, try or phase) become spans with a
parent id, kept in memory and written out when the round ends.  Hot
boundaries (called per flip, per propagation, per candidate score) are only
aggregated into count, inclusive time and self time, so memory stays bounded.
Both kinds share one call stack, so every self time is the span's duration
minus the time covered by the wrapped calls made under it.
"""

from __future__ import annotations

import functools
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent id, name, start, end, self time]
        self.totals = {}     # name -> [count, inclusive s, self s]
        self._stack = []     # open calls: [span id or None, child time]

    def _total(self, name):
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def span(self, name, fn):
        """Wrap ``fn`` so each call is kept as a span and added to the totals."""
        stack, spans, total = self._stack, self.spans, self._total(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            record = [frame[0], parent, name, 0.0, 0.0, 0.0]
            spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                record[3], record[4], record[5] = start, end, elapsed - frame[1]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def hot(self, name, fn):
        """Wrap ``fn`` so each call is only counted and timed into the totals."""
        stack, total = self._stack, self._total(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def first_call(self, name, fn):
        """Count every call of ``fn(obj, key)``; time only the first per (obj, key).

        Meant for lazily cached lookups: the first call per key pays the
        computation, later calls are cache hits whose cost belongs to the
        caller.  Timing only first calls keeps the wrapper cheap on the hits.
        """
        stack, total = self._stack, self._total(name)
        seen = set()
        calls = self._total(name + ".calls")

        @functools.wraps(fn)
        def wrapper(obj, key):
            calls[0] += 1
            tag = (id(obj), key)
            if tag in seen:
                return fn(obj, key)
            seen.add(tag)
            stack.append([None, 0.0])
            start = clock()
            try:
                return fn(obj, key)
            finally:
                elapsed = clock() - start
                frame = stack.pop()
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def get(self, name, field=1) -> float:
        """Summed count (field 0), inclusive (1) or self (2) time of ``name``."""
        return self.totals.get(name, (0, 0.0, 0.0))[field]
