"""Span recording around the package's call sites.

A Tracer replaces module attributes (the names a caller looks up at call
time, e.g. ``geosoc.framework.induced_subgraph``) with wrappers that
record one span per call: name, start, end and parent.  Spans stay in
flat in-memory arrays and are written out once the run is over.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# (counters, args, kwargs, result) -> None; adds the call's work counts
CountHook = Callable[[Counter, tuple, dict, object], None]
# (original, counters) -> callable run inside the span in place of original
Adapter = Callable[[Callable, Counter], Callable]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(
        self,
        owner: object,
        attr: str,
        name: str,
        count: CountHook | None = None,
        adapt: Adapter | None = None,
    ) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name`` once installed."""
        self._patches.append((owner, attr, getattr(owner, attr), name, count, adapt))

    def wrap(self, fn, name: str, count: CountHook | None = None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every registered call site; restore the originals on exit."""
        try:
            for owner, attr, original, name, count, adapt in self._patches:
                inner = original if adapt is None else adapt(original, self.counts)
                setattr(owner, attr, self.wrap(inner, name, count))
            yield self
        finally:
            for owner, attr, original, *_ in reversed(self._patches):
                setattr(owner, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Record one span around a direct call from the benchmark."""
        return self.wrap(fn, name)(*args, **kwargs)

    def layer_times(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float]]:
        """Busy and self seconds per span name over spans lo..hi-1, which
        must be whole subtrees (every span's parent precedes it)."""
        covered = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                covered[p - lo] += self.ends[i] - self.starts[i]
        busy: Counter = Counter()
        own: Counter = Counter()
        for i in range(lo, hi):
            dur = self.ends[i] - self.starts[i]
            busy[self.names[i]] += dur
            own[self.names[i]] += dur - covered[i - lo]
        return (
            {k: v / 1e9 for k, v in busy.items()},
            {k: v / 1e9 for k, v in own.items()},
        )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t{self.parents[i]}\n")
