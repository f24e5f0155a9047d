"""In-memory span tracer that instruments a library from outside.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1.  Spans are recorded by wrapping
functions that live as module attributes, so callers that look a function up
through its module (`nn.forward_collect(...)`, or a bare global inside the
defining module) hit the wrapper while it is installed.  Nothing inside the
library changes, and `patched` puts every original attribute back on exit.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Set `(module, attr, value)` triples for the block, then restore them.

    Originals are restored in reverse order, also when the block raises, so
    stacked wrappers unwind correctly.
    """
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Collects spans plus per-span notes; writes them out when asked."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, dict] = {}
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, note=None):
        """Return `fn` wrapped in a span called `name`.

        `note(span, args, kwargs, result)` may return a dict stored as the
        span's notes; it runs after the span has closed, so its cost is not
        charged to the span.
        """
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if note is not None:
                extra = note(idx, args, kwargs, result)
                if extra:
                    self.notes[idx] = extra
            return result

        return traced

    def instrument(self, targets):
        """Context manager wrapping each `(module, attr, span_name, note)`."""
        return patched([(module, attr, self.wrap(name, getattr(module, attr), note))
                        for module, attr, name, note in targets])

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of child intervals, clipped to the parent."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
