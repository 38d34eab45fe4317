"""In-memory spans and counters recorded at the benchmark's calls into each layer."""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

_UNTRACED = nullcontext()


class Recorder:
    """Counts work at every layer boundary; records spans only when tracing.

    A span is ``[name, start, end, parent, instance]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and every span of one
    instance carries that instance's id (-1 outside any instance).
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.trace else _UNTRACED

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        part of it covered by its child spans."""
        dur = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * len(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += dur[i] - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans.append([self.name, perf_counter(), 0.0, parent, rec.instance])
        rec._stack.append(self.idx)

    def __exit__(self, *exc):
        self.rec._stack.pop()
        self.rec.spans[self.idx][2] = perf_counter()
