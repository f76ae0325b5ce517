"""Spans recorded around calls into termcert's modules.

A span has a layer (a termcert module name, or `bench` for the benchmark's
own glue), a name, start and end times, the index of the span that
contains it, and the id of the operation it belongs to.  Every span is
timed whether or not tracing is on, so untraced runs time their calls the
same way; only a tracing tracer keeps the spans, in memory, until `dump`.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "op", "counts", "source", "round")

    def __init__(self, layer: str, name: str, parent: int, op: int, source: str,
                 round_: int):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.source = source
        self.round = round_
        self.counts: Dict[str, int] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._op = 0
        self.source = "workload"  # or "suite:<part>" while the layer suite runs
        self.round = 0  # 0 = set-up, then 1, 2, ... per measured round

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        keep = self.enabled
        parent = self._open[-1] if self._open else -1
        sp = Span(layer, name, parent, self._op, self.source, self.round)
        if keep:
            self.spans.append(sp)
            self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if keep:
                self._open.pop()

    @contextmanager
    def op(self, name: str) -> Iterator[Span]:
        """A root span for one operation; the spans inside share its id."""
        self._op += 1
        with self.span("bench", name) as sp:
            yield sp

    def select(self, layer: str, name: Optional[str] = None,
               where: Callable[[Span], bool] = lambda s: True) -> List[Span]:
        """Spans of a layer (and name) from one source: the workload's when
        it has any, otherwise the first layer-suite source that has some."""
        hits = [s for s in self.spans if s.layer == layer
                and (name is None or s.name == name) and where(s)]
        for source in dict.fromkeys(["workload"] + [s.source for s in hits]):
            own = [s for s in hits if s.source == source]
            if own:
                return own
        return []

    def self_seconds(self, where: Callable[[Span], bool]) -> Dict[str, float]:
        """Per layer: span time minus the time of the spans directly inside."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if where(s):
                out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child[i]
        return out

    def dump(self, path: str) -> None:
        rows = [{"layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "source": s.source, "round": s.round,
                 "counts": s.counts}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def median_seconds(spans: List[Span]) -> Optional[float]:
    return statistics.median(s.seconds for s in spans) if spans else None


def rate(spans: List[Span], count: str) -> Optional[float]:
    """Work per second over the spans: summed count over summed time."""
    busy = sum(s.seconds for s in spans)
    return sum(s.counts.get(count, 0) for s in spans) / busy if busy > 0 else None
