"""The benchmark's own span recorder.

Spans are recorded around calls into the program's layers from the
benchmark's side; the program's tracer is never switched on. A layer's
self time is its span's duration minus the time its child spans cover,
so the self times of every span under one root add up to that root's
duration less the benchmark's own glue.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    #: clock reading at entry; ``None`` for time credited piecewise
    start: float | None
    dur: float = 0.0
    #: total duration of this span's direct children
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Recorder:
    """Spans kept in memory, in the order they closed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, self._open[-1] if self._open else None, self.clock())
        self._open.append(span)
        try:
            yield span
        finally:
            span.dur = self.clock() - span.start
            self._open.pop()
            self._close(span)

    def credit(self, name: str, seconds: float) -> None:
        """Record ``seconds`` measured piecewise (e.g. inside a lazy
        iterator) as one child span of the currently open span."""
        self._close(Span(name, self._open[-1] if self._open else None, None, seconds))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, items: Iterable, name: str) -> Iterator:
        """Yield from ``items``, crediting the time spent producing each
        item to layer ``name`` and counting the items, once the
        consumer finishes or abandons the iterator."""
        clock = self.clock
        source = iter(items)
        spent = 0.0
        produced = 0
        try:
            while True:
                started = clock()
                try:
                    item = next(source)
                except StopIteration:
                    spent += clock() - started
                    return
                spent += clock() - started
                produced += 1
                yield item
        finally:
            self.credit(name, spent)
            self.count(name, produced)

    def _close(self, span: Span) -> None:
        self.spans.append(span)
        if span.parent is not None:
            span.parent.child += span.dur

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s duration spent inside its descendants."""
        return root.child / root.dur if root.dur else 0.0
