"""Named counters, gauges, and histograms for pipeline accounting.

The :class:`MetricsRegistry` is a flat namespace of instruments keyed
by dotted names (``sanitize.dropped.loop``). Instruments are created on
first use and accumulate for the registry's lifetime; a registry
snapshot is fully deterministic for a fixed seed — only span timings
carry wall-clock noise, never metric values.

The documented metric namespace (see README § Observability):

========================  =========  =======================================
name                      kind       meaning
========================  =========  =======================================
propagate.origins         counter    origins swept per plane
propagate.routes          counter    routes kept at VP ASes
propagate.frontier        histogram  up-phase frontier per origin per level
ribs.vps                  gauge      vantage points feeding the RIB series
ribs.prefixes             gauge      announced prefixes in the series
ribs.paths                gauge      distinct (VP AS, origin) best paths
ribs.unstable_prefixes    gauge      prefixes with churn (missing days)
ribs.overrides            gauge      records overridden by anomaly injection
sanitize.input            counter    announcements entering Table-1 filters
sanitize.accepted         counter    announcements surviving all filters
sanitize.dropped.<cat>    counter    announcements dropped per Table-1 row
geo.prefixes.accepted     counter    prefixes assigned a majority country
geo.prefixes.covered      counter    prefixes covered by more specifics
geo.prefixes.no_consensus counter    prefixes failing the majority threshold
geo.addresses.owned       gauge      owned addresses across surviving prefixes
views.size                histogram  records per constructed view
views.vps                 histogram  distinct VPs per constructed view
ranking.size              histogram  entries per computed ranking
cone.ases                 histogram  ASes with a non-empty cone per run
hegemony.universe         histogram  ASes scored per hegemony run
cti.universe              histogram  ASes scored per CTI run
ahc.origins               histogram  origin ASes contributing per AHC run
========================  =========  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass(slots=True)
class Histogram:
    """Aggregate summary of observed values (count/sum/min/max).

    Individual observations are not retained — the summary is enough
    for stage reports and keeps the registry O(#instruments).
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unbound(name, self._gauges, self._histograms)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unbound(name, self._counters, self._histograms)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unbound(name, self._counters, self._gauges)
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    @staticmethod
    def _check_unbound(name: str, *others: dict) -> None:
        if any(name in table for table in others):
            raise ValueError(f"metric {name!r} already bound to another kind")

    # -- export --------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Counter values, sorted by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """Gauge values, sorted by name."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> dict[str, Histogram]:
        """Histogram instruments, sorted by name."""
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Everything, as plain JSON-ready dicts keyed by metric name."""
        out: dict[str, dict[str, object]] = {}
        for name, value in self.counters().items():
            out[name] = {"kind": "counter", "value": value}
        for name, value in self.gauges().items():
            out[name] = {"kind": "gauge", "value": value}
        for name, hist in self.histograms().items():
            out[name] = {
                "kind": "histogram",
                "count": hist.count,
                "sum": hist.total,
                "min": hist.min if hist.count else None,
                "max": hist.max if hist.count else None,
            }
        return dict(sorted(out.items()))


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def mean(self) -> float:
        return 0.0


class NullMetrics:
    """Registry that hands out shared no-op instruments."""

    __slots__ = ()

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str) -> _NullHistogram:
        return self._histogram

    def counters(self) -> dict[str, int]:
        return {}

    def gauges(self) -> dict[str, float]:
        return {}

    def histograms(self) -> dict[str, Histogram]:
        return {}

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}


#: Shared instances for disabled-mode instrumentation.
NULL_METRICS = NullMetrics()
NULL_HISTOGRAM = NullMetrics._histogram
NULL_COUNTER = NullMetrics._counter
