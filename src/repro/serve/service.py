"""The serving application layer: queries over one loaded world.

:class:`RankingService` is the pure API beneath the HTTP presentation
(:mod:`repro.serve.http`): plain methods taking query arguments and
returning JSON-safe dicts, unit-testable without sockets. The layering
mirrors the domain/application/presentation split the serving ROADMAP
item calls for — the service owns validation, store lookup, on-demand
compute, and telemetry; the HTTP handler owns nothing but parsing and
status codes.

Contract (pinned by ``tests/serve/``):

* the ``text`` field of a :meth:`rank` response is **byte-identical**
  to ``repro-rank rank METRIC COUNTRY`` output for every registered
  metric — whether it was computed on demand or served from the store
  (:func:`~repro.resilience.checkpoint.ranking_to_payload` is
  value-exact, so a round-tripped ranking renders the same bytes);
* a store hit answers without touching the pipeline: no propagation,
  no view construction, no metric math (``serve.store.hits``
  increments, ``PipelineResult`` memos stay cold);
* responses are deterministic under concurrency: N threads issuing
  the same query receive identical bodies (one lock serialises
  queries; the store makes the repeats cheap).

Where work runs: a service built with a :class:`ComputeThread` (the
daemon's, see :func:`repro.serve.cli.run_serve`) hands every
computation — a ranking miss and its banking, a report, a case study,
the precompute sweep — to that one thread, the thread that ran the
pipeline. The calling (connection) thread keeps validation, the store
read, the top-k rendering and the JSON. glibc gives each thread that
allocates its own malloc arena, and memory freed in one arena is not
reused by another thread's allocations: computed on a fresh connection
thread per request, ``serve-medium``'s cold pass left the daemon at a
median 279 MB of peak RSS, against 187 MB computed where the pipeline
ran (DESIGN.md §9). Without a compute thread the service computes on
the calling thread.

Telemetry (all under the obs layer, observe-only):
``serve.requests`` / ``serve.computed`` / ``serve.errors`` counters,
``serve.store.hits`` / ``serve.store.misses`` from the store, and a
``serve.latency_ms`` histogram fed from the request span's duration —
the clock stays inside :mod:`repro.obs`.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, TypeVar

from repro.analysis.case_studies import case_study_table, render_case_study
from repro.analysis.reports import country_report
from repro.core.pipeline import PipelineResult
from repro.core.ranking import Ranking
from repro.core.registry import MetricSpec, metric_names
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.checkpoint import ArtifactStore


T = TypeVar("T")

#: longest a waiting compute thread goes without running Python code
#: (and with it, any signal handler due); as ``serve_forever``'s poll
WAIT_S = 0.5


class QueryError(ValueError):
    """An invalid query: HTTP 400 at the presentation layer, exit 2
    at the CLI."""


class ComputeThread:
    """One thread that runs every computation handed to it: the thread
    that created this object, once it calls :meth:`run`.

    :meth:`call` from any other thread queues the work and waits for
    its answer; a call made on the compute thread itself runs at once.
    Calls are answered one at a time, in the order they were queued.
    """

    def __init__(self) -> None:
        self._owner = threading.get_ident()
        self._work: queue.SimpleQueue[
            tuple[Callable[[], Any], Future] | None
        ] = queue.SimpleQueue()
        self._lock = threading.Lock()
        #: every queued call's future until its caller has read it, so
        #: :meth:`close` can answer one that ``run`` dropped on an
        #: interrupt
        self._pending: set[Future] = set()
        self._closed = False

    def call(self, thunk: Callable[[], T]) -> T:
        """``thunk()``, run on the compute thread; whatever it raises is
        raised here unchanged."""
        if threading.get_ident() == self._owner:
            return thunk()
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("the daemon is shutting down")
            self._pending.add(future)
        self._work.put((thunk, future))
        try:
            return future.result()
        finally:
            with self._lock:
                self._pending.discard(future)

    def run(self) -> None:
        """Answer queued calls on this thread until :meth:`stop`. An
        interrupt (``KeyboardInterrupt``) propagates; :meth:`close`
        then answers the calls left waiting.

        The wait for work wakes every :data:`WAIT_S` seconds: a signal
        that arrives just before the thread blocks is handled only once
        it runs Python code again, so an unbounded wait could hold a
        SIGINT back for good."""
        if threading.get_ident() != self._owner:
            raise RuntimeError("run() belongs to the thread that made it")
        while True:
            try:
                item = self._work.get(timeout=WAIT_S)
            except queue.Empty:
                continue
            if item is None:
                return
            thunk, future = item
            try:
                future.set_result(thunk())
            except Exception as error:  # repro: noqa[R006] — handed to the caller's thread, which re-raises it from future.result()
                future.set_exception(error)

    def stop(self) -> None:
        """Make :meth:`run` return after the call in progress (from any
        thread)."""
        self._work.put(None)

    def close(self) -> None:
        """Refuse further calls and fail every call still unanswered
        with ``RuntimeError``; on the compute thread, after :meth:`run`
        returned."""
        with self._lock:
            self._closed = True
            unanswered = [f for f in self._pending if not f.done()]
        for future in unanswered:
            future.set_exception(RuntimeError("the daemon is shutting down"))


class RankingService:
    """Answers ranking/report/case-study queries over one pipeline run.

    The service never recomputes the world: the
    :class:`~repro.core.pipeline.PipelineResult` is loaded once (at
    daemon startup) and every query is a store lookup first, an
    on-demand registry-dispatched compute on miss. Repeated queries
    share the result's path index and cross-metric
    :class:`~repro.perf.cache.ViewComputation` caches, so even misses
    amortise across metrics on the same view.

    ``compute`` is the thread every computation runs on (the module
    docstring says why); ``None`` computes on the calling thread.
    """

    def __init__(
        self,
        result: PipelineResult,
        store: ArtifactStore,
        tracer: AnyTracer = NULL_TRACER,
        compute: ComputeThread | None = None,
    ) -> None:
        self.result = result
        self.store = store
        self.fingerprint = result.world.fingerprint()
        self._tracer = tracer
        self._compute = compute
        self._lock = threading.Lock()
        self.requests = 0

    # -- queries -------------------------------------------------------------

    def rank(
        self, metric: str, country: str | None = None, k: int = 10
    ) -> dict:
        """One metric's top-k, store-first.

        ``source`` in the response says where the ranking came from:
        ``"store"`` (warm hit) or ``"computed"`` (miss, computed
        through the registry and banked).
        """
        with self._lock:
            return self._observed(
                "rank", lambda: self._rank(metric, country, k)
            )

    def report(self, country: str | None) -> dict:
        """The full markdown country profile."""
        with self._lock:
            return self._observed("report", lambda: self._report(country))

    def case_study(self, country: str | None) -> dict:
        """The Table-5-style four-metric case-study table."""
        with self._lock:
            return self._observed(
                "case-study", lambda: self._case_study(country)
            )

    def health(self) -> dict:
        """Liveness plus store/world identity (cheap: no compute)."""
        with self._lock:
            return self._observed("healthz", self._health)

    def precompute(
        self,
        metrics: tuple[str, ...] | list[str] | None = None,
        countries: tuple[str, ...] | list[str] | None = None,
    ) -> int:
        """Bank a full sweep into the store (the warm-start path a
        daemon runs before binding); units the store already banks are
        read back, not recomputed. Returns the number of units banked.
        Counters are untouched — precompute is provisioning, not
        traffic."""
        with self._lock:
            return len(self._computed(
                lambda: self.result.rank_all(metrics, countries, store=self.store)
            ))

    # -- internals -----------------------------------------------------------

    def _computed(self, thunk: Callable[[], T]) -> T:
        """``thunk()`` on the compute thread (the caller's without
        one)."""
        if self._compute is None:
            return thunk()
        return self._compute.call(thunk)

    def _observed(self, endpoint: str, thunk: Callable[[], dict]) -> dict:
        """Run one query under the request span/counters; the latency
        histogram is fed from the span's own duration so the service
        never reads a clock itself.

        A request that opened no span of its own (a store hit, a health
        check, a rejected query) leaves no span record behind: the
        request counters count it, the latency histogram too when it
        succeeds, and the daemon's span list grows only with the work it
        computes, not with its traffic."""
        tracer = self._tracer
        self.requests += 1
        tracer.metrics.counter("serve.requests").inc()
        tracer.metrics.counter(f"serve.requests.{endpoint}").inc()
        before = len(tracer.spans)
        try:
            with tracer.span("serve.request", endpoint=endpoint):
                payload = thunk()
        except QueryError:
            tracer.metrics.counter("serve.errors").inc()
            raise
        finally:
            request = tracer.spans[-1] if tracer.enabled else None
            if len(tracer.spans) == before + 1:
                del tracer.spans[-1]
        if request is not None:
            tracer.metrics.histogram("serve.latency_ms").observe(
                request.dur_s * 1000.0
            )
        return payload

    def _rank(self, metric: str, country: str | None, k: int) -> dict:
        try:
            spec, code = self.result.unit(metric, country)
        except ValueError as error:
            raise QueryError(str(error)) from None
        if k < 1:
            raise QueryError(f"k must be >= 1 (got {k})")
        ranking = self.store.get(spec, code)
        source = "store"
        if ranking is None:
            ranking = self._computed(lambda: self._bank(spec, code))
            source = "computed"
        return {
            "metric": spec.name,
            "country": code,
            "k": k,
            "source": source,
            "label": spec.label_for(code),
            "entries": [
                {
                    "rank": entry.rank,
                    "asn": entry.asn,
                    "value": entry.value,
                    "share": entry.share,
                    "name": self.result.as_name(entry.asn),
                }
                for entry in ranking.top(k)
            ],
            "text": ranking.render(k, self.result.as_name),
        }

    def _bank(self, spec: MetricSpec, code: str | None) -> Ranking:
        """Compute one missed unit and bank it."""
        ranking = self.result.ranking(spec.name, code)
        self.store.put(spec, code, ranking)
        self._tracer.metrics.counter("serve.computed").inc()
        return ranking

    def _report(self, country: str | None) -> dict:
        code = self._known_country(country)
        return self._computed(lambda: {
            "country": code,
            "markdown": country_report(self.result, code).markdown,
        })

    def _case_study(self, country: str | None) -> dict:
        code = self._known_country(country)
        return self._computed(lambda: self._case_study_payload(code))

    def _case_study_payload(self, code: str) -> dict:
        rows = case_study_table(self.result, code)
        return {
            "country": code,
            "rows": [
                {
                    "asn": row.asn,
                    "name": row.name,
                    "registry_country": row.registry_country,
                    "ccg_rank": row.ccg_rank,
                    "cells": {
                        metric: [rank, share]
                        for metric, (rank, share) in row.cells.items()
                    },
                }
                for row in rows
            ],
            "text": render_case_study(rows, code),
        }

    def _health(self) -> dict:
        return {
            "status": "ok",
            "world": self.result.world.name,
            "fingerprint": self.fingerprint,
            "records": len(self.result.paths.records),
            "metrics": list(metric_names()),
            "requests": self.requests,
            "store": {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "entries": len(self.store),
                "persisted": self.store.persisted,
            },
        }

    # -- validation ----------------------------------------------------------

    def _known_country(self, country: str | None) -> str:
        if country is None:
            raise QueryError("this query requires a country code")
        try:
            return self.result.country_code(country)
        except ValueError as error:
            raise QueryError(str(error)) from None
