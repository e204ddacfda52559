"""Tests for the serving application layer (no sockets).

The load-bearing contract: a ``/rank`` response's ``text`` is
byte-identical to ``repro-rank rank`` output for *every* registry
metric, warm hits never touch the pipeline, and concurrent identical
queries return identical bodies.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import iter_specs
from repro.obs.export import stage_report
from repro.obs.trace import Tracer
from repro.serve import ArtifactStore, QueryError, RankingService
from repro.topology.catalog import build_world


@pytest.fixture()
def service(small_result):
    return RankingService(small_result, ArtifactStore("key-test"))


class TestRank:
    def test_miss_then_hit(self, service):
        first = service.rank("AHN", "AU")
        assert first["source"] == "computed"
        second = service.rank("AHN", "AU")
        assert second["source"] == "store"
        first.pop("source"), second.pop("source")
        assert first == second

    def test_accepts_lowercase(self, service):
        assert service.rank("ahn", "au")["country"] == "AU"

    def test_global_metric_needs_no_country(self, service):
        payload = service.rank("CCG")
        assert payload["country"] is None
        assert payload["entries"]

    def test_warm_hit_never_recomputes(self, service, monkeypatch):
        service.rank("AHN", "AU")

        def boom(*args, **kwargs):
            raise AssertionError("warm hit touched the pipeline")

        monkeypatch.setattr(service.result, "ranking", boom)
        payload = service.rank("AHN", "AU")
        assert payload["source"] == "store"
        assert service.store.hits == 1

    def test_text_matches_cli_for_every_metric(self, service, capsys):
        """Byte-for-byte parity with ``repro-rank rank`` across the
        whole registry — cold (computed) and warm (store) alike."""
        for spec in iter_specs():
            args = ["--world", "small", "rank", spec.name]
            query = [spec.name]
            if spec.needs_country:
                args.append("AU")
                query.append("AU")
            assert main(args) == 0
            expected = capsys.readouterr().out
            cold = service.rank(*query)
            warm = service.rank(*query)
            assert cold["source"] == "computed", spec.name
            assert warm["source"] == "store", spec.name
            assert cold["text"] + "\n" == expected, spec.name
            assert warm["text"] + "\n" == expected, spec.name

    def test_store_roundtrip_preserves_bytes(self, small_result, tmp_path):
        """A ranking served from the *persisted* store renders the same
        bytes as the freshly computed one (value-exact payloads)."""
        path = tmp_path / "store.ck"
        store = ArtifactStore("key-p", path=path)
        service = RankingService(small_result, store)
        cold = service.rank("AHN", "AU")
        store.close()
        with ArtifactStore("key-p", path=path) as store:
            warm = RankingService(small_result, store).rank("AHN", "AU")
        assert warm["source"] == "store"
        assert warm["text"] == cold["text"]

    def test_validation(self, service):
        with pytest.raises(QueryError, match="unknown metric"):
            service.rank("NOPE", "AU")
        with pytest.raises(QueryError, match="unknown country"):
            service.rank("AHN", "ZZ")
        with pytest.raises(QueryError, match="requires a country"):
            service.rank("AHN")
        with pytest.raises(QueryError, match="k must be >= 1"):
            service.rank("AHN", "AU", k=0)


class TestOtherEndpoints:
    def test_report(self, service):
        payload = service.report("AU")
        assert payload["country"] == "AU"
        assert "# Internet profile: AU" in payload["markdown"]

    def test_case_study(self, service):
        payload = service.case_study("au")
        assert payload["rows"]
        assert "== Top ASes per metric, AU ==" in payload["text"]

    def test_report_validation(self, service):
        with pytest.raises(QueryError, match="requires a country"):
            service.report(None)
        with pytest.raises(QueryError, match="unknown country"):
            service.case_study("ZZ")

    def test_health(self, service):
        payload = service.health()
        assert payload["status"] == "ok"
        assert payload["world"] == "small"
        assert payload["fingerprint"] == service.fingerprint
        assert payload["store"]["entries"] == 0


class TestPrecompute:
    def test_banks_full_sweep(self, service):
        banked = service.precompute(("AHN", "CCI"), ("AU",))
        assert banked == 2
        assert service.rank("AHN", "AU")["source"] == "store"
        assert service.rank("CCI", "AU")["source"] == "store"

    def test_counters_untouched(self, service):
        service.precompute(("AHN",), ("AU",))
        assert (service.store.hits, service.store.misses) == (0, 0)


class TestConcurrency:
    def test_identical_bodies_across_threads(self, small_result):
        service = RankingService(small_result, ArtifactStore("key-c"))
        bodies: list[str] = []
        errors: list[BaseException] = []

        def query():
            try:
                payload = service.rank("AHN", "AU")
                payload.pop("source")  # first caller computes, rest hit
                bodies.append(json.dumps(payload, sort_keys=True))
            except BaseException as error:  # repro: noqa[R006] — collected and re-asserted on the main thread; a raise here would vanish with the worker thread
                errors.append(error)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(bodies)) == 1
        assert service.requests == 8


class TestSpans:
    """The daemon's tracer lives as long as the process: a request that
    computes nothing must not grow its span list."""

    @pytest.fixture()
    def traced(self):
        tracer = Tracer()
        result = run_pipeline(build_world("small", 0), PipelineConfig(seed=0), tracer)
        return RankingService(result, ArtifactStore("key-spans"), tracer), tracer

    def test_warm_hits_leave_the_span_list_unchanged(self, traced):
        service, tracer = traced
        started = len(tracer.spans)
        assert service.rank("AHN", "AU")["source"] == "computed"
        computed = tracer.spans[started:]
        # the computed unit keeps its request span and the spans under it
        assert computed[-1].name == "serve.request"
        assert any(record.name == "hegemony" for record in computed)
        settled = len(tracer.spans)
        for _ in range(200):
            assert service.rank("AHN", "AU")["source"] == "store"
        service.health()
        with pytest.raises(QueryError):
            service.rank("NOPE", "AU")
        assert len(tracer.spans) == settled
        assert tracer.metrics.counters()["serve.requests"] == 203
        assert tracer.metrics.histograms()["serve.latency_ms"].count == 202

    def test_report_keeps_the_pipeline_after_a_cold_pass(self, traced):
        """A cold pass adds request spans whose peaks are the highest;
        the memory section still shows the daemon after its pipeline,
        and every line of it in MiB."""
        service, tracer = traced
        for spec in iter_specs():
            codes = service.result.countries_with_national_view()
            for code in codes if spec.needs_country else [None]:
                service.rank(spec.name, code)
        service.report("NL")
        service.case_study("NL")
        report = stage_report(tracer, title="serve stage report")
        section = report.split("-- memory (process peak RSS) --\n")[1]
        lines = section.split("\n\n")[0].splitlines()
        assert any(line.split()[:2] == ["at", "pipeline"] for line in lines)
        assert all(line.endswith("MiB") for line in lines)
        peaks = [float(line.split()[-1][:-3]) for line in lines[1:]]
        assert peaks == sorted(peaks)
