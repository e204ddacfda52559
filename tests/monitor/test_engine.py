"""Engine tests: determinism, resume equivalence, obs wiring, and the
paper's Table-10 Russia acceptance case."""

import json

import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.io.export import export_pathset_jsonl
from repro.monitor import (
    WatchConfig,
    WatchError,
    render_watch,
    resolve_snapshots,
    validate_watch_events,
    watch,
    watch_key,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.checkpoint import Checkpoint
from repro.topology.catalog import build_world

SMALL = ["small@0", "small@1", "small@2"]
CONFIG = WatchConfig(metrics=("AHN", "CCI"), countries=("AU",))


@pytest.fixture(scope="module")
def small_run():
    return watch(resolve_snapshots(SMALL), CONFIG)


class TestStreamShape:
    def test_schema_valid(self, small_run):
        assert validate_watch_events(small_run.events) == []

    def test_event_census(self, small_run):
        kinds = [e["type"] for e in small_run.events]
        assert kinds.count("snapshot") == 3
        assert kinds.count("ranking") == 6  # 2 metrics x 1 country x 3 days
        assert kinds.count("drift") == 4  # 2 metrics x 2 transitions

    def test_snapshot_precedes_its_rankings(self, small_run):
        seen = set()
        for event in small_run.events:
            if event["type"] == "snapshot":
                seen.add(event["snapshot"])
            elif event["type"] == "ranking":
                assert event["snapshot"] in seen

    def test_render_covers_stream(self, small_run):
        text = render_watch(small_run)
        assert "small@0 -> small@1 -> small@2" in text
        assert "tau=" in text and "ndcg=" in text


class TestDeterminism:
    def test_rerun_is_byte_identical(self, small_run):
        again = watch(resolve_snapshots(SMALL), CONFIG)
        assert again.jsonl() == small_run.jsonl()

    def test_tracer_is_observe_only(self, small_run):
        tracer = Tracer()
        traced = watch(resolve_snapshots(SMALL), CONFIG, tracer=tracer)
        assert traced.jsonl() == small_run.jsonl()
        counters = tracer.metrics.counters()
        assert counters["monitor.snapshots.loaded"] == 3
        assert counters["monitor.rankings.computed"] == 6
        assert counters["monitor.events"] == len(small_run.events)
        assert counters["monitor.drifts"] == 4
        span_names = tracer.stage_names()
        for name in ("watch", "watch.snapshot", "watch.ranking", "watch.drift"):
            assert name in span_names


class TestCheckpointResume:
    def _checkpoint(self, path, resume):
        refs = resolve_snapshots(SMALL)
        return refs, Checkpoint.open(
            path, watch_key([r.identity() for r in refs], CONFIG), resume=resume,
        )

    def test_full_resume_recomputes_nothing(self, tmp_path, small_run):
        path = tmp_path / "watch.ck"
        refs, checkpoint = self._checkpoint(path, resume=False)
        first = watch(refs, CONFIG, checkpoint=checkpoint)
        checkpoint.close()
        assert first.jsonl() == small_run.jsonl()

        refs, checkpoint = self._checkpoint(path, resume=True)
        tracer = Tracer()
        second = watch(refs, CONFIG, tracer=tracer, checkpoint=checkpoint)
        checkpoint.close()
        assert second.jsonl() == first.jsonl()
        assert second.resumed_units == 6 and second.computed_units == 0
        # fully-banked snapshots never materialize a pipeline
        assert "monitor.snapshots.loaded" not in tracer.metrics.counters()

    def test_mid_stream_resume_is_byte_identical(self, tmp_path, small_run):
        path = tmp_path / "watch.ck"
        refs, checkpoint = self._checkpoint(path, resume=False)
        watch(refs, CONFIG, checkpoint=checkpoint)
        checkpoint.close()

        # Simulate a crash partway through day 2: keep the header plus
        # the first four completed units, drop the rest.
        lines = path.read_text().splitlines()
        assert len(lines) > 5
        path.write_text("\n".join(lines[:5]) + "\n")

        refs, checkpoint = self._checkpoint(path, resume=True)
        resumed = watch(refs, CONFIG, checkpoint=checkpoint)
        checkpoint.close()
        assert resumed.jsonl() == small_run.jsonl()
        assert resumed.resumed_units > 0
        assert resumed.computed_units > 0

    def test_foreign_key_discards_checkpoint(self, tmp_path, small_run):
        path = tmp_path / "watch.ck"
        path.write_text(json.dumps({
            "type": "header", "format": "repro-checkpoint", "version": 1,
            "key": "watch/other-stream",
        }) + "\n")
        refs = resolve_snapshots(SMALL)
        checkpoint = Checkpoint.open(
            path, watch_key([r.identity() for r in refs], CONFIG), resume=True,
        )
        run = watch(refs, CONFIG, checkpoint=checkpoint)
        checkpoint.close()
        assert run.resumed_units == 0
        assert run.jsonl() == small_run.jsonl()


def write_release(path, seed):
    """A released ``paths.jsonl`` of the small world at ``seed``."""
    result = run_pipeline(build_world("small", seed), PipelineConfig(seed=seed))
    export_pathset_jsonl(result.paths, path)


class TestReleaseResume:
    """A release ref's checkpoint key covers the file's bytes, not only
    its name."""

    CONFIG = WatchConfig(metrics=("AHN", "CCI"), countries=("AU",))

    def _bank(self, path, specs, resume, tracer=NULL_TRACER):
        refs = resolve_snapshots(specs)
        with Checkpoint.open(
            path, watch_key([r.identity() for r in refs], self.CONFIG),
            resume=resume,
        ) as checkpoint:
            return watch(
                refs, self.CONFIG, tracer=tracer, checkpoint=checkpoint
            )

    def test_rewritten_release_recomputes_every_unit(self, tmp_path):
        day1, day2 = tmp_path / "day1.jsonl", tmp_path / "day2.jsonl"
        write_release(day1, 0)
        write_release(day2, 1)
        specs = [str(day1), str(day2)]
        path = tmp_path / "watch.ck"
        banked = self._bank(path, specs, resume=False)
        # the same name, different paths
        write_release(day1, 2)
        resumed = self._bank(path, specs, resume=True)
        fresh = watch(resolve_snapshots(specs), self.CONFIG)
        assert fresh.jsonl() != banked.jsonl()
        assert resumed.resumed_units == 0
        assert resumed.computed_units == banked.computed_units
        assert resumed.jsonl() == fresh.jsonl()

    def test_unchanged_releases_resume_without_loading(self, tmp_path):
        day1, day2 = tmp_path / "day1.jsonl", tmp_path / "day2.jsonl"
        write_release(day1, 0)
        write_release(day2, 1)
        specs = [str(day1), str(day2)]
        path = tmp_path / "watch.ck"
        banked = self._bank(path, specs, resume=False)
        tracer = Tracer()
        resumed = self._bank(path, specs, resume=True, tracer=tracer)
        assert resumed.computed_units == 0
        assert resumed.jsonl() == banked.jsonl()
        assert "monitor.snapshots.loaded" not in tracer.metrics.counters()

    def test_identity(self, tmp_path):
        day = tmp_path / "day1.jsonl"
        day.write_text("one\n")
        world, release = resolve_snapshots(["small@3", str(day)])
        assert world.identity() == "small@3"
        before = release.identity()
        assert before.startswith("day1@sha256:")
        day.write_text("two\n")
        assert release.identity() != before


class TestValidationErrors:
    def test_unknown_metric(self):
        with pytest.raises(WatchError, match="unknown metric"):
            watch(resolve_snapshots(SMALL), WatchConfig(metrics=("NOPE",)))

    def test_empty_metrics(self):
        with pytest.raises(WatchError, match="at least one metric"):
            WatchConfig(metrics=())

    def test_bad_top(self):
        with pytest.raises(WatchError, match="top"):
            WatchConfig(top=0)

    def test_bad_tau_threshold(self):
        with pytest.raises(WatchError, match="tau"):
            WatchConfig(tau_threshold=2.0)

    def test_bad_ndcg_threshold(self):
        with pytest.raises(WatchError, match="ndcg"):
            WatchConfig(ndcg_threshold=-0.5)

    def test_too_few_snapshots(self):
        ref = resolve_snapshots(SMALL)[0]
        with pytest.raises(WatchError, match="at least 2"):
            watch([ref], CONFIG)

    def test_non_replayable_metric_on_release_snapshots(self, tmp_path):
        day = tmp_path / "day1.jsonl"
        day.write_text("")
        refs = resolve_snapshots(["small@0", str(day)])
        with pytest.raises(WatchError, match="cannot be replayed"):
            watch(refs, WatchConfig(metrics=("CTI",)))


class TestWatchKey:
    def test_same_inputs_same_key(self):
        assert watch_key(["a", "b"], CONFIG) == watch_key(["a", "b"], CONFIG)

    def test_stream_and_knobs_in_key(self):
        base = watch_key(["a", "b"], CONFIG)
        assert watch_key(["a", "c"], CONFIG) != base
        assert watch_key(
            ["a", "b"], WatchConfig(metrics=CONFIG.metrics,
                                    countries=CONFIG.countries, top=5),
        ) != base


class TestTable10Russia:
    """The paper's 2021→2023 Russia case (Table 10): GTT (AS3257)
    leaves the CCI top-10, Orange (AS5511) enters."""

    @pytest.fixture(scope="class")
    def russia(self):
        refs = resolve_snapshots(["paper2021", "paper2023"])
        return watch(refs, WatchConfig(metrics=("CCI", "AHI"), countries=("RU",)))

    def test_cci_churn_matches_table_10(self, russia):
        drift = next(d for d in russia.drifts() if d["metric"] == "CCI")
        assert 5511 in drift["entered"]
        assert 3257 in drift["exited"]

    def test_churn_raises_an_alert(self, russia):
        alerts = [a for a in russia.alerts() if a["metric"] == "CCI"]
        assert alerts
        assert any("churn" in r for a in alerts for r in a["reasons"])

    def test_stream_is_schema_valid(self, russia):
        assert validate_watch_events(russia.events) == []
