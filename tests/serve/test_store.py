"""Tests for the content-keyed artifact store and world fingerprints.

The coherence satellite: the store must key on world *content*, never
the catalog name — a regenerated ``name@seed`` world whose content
changed misses the cache — and on the semantic config knobs only, so
the ignored ``workers`` never causes a miss.
"""

from repro.core.pipeline import PipelineConfig
from repro.core.registry import get_spec
from repro.serve import ArtifactStore, store_key
from repro.topology.catalog import build_world


class TestFingerprint:
    def test_deterministic_across_rebuilds(self):
        assert (
            build_world("small", 0).fingerprint()
            == build_world("small", 0).fingerprint()
        )

    def test_tracks_content_not_name(self):
        """Two worlds under the same catalog name but different content
        (a regenerated name@seed with a new seed) fingerprint apart."""
        a = build_world("small", 0)
        b = build_world("small", 1)
        assert a.name == b.name == "small"
        assert a.fingerprint() != b.fingerprint()

    def test_ignores_name(self):
        a = build_world("small", 0)
        b = build_world("small", 0)
        b.name = "renamed"
        assert a.fingerprint() == b.fingerprint()


class TestStoreKey:
    def test_excludes_workers(self):
        world = build_world("small", 0)
        assert store_key(world, PipelineConfig(seed=0)) == store_key(
            world, PipelineConfig(seed=0, workers=8)
        )

    def test_tracks_semantic_knobs(self):
        world = build_world("small", 0)
        assert store_key(world, PipelineConfig(seed=0)) != store_key(
            world, PipelineConfig(seed=0, trim=0.2)
        )

    def test_tracks_world_content(self):
        config = PipelineConfig(seed=0)
        assert store_key(build_world("small", 0), config) != store_key(
            build_world("small", 1), config
        )


def make_ranking(small_result):
    return small_result.ranking("AHN", "AU")


class TestArtifactStore:
    def test_miss_then_hit(self, small_result):
        spec = get_spec("AHN")
        store = ArtifactStore("key-a")
        assert store.get(spec, "AU") is None
        assert (store.hits, store.misses) == (0, 1)
        ranking = make_ranking(small_result)
        store.put(spec, "AU", ranking)
        assert store.get(spec, "AU") == ranking
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1

    def test_units_are_per_metric_and_country(self, small_result):
        store = ArtifactStore("key-a")
        store.put(get_spec("AHN"), "AU", make_ranking(small_result))
        assert store.get(get_spec("AHN"), "US") is None
        assert store.get(get_spec("CCI"), "AU") is None

    def test_persists_and_resumes(self, small_result, tmp_path):
        path = tmp_path / "store.ck"
        ranking = make_ranking(small_result)
        with ArtifactStore("key-a", path=path) as store:
            store.put(get_spec("AHN"), "AU", ranking)
            assert store.persisted == 0
        with ArtifactStore("key-a", path=path) as reopened:
            assert reopened.persisted == 1
            assert reopened.get(get_spec("AHN"), "AU") == ranking
            assert reopened.hits == 1

    def test_resume_false_starts_cold(self, small_result, tmp_path):
        path = tmp_path / "store.ck"
        with ArtifactStore("key-a", path=path) as store:
            store.put(get_spec("AHN"), "AU", make_ranking(small_result))
        with ArtifactStore("key-a", path=path, resume=False) as cold:
            assert cold.persisted == 0
            assert cold.get(get_spec("AHN"), "AU") is None

    def test_regenerated_world_misses_cache(self, small_result, tmp_path):
        """The staleness bug: a store warmed under one world's key must
        not serve a regenerated same-name world with different content."""
        path = tmp_path / "store.ck"
        config = PipelineConfig(seed=0)
        old_key = store_key(build_world("small", 0), config)
        with ArtifactStore(old_key, path=path) as store:
            store.put(get_spec("AHN"), "AU", make_ranking(small_result))
        new_key = store_key(build_world("small", 1), config)
        with ArtifactStore(new_key, path=path) as fresh:
            assert fresh.persisted == 0
            assert fresh.get(get_spec("AHN"), "AU") is None

    def test_put_is_idempotent_on_disk(self, small_result, tmp_path):
        path = tmp_path / "store.ck"
        ranking = make_ranking(small_result)
        with ArtifactStore("key-a", path=path) as store:
            store.put(get_spec("AHN"), "AU", ranking)
            store.put(get_spec("AHN"), "AU", ranking)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one unit, not two
