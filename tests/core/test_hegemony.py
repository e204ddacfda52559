"""Hegemony tests, including the paper's Figure 2 trimming example."""

import pytest

from repro.bgp.collectors import VantagePoint
from repro.core.hegemony import (
    hegemony_ranking,
    hegemony_scores,
    local_hegemony,
    per_vp_scores,
    trimmed_mean,
    trimmed_scores,
    validate_trim,
)
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def record(vp_ip, path, prefix, addresses=256, country="US"):
    return PathRecord(
        vp=VantagePoint(vp_ip, int(path.split()[0]), "c"),
        vp_country=country,
        prefix=Prefix.parse(prefix),
        prefix_country=country,
        path=ASPath.parse(path),
        addresses=addresses,
    )


class TestTrimmedMean:
    def test_empty(self):
        assert trimmed_mean([], 0.1) == 0.0

    def test_single_value_kept(self):
        assert trimmed_mean([0.7], 0.1) == 0.7

    def test_two_values_kept(self):
        assert trimmed_mean([0.2, 0.8], 0.1) == pytest.approx(0.5)

    def test_three_values_keep_median(self):
        """The paper's Figure 2: scores 1, 0.67, 0.33 -> 0.67 survives."""
        assert trimmed_mean([1.0, 0.67, 0.33], 0.1) == pytest.approx(0.67)

    def test_large_sample_trims_tails(self):
        values = [0.0] * 2 + [0.5] * 16 + [1.0] * 2
        assert trimmed_mean(values, 0.1) == pytest.approx(0.5)

    def test_order_invariant(self):
        assert trimmed_mean([3.0, 1.0, 2.0], 0.1) == trimmed_mean([1.0, 2.0, 3.0], 0.1)


class TestHegemonyScores:
    def test_figure2_example(self):
        """Three VPs score AS 1 at 1.0, 2/3 and 1/3; hegemony = 2/3."""
        records = [
            # VP a: all 3 paths contain AS 1.
            record("10.0.0.1", "1 8", "10.8.0.0/24"),
            record("10.0.0.1", "1 9", "10.9.0.0/24"),
            record("10.0.0.1", "1 7 6", "10.6.0.0/24"),
            # VP b: 2 of 3 paths contain AS 1.
            record("10.0.0.2", "2 1 8", "10.8.0.0/24"),
            record("10.0.0.2", "2 1 9", "10.9.0.0/24"),
            record("10.0.0.2", "2 6", "10.6.0.0/24"),
            # VP c: 1 of 3 paths contains AS 1.
            record("10.0.0.3", "3 1 8", "10.8.0.0/24"),
            record("10.0.0.3", "3 9", "10.9.0.0/24"),
            record("10.0.0.3", "3 6", "10.6.0.0/24"),
        ]
        scores = hegemony_scores(records)
        assert scores[1] == pytest.approx(2 / 3)

    def test_address_weighting(self):
        # One VP; AS 5 is on the path carrying 3/4 of the addresses.
        records = [
            record("10.0.0.1", "9 5 8", "10.8.0.0/22", addresses=768),
            record("10.0.0.1", "9 7", "10.7.0.0/24", addresses=256),
        ]
        scores = hegemony_scores(records)
        assert scores[5] == pytest.approx(0.75)
        assert scores[9] == pytest.approx(1.0)

    def test_origin_counted(self):
        records = [record("10.0.0.1", "9 5 8", "10.8.0.0/24")]
        assert hegemony_scores(records)[8] == pytest.approx(1.0)

    def test_unseen_vp_contributes_zero(self):
        # Five VPs see the prefix set, only one path crosses AS 5: with
        # trimming, AS 5's zeros dominate.
        records = [
            record(f"10.0.0.{i}", f"{10 + i} 8", "10.8.0.0/24") for i in range(1, 5)
        ]
        records.append(record("10.0.0.9", "19 5 8", "10.8.0.0/24"))
        scores = hegemony_scores(records)
        assert scores[5] < 0.5

    def test_zero_weight_records_ignored(self):
        records = [record("10.0.0.1", "9 8", "10.8.0.0/24", addresses=0)]
        assert hegemony_scores(records) == {}

    def test_trim_validated(self):
        with pytest.raises(ValueError):
            hegemony_scores([], trim=0.6)

    def test_prefix_weighting_counts_paths_equally(self):
        records = [
            record("10.0.0.1", "9 5 8", "10.8.0.0/22", addresses=768),
            record("10.0.0.1", "9 7", "10.7.0.0/24", addresses=256),
        ]
        by_addresses = hegemony_scores(records, weighting="addresses")
        by_prefixes = hegemony_scores(records, weighting="prefixes")
        assert by_addresses[5] == pytest.approx(0.75)
        assert by_prefixes[5] == pytest.approx(0.5)

    def test_unknown_weighting_rejected(self):
        records = [record("10.0.0.1", "9 8", "10.8.0.0/24")]
        with pytest.raises(ValueError):
            hegemony_scores(records, weighting="users")


class TestTrimEquivalence:
    """Out-of-range trims are rejected the same way at every entry point."""

    def build_table(self):
        records = [
            record(f"10.0.{j}.{i}", f"{20 + i} {4 + (i + j) % 3} 8",
                   f"10.{j}.{i}.0/24", addresses=128 * (1 + (i * j) % 5))
            for j in range(3) for i in range(1, 8)
        ]
        return per_vp_scores(records)

    @pytest.mark.parametrize("trim", [-0.01, 0.5, 0.6, 1.0])
    def test_both_paths_reject_identically(self, trim):
        per_vp, universe = self.build_table()
        with pytest.raises(ValueError, match="trim out of range"):
            trimmed_scores(per_vp, universe, trim)

    def test_validate_trim_accepts_valid_range(self):
        assert validate_trim(0.0) == 0.0
        assert validate_trim(0.49) == 0.49

    def test_ranking_entry_points_reject(self):
        records = (record("10.0.0.1", "9 5 8", "10.8.0.0/24"),)
        view = View.of("t", "AU", records)
        with pytest.raises(ValueError, match="trim out of range"):
            hegemony_ranking(view, trim=0.5)

    def test_cti_and_ahc_entry_points_reject(self):
        from repro.core.ahc import ahc_scores
        from repro.core.cti import cti_scores
        from repro.relationships.inference import infer_relationships

        records = [record("10.0.0.1", "9 5 8", "10.8.0.0/24")]
        oracle = infer_relationships(r.path for r in records)
        with pytest.raises(ValueError, match="trim out of range"):
            cti_scores(records, oracle, 256, trim=0.5)
        with pytest.raises(ValueError, match="trim out of range"):
            ahc_scores(records, [8], trim=-0.1)


class TestLocalHegemony:
    def test_restricts_to_origin(self):
        records = [
            record("10.0.0.1", "9 5 8", "10.8.0.0/24"),
            record("10.0.0.1", "9 7 6", "10.6.0.0/24"),
        ]
        scores = local_hegemony(records, origin=8)
        assert scores[5] == pytest.approx(1.0)
        assert 7 not in scores


class TestHegemonyRanking:
    def test_ranking_shares_are_scores(self):
        records = (
            record("10.0.0.1", "9 5 8", "10.8.0.0/24"),
            record("10.0.0.1", "9 7", "10.7.0.0/24"),
        )
        ranking = hegemony_ranking(View.of("t", "AU", records))
        assert ranking.metric == "AH:AU"
        assert ranking.share_of(9) == pytest.approx(ranking.value_of(9))
        assert ranking.rank_of(9) == 1
