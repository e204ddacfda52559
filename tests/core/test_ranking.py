"""Tests for the Ranking container."""

import pytest

from repro.core.ranking import RankEntry, Ranking


class TestFromScores:
    def test_descending_order(self):
        ranking = Ranking.from_scores("m", {1: 5.0, 2: 9.0, 3: 7.0})
        assert ranking.top_asns(3) == [2, 3, 1]
        assert [entry.rank for entry in ranking] == [1, 2, 3]

    def test_tie_breaks_on_asn(self):
        ranking = Ranking.from_scores("m", {9: 5.0, 3: 5.0, 7: 5.0})
        assert ranking.top_asns(3) == [3, 7, 9]

    def test_shares_attached(self):
        ranking = Ranking.from_scores("m", {1: 5.0}, shares={1: 0.42})
        assert ranking.share_of(1) == 0.42
        assert ranking.entries[0].share_pct() == pytest.approx(42.0)

    def test_empty(self):
        ranking = Ranking.from_scores("m", {})
        assert len(ranking) == 0
        assert ranking.top() == []


class TestLookups:
    @pytest.fixture
    def ranking(self):
        return Ranking.from_scores("m", {1: 5.0, 2: 9.0}, country="AU")

    def test_rank_of(self, ranking):
        assert ranking.rank_of(2) == 1
        assert ranking.rank_of(1) == 2
        assert ranking.rank_of(99) is None

    def test_value_of(self, ranking):
        assert ranking.value_of(2) == 9.0
        assert ranking.value_of(99) == 0.0

    def test_share_of_missing(self, ranking):
        assert ranking.share_of(2) is None

    def test_top_k(self, ranking):
        assert len(ranking.top(1)) == 1
        assert ranking.top(10) == ranking.entries


class TestPresentation:
    def test_render_contains_entries(self):
        ranking = Ranking.from_scores(
            "AHN:AU", {1221: 0.23, 4826: 0.16},
            shares={1221: 0.23, 4826: 0.16}, country="AU",
        )
        text = ranking.render(2, name_of=lambda asn: f"name{asn}")
        assert "AHN:AU" in text
        assert "1221" in text and "name1221" in text
        assert "23.0%" in text

    def test_render_no_duplicate_country(self):
        ranking = Ranking.from_scores("AHN:AU", {1: 1.0}, country="AU")
        assert "(AU)" not in ranking.render(1)


class TestEquality:
    def test_value_equality_across_instances(self):
        a = Ranking.from_scores("AHN", {1: 3.0, 2: 2.0}, country="AU")
        b = Ranking.from_scores("AHN", {1: 3.0, 2: 2.0}, country="AU")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_metric_country_and_entries_all_matter(self):
        base = Ranking.from_scores("AHN", {1: 3.0, 2: 2.0}, country="AU")
        assert base != Ranking.from_scores("CCN", {1: 3.0, 2: 2.0}, country="AU")
        assert base != Ranking.from_scores("AHN", {1: 3.0, 2: 2.0}, country="US")
        assert base != Ranking.from_scores("AHN", {1: 3.0, 2: 1.0}, country="AU")

    def test_other_types_unequal(self):
        assert Ranking.from_scores("AHN", {}) != "AHN"


class TestRankEntry:
    def test_share_pct_none(self):
        assert RankEntry(1, 42, 1.0).share_pct() == 0.0
