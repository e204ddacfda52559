"""Unit tests for the metric registry — the single source of truth."""

import pytest

from repro.core.pipeline import ALL_METRICS, COUNTRY_METRICS, GLOBAL_METRICS
from repro.core.registry import (
    METRICS,
    VIEW_KINDS,
    MetricSpec,
    canonical_name,
    get_spec,
    iter_specs,
    maybe_spec,
    metric_names,
    normalize_country,
    paper_metrics,
    register,
    specs,
)


class TestLookup:
    def test_get_spec_canonicalises_case(self):
        assert get_spec("ahn") is get_spec("AHN")
        assert get_spec(" cci ").name == "CCI"

    def test_get_spec_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_spec("NOPE")

    def test_maybe_spec(self):
        assert maybe_spec("AHG").name == "AHG"
        assert maybe_spec("nope") is None

    def test_canonical_name(self):
        assert canonical_name(" ahc-a ") == "AHC-A"

    def test_iter_specs_matches_registry_order(self):
        assert tuple(spec.name for spec in iter_specs()) == tuple(METRICS)


class TestCatalog:
    def test_original_ten_metrics_lead_the_catalog(self):
        assert ALL_METRICS[:10] == (
            "CCI", "CCN", "AHI", "AHN", "AHC", "CTI", "CCO", "AHO",
            "CCG", "AHG",
        )

    def test_country_and_global_partition(self):
        assert set(COUNTRY_METRICS) | set(GLOBAL_METRICS) == set(ALL_METRICS)
        assert not set(COUNTRY_METRICS) & set(GLOBAL_METRICS)
        assert "AHC" in COUNTRY_METRICS  # global view, yet country-scoped
        assert GLOBAL_METRICS[:2] == ("CCG", "AHG")

    def test_paper_metrics(self):
        assert paper_metrics() == ("CCI", "CCN", "AHI", "AHN")
        assert paper_metrics("national") == ("CCN", "AHN")
        assert paper_metrics("international") == ("CCI", "AHI")

    def test_view_kinds_are_valid(self):
        for spec in iter_specs():
            assert spec.view_kind in VIEW_KINDS

    def test_replayability(self):
        assert not get_spec("AHC").replayable
        assert not get_spec("CTI").replayable
        assert not get_spec("AHC-A").replayable
        for name in ("CCI", "CCN", "AHI", "AHN", "CCO", "AHO", "CCG", "AHG"):
            assert get_spec(name).replayable

    def test_variants_are_data(self):
        assert get_spec("AHG-P").weighting == "prefixes"
        assert get_spec("AHC-A").weighting == "addresses"
        assert get_spec("AHG-P").family == get_spec("AHG").family
        assert get_spec("AHC-A").family == get_spec("AHC").family
        for name in ("AHG-P", "AHI-P", "AHN-P", "AHC-A"):
            assert "variant" in get_spec(name).tags

    def test_filters(self):
        assert metric_names(tag="baseline", needs_country=True) == ("AHC", "CTI")
        assert metric_names(tag="baseline", needs_country=False) == ("CCG", "AHG")
        assert metric_names(tag="outbound") == ("CCO", "AHO")
        for spec in specs(replayable=False):
            assert spec.name in ("AHC", "CTI", "AHC-A")

    def test_ah_metrics_never_need_an_oracle(self):
        for spec in iter_specs():
            assert spec.needs_oracle == (spec.family in ("cone", "cti"))


class TestSpecBehaviour:
    def test_label_for(self):
        assert get_spec("AHN").label_for("AU") == "AHN:AU"
        assert get_spec("CCG").label_for(None) == "CCG"
        assert get_spec("AHC-A").label_for("US") == "AHC-A:US"

    def test_unit_key(self):
        assert get_spec("CCI").unit_key("AU") == "ranking:CCI:AU"
        assert get_spec("AHG").unit_key(None) == "ranking:AHG:<global>"

    def test_require_country(self):
        assert get_spec("AHN").require_country("AU") == "AU"
        assert get_spec("CCG").require_country("AU") is None
        with pytest.raises(ValueError, match="requires a country"):
            get_spec("AHN").require_country(None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get_spec("CCI"))

    def test_non_canonical_name_rejected(self):
        spec = get_spec("CCI")
        with pytest.raises(ValueError, match="canonical"):
            MetricSpec(
                name="cci2", family=spec.family, view_kind=spec.view_kind,
                needs_country=True, replayable=True, label=spec.label,
                description="x",
            )

    def test_unknown_view_kind_rejected(self):
        spec = get_spec("CCI")
        with pytest.raises(ValueError, match="view kind"):
            MetricSpec(
                name="CCI2", family=spec.family, view_kind="sideways",
                needs_country=True, replayable=True, label=spec.label,
                description="x",
            )


    def test_unknown_family_rejected(self):
        spec = get_spec("CCI")
        with pytest.raises(ValueError, match="unknown metric family"):
            MetricSpec(
                name="CCI2", family="astrology", view_kind=spec.view_kind,
                needs_country=True, replayable=True, label=spec.label,
                description="x",
            )


class TestNormalizeCountry:
    def test_upper_and_strip(self):
        assert normalize_country("au") == "AU"
        assert normalize_country(" us ") == "US"
        assert normalize_country("JP") == "JP"

    def test_none_passes_through(self):
        assert normalize_country(None) is None
