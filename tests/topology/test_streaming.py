"""The catalog's named worlds, and the ``large`` tier's profiles: the
tier scales record volume (VPs and address blocks) without scaling the
AS topology."""

import pytest

from repro.topology.catalog import WORLD_CHOICES, build_world, world_config
from repro.topology.profiles import default_profiles, large_profiles


class TestCatalogStreaming:
    def test_large_is_a_world_choice(self):
        assert "large" in WORLD_CHOICES

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError):
            world_config("galactic")
        with pytest.raises(ValueError):
            build_world("galactic", 0)

    def test_build_world_names_match_kind(self):
        assert build_world("small", 0).name == "small"
        assert build_world("large", 0).name == "large"


class TestLargeProfiles:
    def test_scales_only_vps_and_blocks(self):
        base = default_profiles()
        scaled = large_profiles(vp_scale=6, block_scale=8)
        assert scaled.keys() == base.keys()
        for code, profile in scaled.items():
            reference = base[code]
            assert profile.n_vps == reference.n_vps * 6
            assert profile.address_blocks == min(
                reference.address_blocks * 8, 256
            )
            # the AS topology must stay default-world sized
            assert profile.total_ases() == reference.total_ases()

    def test_blocks_clamped_to_country_pool(self):
        for profile in large_profiles(block_scale=1000).values():
            assert profile.address_blocks <= 256

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            large_profiles(vp_scale=0)

    def test_large_topology_stays_laptop_sized(self):
        # topology cost is default-world scale even though the record
        # stream is ~16x; this is the asymmetry the tier depends on
        default = build_world("default", 0)
        large = build_world("large", 0)
        assert len(large.graph) == len(default.graph)
        large_vps = sum(len(c.vps) for c in large.collectors)
        default_vps = sum(len(c.vps) for c in default.collectors)
        assert large_vps > default_vps * 4
        assert len(large.announced_prefixes()) > len(
            default.announced_prefixes()
        ) * 2
