"""Configuration dataclasses: defaults, validation, derived helpers."""

import dataclasses

import pytest

from repro.config import (
    ALL_SCHEMES,
    BranchPredictorConfig,
    CacheAddressing,
    CacheConfig,
    FULL_ASSOC,
    ITLB_SWEEP,
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    default_config,
    itlb_sweep_label,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_default_il1_geometry(self):
        il1 = default_config().mem.il1
        assert il1.num_sets == 256
        assert il1.num_blocks == 256
        assert il1.assoc == 1

    def test_sets_for_two_way(self):
        dl1 = default_config().mem.dl1
        assert dl1.num_sets == 128

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("x", size_bytes=3000, assoc=1, block_bytes=32,
                        hit_latency=1)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig("x", size_bytes=1024, assoc=1, block_bytes=32,
                        hit_latency=0)

    def test_rejects_assoc_block_overflow(self):
        with pytest.raises(ConfigError):
            CacheConfig("x", size_bytes=64, assoc=4, block_bytes=32,
                        hit_latency=1)

    def test_describe_mentions_size_and_ways(self):
        text = default_config().mem.l2.describe()
        assert "1024KB" in text and "2-way" in text


class TestTLBConfig:
    def test_full_assoc_single_set(self):
        cfg = TLBConfig(entries=32, assoc=FULL_ASSOC)
        assert cfg.is_fully_associative
        assert cfg.num_sets == 1

    def test_two_way_sets(self):
        cfg = TLBConfig(entries=16, assoc=2)
        assert not cfg.is_fully_associative
        assert cfg.num_sets == 8

    def test_one_entry_describe(self):
        assert "1 entry" in TLBConfig(entries=1).describe()

    def test_rejects_bad_assoc_multiple(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=10, assoc=4)

    def test_sweep_matches_paper(self):
        labels = [itlb_sweep_label(c) for c in ITLB_SWEEP]
        assert labels == ["1", "8,FA", "16,2w", "32,FA"]


class TestTwoLevel:
    def test_levels_ordered(self):
        with pytest.raises(ConfigError):
            TwoLevelTLBConfig(level1=TLBConfig(entries=32),
                              level2=TLBConfig(entries=8))

    def test_describe_mode(self):
        cfg = TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                                level2=TLBConfig(entries=32))
        assert "serial" in cfg.describe()


class TestPredictorConfig:
    def test_simplescalar_default_ras(self):
        assert BranchPredictorConfig().ras_entries == 8

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(kind="perceptron")

    def test_rejects_non_pow2_btb(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(btb_entries=1000)


class TestMachineConfig:
    def test_table1_values(self):
        cfg = default_config()
        assert cfg.core.ruu_size == 64
        assert cfg.core.lsq_size == 32
        assert cfg.itlb.entries == 32
        assert cfg.dtlb.entries == 128
        assert cfg.mem.page_bytes == 4096
        assert cfg.branch.mispredict_penalty == 7

    def test_default_addressing_is_vipt(self):
        assert default_config().il1_addressing is CacheAddressing.VIPT

    def test_with_il1_addressing(self):
        cfg = default_config().with_il1_addressing(CacheAddressing.PIPT)
        assert cfg.il1_addressing is CacheAddressing.PIPT

    def test_with_itlb_clears_two_level(self):
        two = TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                                level2=TLBConfig(entries=32))
        cfg = default_config().with_two_level_itlb(two)
        assert cfg.itlb_two_level is not None
        cfg2 = cfg.with_itlb(TLBConfig(entries=8))
        assert cfg2.itlb_two_level is None

    def test_with_page_bytes(self):
        cfg = default_config().with_page_bytes(16384)
        assert cfg.mem.page_bytes == 16384
        assert cfg.mem.page_shift == 14

    def test_describe_is_table1_shaped(self):
        text = default_config().describe()
        assert "RUU Size" in text
        assert "Mispred. penalty" in text

    def test_block_larger_than_page_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.with_page_bytes(256).with_il1(
                CacheConfig("iL1", 8192, 1, 512, 1))


class TestSchemeName:
    def test_all_schemes(self):
        assert len(ALL_SCHEMES) == 6

    def test_instrumented_split(self):
        instrumented = {s for s in ALL_SCHEMES
                        if s.needs_instrumented_binary}
        assert instrumented == {SchemeName.SOCA, SchemeName.SOLA,
                                SchemeName.IA}

    def test_addressing_flags(self):
        assert not CacheAddressing.VIVT.index_is_physical
        assert not CacheAddressing.VIVT.tag_is_physical
        assert not CacheAddressing.VIPT.index_is_physical
        assert CacheAddressing.VIPT.tag_is_physical
        assert CacheAddressing.PIPT.index_is_physical
        assert CacheAddressing.PIPT.tag_is_physical
