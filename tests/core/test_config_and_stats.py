"""Tests for MachineConfig (Table 2), ThreadContext, and SystemStats."""

import pytest

from repro.coherence.cache import VersionedCache
from repro.coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.coherence.memory import MainMemory
from repro.core import MachineConfig, SystemStats, ThreadContext, table2_config
from repro.core.config import small_test_config
from repro.topology import TopologySpec


class TestTable2Config:
    """The defaults must be the paper's Table 2 machine."""

    def test_cores_and_clock(self):
        cfg = table2_config()
        assert cfg.num_cores == 4
        assert cfg.clock_ghz == 2.0

    def test_l1(self):
        cfg = table2_config()
        assert cfg.l1_size == 64 * 1024
        assert cfg.l1_assoc == 8
        assert cfg.l1_latency == 2

    def test_l2(self):
        cfg = table2_config()
        assert cfg.l2_size == 32 * 1024 * 1024
        assert cfg.l2_assoc == 32
        assert cfg.l2_latency == 40

    def test_line_and_memory(self):
        cfg = table2_config()
        assert cfg.line_size == 64
        assert cfg.memory_latency == 200
        assert cfg.memory_size == 1 << 30

    def test_vid_bits_default_six(self):
        assert table2_config().vid_bits == 6

    def test_hierarchy_projection(self):
        h = table2_config().hierarchy_config()
        assert h.num_cores == 4
        assert h.l2_size == 32 * 1024 * 1024
        assert h.vid_bits == 6

    def test_cycles_to_seconds(self):
        cfg = table2_config()
        assert cfg.cycles_to_seconds(2_000_000_000) == pytest.approx(1.0)

    def test_small_test_config(self):
        cfg = small_test_config()
        assert cfg.l1_size < table2_config().l1_size


class TestGeometryValidation:
    """Bad cache geometry fails when the config is built, naming the field."""

    @pytest.mark.parametrize("overrides,field", [
        (dict(line_size=60), "line_size"),
        (dict(line_size=96), "line_size"),
        (dict(line_size=0), "line_size"),
        (dict(l1_size=1000), "l1_size"),
        (dict(l1_assoc=3), "l1_size"),
        (dict(l1_assoc=0), "l1_assoc"),
        (dict(l2_size=32 * 1024 * 1024 + 64), "l2_size"),
        (dict(l2_assoc=3), "l2_size"),
        (dict(l2_assoc=0), "l2_assoc"),
        (dict(line_size=128, l1_size=64 * 8 * 3), "l1_size"),
    ])
    def test_bad_geometry_rejected_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**overrides)

    def test_bad_llc_slice_rejected_at_construction(self):
        spec = TopologySpec(sockets=2, cores_per_socket=2,
                            llc_slice_size=1000)
        with pytest.raises(ValueError, match="topology.llc_slice_size"):
            MachineConfig.for_topology(spec)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(line_size=32),
        dict(line_size=128),
        # 3 MB / (16 ways * 64 B) = 3072 sets: not a power of two, fine.
        dict(l2_size=3 * 1024 * 1024, l2_assoc=16),
    ])
    def test_good_geometry_builds(self, overrides):
        MachineConfig(**overrides).build_hierarchy()

    def test_non_power_of_two_set_count_indexes_by_modulo(self):
        cache = VersionedCache("L2", size=3 * 1024 * 1024, assoc=16)
        assert cache.num_sets == 3072
        assert cache.set_index(3072 * 64 + 5 * 64 + 7) == 5

    @pytest.mark.parametrize("line_size", [48, 60, 96, 0])
    def test_cache_rejects_non_power_of_two_line(self, line_size):
        with pytest.raises(ValueError, match="line_size"):
            VersionedCache("L1[0]", size=4 * 4 * 96, assoc=4,
                           line_size=line_size)

    def test_hierarchy_config_users_are_covered(self):
        with pytest.raises(ValueError, match="line_size"):
            MemoryHierarchy(HierarchyConfig(l1_size=8 * 96, l1_assoc=1,
                                            l2_size=64 * 96, l2_assoc=1,
                                            line_size=96))

    @pytest.mark.parametrize("word_size", [3, 6, 0])
    def test_memory_rejects_non_power_of_two_word(self, word_size):
        with pytest.raises(ValueError, match="word_size"):
            MainMemory(line_size=48, word_size=word_size)


class TestThreadContext:
    def test_output_buffering_per_vid(self):
        ctx = ThreadContext(tid=0, core=0)
        ctx.vid = 3
        ctx.buffer_output("a")
        ctx.vid = 4
        ctx.buffer_output("b")
        assert ctx.release_output(3) == ["a"]
        assert ctx.release_output(3) == []
        assert ctx.pending_output_count() == 1

    def test_discard_counts(self):
        ctx = ThreadContext(tid=0, core=0)
        ctx.vid = 1
        ctx.buffer_output("x")
        ctx.buffer_output("y")
        assert ctx.discard_output() == 2
        assert ctx.pending_output_count() == 0


class TestSystemStats:
    def test_read_write_sets_at_line_granularity(self):
        stats = SystemStats(line_size=64)
        stats.record_load(1, 0x100, sla_sent=True)
        stats.record_load(1, 0x108, sla_sent=False)  # same line
        stats.record_store(1, 0x140)
        record = stats.record_commit(1)
        assert record.read_set_bytes == 64
        assert record.write_set_bytes == 64
        assert record.combined_set_bytes == 128
        assert record.spec_accesses == 3
        assert record.slas_sent == 1

    def test_combined_set_deduplicates(self):
        stats = SystemStats(line_size=64)
        stats.record_load(1, 0x100, sla_sent=True)
        stats.record_store(1, 0x108)  # same line as the load
        record = stats.record_commit(1)
        assert record.combined_set_bytes == 64

    def test_averages(self):
        stats = SystemStats(line_size=64)
        for vid, lines in ((1, 1), (2, 3)):
            for i in range(lines):
                stats.record_load(vid, i * 64, sla_sent=True)
            stats.record_commit(vid)
        assert stats.avg_read_set_kb == pytest.approx((64 + 192) / 2 / 1024)
        assert stats.avg_spec_accesses_per_tx == pytest.approx(2.0)

    def test_sla_fraction(self):
        stats = SystemStats()
        stats.record_load(1, 0, sla_sent=True)
        stats.record_load(1, 8, sla_sent=False)
        stats.record_load(1, 16, sla_sent=False)
        assert stats.sla_fraction_of_spec_loads == pytest.approx(1 / 3)

    def test_abort_clears_open_transactions(self):
        stats = SystemStats()
        stats.record_load(1, 0, sla_sent=False)
        stats.record_abort()
        assert stats.aborted == 1
        assert stats.record_commit(1) is None  # no open record survived

    def test_empty_stats_are_zero(self):
        stats = SystemStats()
        assert stats.avg_spec_accesses_per_tx == 0.0
        assert stats.avg_combined_set_kb == 0.0
        assert stats.sla_fraction_of_spec_loads == 0.0
        assert stats.avoided_aborts_per_tx == 0.0
