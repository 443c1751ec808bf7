"""Integration tests of the full memory system.

Covers the section 4.3 dependence cases, the two MTX requirements (group
commit, uncommitted value forwarding), cross-cache behaviour, the section
5.4 overflow rules, and shared-bus contention accounting.
"""

import pytest

from repro.coherence import HierarchyConfig, MemoryHierarchy, State
from repro.coherence.line import CacheLine
from repro.errors import MisspeculationError, SpeculativeOverflowError

ADDR = 0x4000


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(HierarchyConfig(num_cores=4))


@pytest.fixture
def tiny():
    """Tiny caches so eviction paths trigger quickly."""
    return MemoryHierarchy(HierarchyConfig(
        num_cores=2, l1_size=2 * 64, l1_assoc=2,
        l2_size=8 * 64, l2_assoc=4))


def states_of(h, addr):
    return sorted((c, str(l.state), l.mod_vid, l.high_vid)
                  for c, l in h.versions_everywhere(addr))


# ----------------------------------------------------------------------
# Basic MOESI behaviour (VID 0 everywhere)
# ----------------------------------------------------------------------

class TestNonSpeculativeMoesi:
    def test_read_miss_installs_exclusive(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 7)
        result = hierarchy.load(0, ADDR, 0)
        assert result.value == 7
        assert not result.l1_hit
        assert states_of(hierarchy, ADDR) == [("L1[0]", "E", 0, 0)]

    def test_second_read_hits(self, hierarchy):
        hierarchy.load(0, ADDR, 0)
        assert hierarchy.load(0, ADDR, 0).l1_hit

    def test_write_makes_modified(self, hierarchy):
        hierarchy.store(0, ADDR, 0, 9)
        assert states_of(hierarchy, ADDR) == [("L1[0]", "M", 0, 0)]
        assert hierarchy.load(0, ADDR, 0).value == 9

    def test_read_sharing_across_cores(self, hierarchy):
        hierarchy.store(0, ADDR, 0, 9)
        assert hierarchy.load(1, ADDR, 0).value == 9
        states = dict((c, s) for c, s, _, _ in states_of(hierarchy, ADDR))
        assert states["L1[0]"] == "O"   # dirty owner
        assert states["L1[1]"] == "S"

    def test_write_invalidates_sharers(self, hierarchy):
        hierarchy.store(0, ADDR, 0, 1)
        hierarchy.load(1, ADDR, 0)
        hierarchy.store(1, ADDR, 0, 2)
        names = [c for c, _, _, _ in states_of(hierarchy, ADDR)]
        assert names == ["L1[1]"]
        assert hierarchy.load(0, ADDR, 0).value == 2

    def test_write_upgrade_from_shared(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 5)
        hierarchy.load(0, ADDR, 0)
        hierarchy.load(1, ADDR, 0)
        hierarchy.store(0, ADDR, 0, 6)
        assert hierarchy.load(1, ADDR, 0).value == 6


# ----------------------------------------------------------------------
# The two MTX requirements (section 3)
# ----------------------------------------------------------------------

class TestUncommittedValueForwarding:
    def test_forwarding_within_same_vid_across_cores(self, hierarchy):
        """A later pipeline stage sees the same transaction's uncommitted
        store from another core — requirement 2."""
        hierarchy.store(0, ADDR, 3, 111)
        assert hierarchy.load(1, ADDR, 3).value == 111

    def test_forwarding_to_later_vids(self, hierarchy):
        hierarchy.store(0, ADDR, 3, 111)
        assert hierarchy.load(1, ADDR, 7).value == 111

    def test_earlier_vids_see_older_version(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 50)
        hierarchy.store(0, ADDR, 3, 111)
        assert hierarchy.load(1, ADDR, 2).value == 50
        assert hierarchy.load(2, ADDR, 0).value == 50

    def test_three_versions_three_readers(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 1)
        hierarchy.store(0, ADDR, 2, 2)
        hierarchy.store(1, ADDR, 4, 3)
        assert hierarchy.load(2, ADDR, 1).value == 1
        assert hierarchy.load(2, ADDR, 3).value == 2
        assert hierarchy.load(3, ADDR, 9).value == 3


class TestGroupCommit:
    def test_commit_publishes_across_caches(self, hierarchy):
        """Stores by two different cores under one VID commit atomically —
        requirement 1."""
        hierarchy.store(0, ADDR, 1, 10)
        hierarchy.store(1, ADDR + 64, 1, 20)
        hierarchy.commit(1)
        assert hierarchy.load(2, ADDR, 0).value == 10
        assert hierarchy.load(3, ADDR + 64, 0).value == 20

    def test_uncommitted_stores_invisible_to_nonspec(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 5)
        hierarchy.store(0, ADDR, 1, 99)
        assert hierarchy.load(1, ADDR, 0).value == 5

    def test_commit_preserves_later_speculation(self, hierarchy):
        hierarchy.store(0, ADDR, 1, 10)
        hierarchy.store(0, ADDR, 2, 20)
        hierarchy.commit(1)
        assert hierarchy.load(1, ADDR, 0).value == 10
        assert hierarchy.load(1, ADDR, 2).value == 20
        hierarchy.commit(2)
        assert hierarchy.load(1, ADDR, 0).value == 20

    def test_abort_discards_all_uncommitted(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 5)
        hierarchy.store(0, ADDR, 1, 10)
        hierarchy.store(1, ADDR, 2, 20)
        hierarchy.abort()
        assert hierarchy.load(2, ADDR, 0).value == 5

    def test_abort_preserves_committed(self, hierarchy):
        hierarchy.store(0, ADDR, 1, 10)
        hierarchy.commit(1)
        hierarchy.store(1, ADDR, 2, 20)
        hierarchy.abort()
        assert hierarchy.load(2, ADDR, 0).value == 10


# ----------------------------------------------------------------------
# Dependence enforcement (section 4.3)
# ----------------------------------------------------------------------

class TestFlowDependences:
    def test_store_then_load_forwards(self, hierarchy):
        hierarchy.store(0, ADDR, 2, 42)       # s_x first
        assert hierarchy.load(1, ADDR, 5).value == 42  # l_y sees it

    def test_load_then_earlier_store_aborts(self, hierarchy):
        hierarchy.load(0, ADDR, 5)            # l_y first
        with pytest.raises(MisspeculationError):
            hierarchy.store(1, ADDR, 2, 42)   # s_x too late


class TestAntiDependences:
    def test_load_then_later_store_is_safe(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 5)
        hierarchy.load(0, ADDR, 2)            # l_x first
        hierarchy.store(1, ADDR, 5, 99)       # s_y creates new version
        assert hierarchy.load(0, ADDR, 2).value == 5   # x still sees old

    def test_later_store_then_load_avoids_false_abort(self, hierarchy):
        hierarchy.memory.write_word(ADDR, 5)
        hierarchy.store(1, ADDR, 5, 99)       # s_y first
        assert hierarchy.load(0, ADDR, 2).value == 5   # l_x hits backup


class TestOutputDependences:
    def test_in_order_stores_stack_versions(self, hierarchy):
        hierarchy.store(0, ADDR, 2, 22)
        hierarchy.store(0, ADDR, 5, 55)
        assert hierarchy.load(1, ADDR, 2).value == 22
        assert hierarchy.load(1, ADDR, 5).value == 55

    def test_out_of_order_stores_abort(self, hierarchy):
        hierarchy.store(0, ADDR, 5, 55)
        with pytest.raises(MisspeculationError):
            hierarchy.store(1, ADDR, 2, 22)

    def test_same_vid_rewrites_in_place(self, hierarchy):
        hierarchy.store(0, ADDR, 3, 1)
        hierarchy.store(0, ADDR, 3, 2)
        assert hierarchy.load(0, ADDR, 3).value == 2
        versions = [l for _, l in hierarchy.versions_everywhere(ADDR)
                    if l.state is State.SM]
        assert len(versions) == 1


class TestSameVidAcrossCores:
    def test_write_migrates_version(self, hierarchy):
        """Same transaction writing from another core migrates the S-M line
        (threads may move between cores, section 5.2)."""
        hierarchy.store(0, ADDR, 3, 1)
        hierarchy.store(1, ADDR, 3, 2)
        assert hierarchy.load(2, ADDR, 3).value == 2
        hierarchy.check_invariants()

    def test_nonspec_write_to_spec_line_aborts(self, hierarchy):
        hierarchy.store(0, ADDR, 3, 1)
        with pytest.raises(MisspeculationError):
            hierarchy.store(1, ADDR, 0, 7)


# ----------------------------------------------------------------------
# S-S copies
# ----------------------------------------------------------------------

class TestSharedSpeculativeCopies:
    def test_peer_read_installs_ss(self, hierarchy):
        hierarchy.store(0, ADDR, 2, 9)
        hierarchy.load(1, ADDR, 2)
        states = dict((c, s) for c, s, *_ in states_of(hierarchy, ADDR)
                      if c == "L1[1]")
        assert states["L1[1]"] == "S-S"

    def test_ss_copy_serves_repeat_reads_locally(self, hierarchy):
        hierarchy.store(0, ADDR, 2, 9)
        hierarchy.load(1, ADDR, 2)
        assert hierarchy.load(1, ADDR, 2).l1_hit

    def test_write_invalidates_stale_ss_copies(self, hierarchy):
        """An S-S copy must never serve its version's pre-write data."""
        hierarchy.store(0, ADDR, 2, 9)
        hierarchy.load(1, ADDR, 2)            # S-S(2,...) in L1[1]
        hierarchy.store(0, ADDR, 2, 10)       # in-place write by VID 2
        assert hierarchy.load(1, ADDR, 2).value == 10

    def test_ss_never_serves_writes(self, hierarchy):
        hierarchy.store(0, ADDR, 2, 9)
        hierarchy.load(1, ADDR, 4)            # S-S copy in L1[1]
        hierarchy.store(1, ADDR, 4, 11)       # must reach the owner
        assert hierarchy.load(2, ADDR, 4).value == 11
        hierarchy.check_invariants()


# ----------------------------------------------------------------------
# Overflow handling (section 5.4)
# ----------------------------------------------------------------------

class TestOverflow:
    def test_nonspec_backup_may_overflow_and_return(self, tiny):
        """S-O(0, h) may leave the hierarchy; a later old-VID read gets it
        back from memory as S-O(0, reqVID+1) via the S-M assertion."""
        tiny.memory.write_word(ADDR, 5)
        tiny.load(0, ADDR, 1)                 # mark (0,1)
        tiny.store(0, ADDR, 2, 99)            # backup S-O(0,2) + S-M(2,2)
        # Evict the backup all the way to memory by filling both levels
        # with same-set speculative lines of *other* addresses.
        set_stride = 2 * 64                   # tiny L1: 2 sets
        victims = 0
        addr = ADDR
        while tiny.stats.nonspec_overflows == 0 and victims < 64:
            addr += set_stride * 2            # keep set pressure on ADDR's set
            tiny.store(0, ADDR + 0x10000 + victims * set_stride * 4, 2, victims)
            victims += 1
        assert tiny.stats.nonspec_overflows > 0
        # An old-VID read must still find version-0 data.
        result = tiny.load(1, ADDR, 1)
        assert result.value == 5
        assert tiny.stats.overflow_retrievals > 0

    def test_speculative_line_eviction_past_llc_aborts(self, tiny):
        with pytest.raises(SpeculativeOverflowError):
            for i in range(200):
                tiny.store(0, 0x10000 + i * 64, 2, i)

    def test_abort_flushes_so_system_recovers(self, tiny):
        try:
            for i in range(200):
                tiny.store(0, 0x10000 + i * 64, 2, i)
        except SpeculativeOverflowError:
            tiny.abort()
        # After the flush, plain execution works again.
        tiny.store(0, ADDR, 0, 7)
        assert tiny.load(1, ADDR, 0).value == 7


# ----------------------------------------------------------------------
# Bus contention + invariants
# ----------------------------------------------------------------------

class TestBusContention:
    def test_sequential_misses_do_not_wait(self, hierarchy):
        now = 0
        for i in range(10):
            result = hierarchy.load(0, 0x8000 + i * 64, 0, now=now)
            now += result.latency
        assert hierarchy.stats.bus_wait_cycles == 0

    def test_simultaneous_misses_serialise(self, hierarchy):
        lat0 = hierarchy.load(0, 0x8000, 0, now=0).latency
        lat1 = hierarchy.load(1, 0x9000, 0, now=0).latency
        assert lat1 > lat0 - hierarchy.config.bus_occupancy
        assert hierarchy.stats.bus_wait_cycles > 0


class TestInvariants:
    def test_single_latest_version_globally(self, hierarchy):
        hierarchy.store(0, ADDR, 1, 1)
        hierarchy.store(1, ADDR, 2, 2)
        hierarchy.store(2, ADDR, 3, 3)
        hierarchy.load(3, ADDR, 3)
        hierarchy.check_invariants()

    def test_sharing_with_a_dirty_owner_keeps_one_committed_view(
            self, hierarchy):
        hierarchy.store(0, ADDR, 0, 9)
        hierarchy.load(1, ADDR, 0)
        hierarchy.load(2, ADDR, 0)
        hierarchy.check_invariants()

    def test_disagreeing_committed_copies_are_named(self, hierarchy):
        # L1[2] holds the line M with 9; L1[1] gains a stale S copy with 5
        # (the end state of the lost committed store in ROADMAP item 1).
        hierarchy.store(2, ADDR, 0, 9)
        words = hierarchy.config.line_size // hierarchy.memory.word_size
        hierarchy.l1s[1].install(CacheLine(ADDR, State.SHARED,
                                           [5] + [0] * (words - 1)))
        with pytest.raises(AssertionError) as excinfo:
            hierarchy.check_invariants()
        message = str(excinfo.value)
        assert f"0x{ADDR:x}" in message
        assert "L1[1] S holds 5" in message
        assert "L1[2] M holds 9" in message

    def test_modified_copy_must_be_the_only_committed_copy(self, hierarchy):
        hierarchy.store(2, ADDR, 0, 9)
        words = hierarchy.config.line_size // hierarchy.memory.word_size
        hierarchy.l1s[1].install(CacheLine(ADDR, State.SHARED,
                                           [9] + [0] * (words - 1)))
        with pytest.raises(AssertionError, match="is M alongside") as excinfo:
            hierarchy.check_invariants()
        assert "L1[1] S" in str(excinfo.value)
        assert "L1[2] M" in str(excinfo.value)

    def test_commit_latency_is_constant(self, hierarchy):
        """Lazy scheme: commit cost must not scale with lines touched."""
        for i in range(50):
            hierarchy.store(0, 0x8000 + i * 64, 1, i)
        assert hierarchy.commit(1) == hierarchy.config.broadcast_latency
