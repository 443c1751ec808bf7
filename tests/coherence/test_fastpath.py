"""Unit tests for the fast-path layer (DESIGN.md, "Fast-path indexing").

The golden equivalence suite (tests/integration/test_fastpath_golden.py)
proves end-to-end bit-identity with the seed simulator; these tests pin the
individual mechanisms — epoch gating, the per-base version index, the
maintained filter counters, the presence map — and the two statistics bug
fixes that rode along (INVALID eviction victims, wrong-path mark pruning).
"""

import pytest

from repro.coherence.cache import VersionedCache
from repro.coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.coherence.line import CacheLine
from repro.coherence.states import State
from repro.core import HMTXSystem, MachineConfig

TINY = dict(num_cores=2, l1_size=512, l1_assoc=2, l2_size=2048, l2_assoc=4)


def make_cache(assoc=2, sets=4):
    return VersionedCache("C", size=assoc * sets * 64, assoc=assoc)


def line(addr, state, mod=0, high=0, data=None):
    return CacheLine(addr, state, data if data is not None else [0] * 8,
                     mod, high)


class TestEpochGating:
    def test_fresh_line_processes_once_then_skips(self):
        cache = make_cache()
        cache.install(line(0x40, State.SM, 2, 2))
        resident = cache.versions(0x40)[0]
        assert resident.epoch == cache._epoch
        before = cache.stats.lazy_commits_processed
        # No broadcast since: repeated touches replay nothing.
        for _ in range(5):
            cache.lookup(0x40, 3)
        assert cache.stats.lazy_commits_processed == before

    def test_broadcast_bumps_epoch_and_forces_processing(self):
        cache = make_cache()
        cache.install(line(0x40, State.SM, 2, 5))
        resident = cache.versions(0x40)[0]
        cache.broadcast_commit(2)
        assert resident.epoch != cache._epoch
        # Next touch applies the commit (modVID 2 drops to 0) lazily.
        hit = cache.lookup(0x40, 3)
        assert hit.mod_vid == 0
        assert hit.epoch == cache._epoch
        assert cache.stats.lazy_commits_processed >= 1

    def test_abort_replay_still_exact_under_gating(self):
        cache = make_cache()
        cache.install(line(0x40, State.SM, 2, 2))
        cache.broadcast_abort()
        # modVID > 0 at abort time: the version dies at next touch.
        assert cache.versions(0x40) == []
        cache.check_index_integrity()


class TestVersionIndex:
    def test_holds_tracks_presence(self):
        cache = make_cache()
        assert not cache.holds(0x44)
        slot = cache.install_slot(0x40, State.EXCLUSIVE.code, [0] * 8,
                                  0, 0)[0]
        assert cache.holds(0x44)          # any address within the line
        cache._remove_slot(slot)
        assert not cache.holds(0x40)

    def test_index_survives_replacement_and_eviction(self):
        cache = make_cache(assoc=2, sets=1)
        cache.install(line(0x00, State.EXCLUSIVE))
        cache.install(line(0x40, State.EXCLUSIVE))
        cache.install(line(0x80, State.EXCLUSIVE))   # evicts the LRU line
        cache.check_index_integrity()
        assert cache.occupancy() == 2

    def test_speculative_counter_follows_retags(self):
        cache = make_cache()
        slot = cache.install_slot(0x40, State.SM.code, [0] * 8, 2, 2)[0]
        assert cache.speculative_lines == 1
        cache._retag_slot(slot, State.MODIFIED.code, 0, 0)
        assert cache.speculative_lines == 0
        cache.check_index_integrity()

    def test_snapshots_are_detached(self):
        cache = make_cache()
        cache.install(line(0x40, State.SM, 2, 2))
        snapshot = cache.versions(0x40)[0]
        snapshot.retag(State.MODIFIED, 0, 0)  # detached: plain assignment
        assert snapshot.cache is None
        assert cache.speculative_lines == 1
        assert cache.lookup(0x40, 3).state is State.SM

    def test_detached_line_retag_is_safe(self):
        free = line(0x40, State.SM, 1, 1)
        free.set_vids(1, 4)               # no owning cache: plain assignment
        assert free.vids == (1, 4)


class TestSmFilter:
    def test_has_latest_after_commit_is_lazy_but_exact(self):
        cache = make_cache()
        cache.install(line(0x40, State.SM, 2, 2))
        assert cache.has_latest_spec_version(0x40)
        assert cache._sm_live == 1
        cache.broadcast_commit(2)
        # The S-M(2,2) version commits to M lazily; the assertion must drop.
        assert not cache.has_latest_spec_version(0x40)
        assert cache._sm_live == 0
        cache.check_index_integrity()

    def test_zero_filter_shortcuts_only_when_epoch_current(self):
        cache = make_cache()
        cache.install(line(0x40, State.SO, 0, 9))
        assert cache._sm_live == 0
        assert not cache.has_latest_spec_version(0x40)


class TestEvictionStats:
    def test_invalid_fallback_victim_not_counted(self):
        cache = make_cache(assoc=1, sets=1)
        cache._inject_line(line(0x40, State.INVALID))
        evicted = cache.install(line(0x80, State.EXCLUSIVE))
        assert [v.state for v in evicted] == [State.INVALID]
        assert cache.stats.evictions == 0

    def test_real_victims_still_counted(self):
        cache = make_cache(assoc=1, sets=1)
        cache.install(line(0x40, State.EXCLUSIVE))
        cache.install(line(0x80, State.EXCLUSIVE))
        assert cache.stats.evictions == 1


class TestPresenceMap:
    def test_holders_mirror_cache_contents(self):
        h = MemoryHierarchy(HierarchyConfig(**TINY))
        h.store(0, 0x100, 0, 7)
        h.load(1, 0x100, 0)
        h.load(1, 0x200, 0)
        h.check_invariants()              # includes the holders cross-check
        holders = h._holders[0x100]
        assert h.l1s[0] in holders and h.l1s[1] in holders

    def test_footprint_counter_matches_walk(self):
        h = MemoryHierarchy(HierarchyConfig(**TINY))
        h.load(0, 0x100, 1)
        h.store(0, 0x140, 2, 9)
        walked = sum(
            64 for cache in h._all_caches()
            for resident in cache.all_lines() if resident.is_speculative())
        assert h.speculative_footprint_bytes() == walked > 0
        h.check_invariants()


class TestWrongPathMarkPruning:
    def _system(self):
        system = HMTXSystem(MachineConfig(**TINY), sla_enabled=False)
        system.thread(0, 0)
        system.thread(1, 1)
        return system

    def test_mark_from_committed_vid_does_not_misattribute(self):
        from repro.errors import MisspeculationError
        from repro.txctl.causes import AbortCause
        system = self._system()
        system.begin_mtx(0, 1)
        system.wrong_path_load(0, 0x100)     # marks the line with VID 1
        system.commit_mtx(0, 1)              # ...which then commits
        assert system._wrong_path_marks == {}
        # A genuine conflict on the same line must not be blamed on the
        # (long-committed) wrong-path mark.
        system.begin_mtx(0, 2)
        system.begin_mtx(1, 3)
        system.load(1, 0x100)                # VID 3 reads: highVID -> 3
        with pytest.raises(MisspeculationError) as info:
            system.store(0, 0x100, 1)        # VID 2 writes: ordering conflict
        assert system.stats.false_aborts_triggered == 0
        assert info.value.cause is AbortCause.CONFLICT

    def test_uncommitted_mark_still_flags_false_abort(self):
        from repro.errors import MisspeculationError
        from repro.txctl.causes import AbortCause
        system = self._system()
        system.begin_mtx(0, 1)
        system.wrong_path_load(0, 0x100)     # marks with VID 1, never commits
        system.begin_mtx(1, 2)
        system.load(1, 0x100)                # VID 2 raises highVID to 2
        with pytest.raises(MisspeculationError) as info:
            system.store(0, 0x100, 1)        # VID 1 write: 1 < highVID 2
        assert system.stats.false_aborts_triggered == 1
        assert info.value.cause is AbortCause.WRONG_PATH
