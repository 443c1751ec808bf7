"""Differential test: object-per-line cache vs the struct-of-arrays arena.

The DESIGN.md section 13 rewrite replaced ``CacheLine`` objects with slot
columns in a :class:`~repro.coherence.store.LineStore`.  The rewrite is
supposed to be *behaviour-invariant*: every observable — resident lines
(state, VIDs, data, lazy stamps, LRU ticks), eviction records, lookup
results, stats counters, the Figure 9 footprint bytes — must be identical
to the seed implementation for any operation sequence.

This module keeps the seed implementation alive as an oracle
(:mod:`tests.coherence.legacy_store`) and drives both through:

* randomized seeded sequences of install / lookup / versions / drop /
  commit / abort / VID-reset operations, comparing full snapshots after
  every single step; and
* a hypothesis property for the VID-reset scrub specifically (random
  resident populations and broadcast histories, scrubbed in one go).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import VersionedCache
from repro.coherence.line import CacheLine
from repro.coherence.states import State

from .legacy_store import LegacyVersionedCache

#: Ten line bases over four sets: enough aliasing for constant evictions.
POOL = [0x4000 + i * 64 for i in range(10)]

#: 4 sets x 2 ways keeps both caches under perpetual replacement pressure.
GEOMETRY = dict(size=4 * 2 * 64, assoc=2, line_size=64)

#: Everything installable; INVALID lines never arrive via install().
INSTALLABLE = [s for s in State if s is not State.INVALID]


def make_pair():
    legacy = LegacyVersionedCache("legacy", **GEOMETRY)
    soa = VersionedCache("soa", **GEOMETRY)
    return legacy, soa


def canon(line):
    """Canonical tuple of every field the protocol can observe."""
    return (line.addr, line.state.name, line.mod_vid, line.high_vid,
            tuple(line.data), line.seen_aborts, line.lru_tick, line.epoch)


def snapshot(cache):
    """Full observable state, comparable across the two implementations."""
    return {
        "lines": sorted(canon(line) for line in cache.all_lines()),
        "stats": cache.stats,
        "lc_vid": cache.lc_vid,
        "abort_history": list(cache._abort_history),
        "occupancy": cache.occupancy(),
        "footprint_bytes": cache.speculative_lines * cache.line_size,
    }


def random_install(rng, addr):
    state = rng.choice(INSTALLABLE)
    if state.speculative:
        mod = rng.randint(0, 5)
        high = rng.choice([0, mod, mod + rng.randint(1, 3)])
    else:
        mod = high = 0
    data = [rng.randint(0, 99) for _ in range(4)]
    return ("install", addr, state, mod, high, tuple(data))


def op_stream(seed, length=300):
    """A seeded random mix of every public cache operation."""
    rng = random.Random(seed)
    commit_level = 0
    ops = []
    for _ in range(length):
        r = rng.random()
        addr = rng.choice(POOL)
        if r < 0.40:
            ops.append(random_install(rng, addr))
        elif r < 0.62:
            ops.append(("lookup", addr, rng.randint(0, 8)))
        elif r < 0.72:
            ops.append(("versions", addr))
        elif r < 0.78:
            ops.append(("has_latest_spec", addr))
        elif r < 0.84:
            ops.append(("drop_hit", addr, rng.randint(0, 8)))
        elif r < 0.91:
            commit_level += 1
            ops.append(("commit", commit_level))
        elif r < 0.97:
            ops.append(("abort",))
        else:
            commit_level = 0
            ops.append(("reset",))
    return ops


def apply_op(cache, op):
    """Run one op; return its canonicalized observable result."""
    kind = op[0]
    if kind == "install":
        _, addr, state, mod, high, data = op
        evicted = cache.install(CacheLine(addr, state, list(data), mod, high))
        return [canon(line) for line in evicted]
    if kind == "lookup":
        hit = cache.lookup(op[1], op[2])
        return None if hit is None else canon(hit)
    if kind == "versions":
        return [canon(line) for line in cache.versions(op[1])]
    if kind == "has_latest_spec":
        return cache.has_latest_spec_version(op[1])
    if kind == "drop_hit":
        if isinstance(cache, LegacyVersionedCache):
            hit = cache.lookup(op[1], op[2])
            if hit is None:
                return None
            cache.drop(hit)
            return canon(hit)
        slot = cache.lookup_slot(cache.line_addr(op[1]), op[2])
        if slot is None:
            return None
        record = cache._make_record(slot)
        cache._remove_slot(slot)
        return canon(record)
    if kind == "commit":
        return cache.broadcast_commit(op[1])
    if kind == "abort":
        return cache.broadcast_abort()
    if kind == "reset":
        return cache.vid_reset()
    raise ValueError(op)


def run_op(cache, op):
    """Result of an op, with the two-versions-hit assertion reified.

    Random VID soups can legitimately make two versions hit one request;
    both implementations must refuse identically, so the AssertionError
    becomes a comparable result instead of a test failure.
    """
    try:
        return ("ok", apply_op(cache, op))
    except AssertionError:
        return ("two-version-hit", None)


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_sequences(self, seed):
        legacy, soa = make_pair()
        for step, op in enumerate(op_stream(seed)):
            assert run_op(legacy, op) == run_op(soa, op), (seed, step, op)
            assert snapshot(legacy) == snapshot(soa), (seed, step, op)
            legacy.check_index_integrity()
            soa.check_index_integrity()

    def test_sequences_exercise_every_operation(self):
        kinds = {op[0] for seed in range(8) for op in op_stream(seed)}
        assert kinds == {"install", "lookup", "versions", "has_latest_spec",
                         "drop_hit", "commit", "abort", "reset"}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_evictions_and_scrubs_actually_happen(self, seed):
        """The geometry is tight enough that the stream hits the hard paths."""
        _, soa = make_pair()
        for op in op_stream(seed):
            run_op(soa, op)
        assert soa.stats.evictions > 0
        assert soa.stats.vid_resets > 0
        assert soa.stats.lazy_commits_processed > 0
        assert soa.stats.lazy_aborts_processed > 0


line_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(POOL) - 1),
              st.sampled_from(INSTALLABLE),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=4)),
    max_size=24)

broadcast_events = st.lists(
    st.one_of(st.integers(min_value=1, max_value=8),   # commit to this VID
              st.just("abort")),
    max_size=12)


class TestVidResetScrubProperty:
    @given(specs=line_specs, events=broadcast_events)
    @settings(deadline=None, max_examples=60)
    def test_scrub_equivalence(self, specs, events):
        """VID reset scrubs both stores to identical, spec-free states."""
        legacy, soa = make_pair()
        for i, (ai, state, mod, extra) in enumerate(specs):
            if state.speculative:
                vids = (mod, mod + extra if extra else 0)
            else:
                vids = (0, 0)
            for cache in (legacy, soa):
                cache.install(CacheLine(POOL[ai], state, [i] * 4, *vids))
        for event in events:
            for cache in (legacy, soa):
                if event == "abort":
                    cache.broadcast_abort()
                else:
                    cache.broadcast_commit(event)
        legacy.vid_reset()
        soa.vid_reset()
        assert snapshot(legacy) == snapshot(soa)
        # The scrub's own contract: no speculative version survives a
        # VID reset, and the abort history is wiped with LC_VID.
        assert soa.speculative_lines == 0
        assert soa.lc_vid == 0 and not soa._abort_history
        legacy.check_index_integrity()
        soa.check_index_integrity()
