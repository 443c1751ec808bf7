"""Set-associative, version-aware cache with lazy commit/abort processing.

A :class:`VersionedCache` stores *versions* of cache lines: several
versions with the same address but different ``(modVID, highVID)`` tags may
coexist within one set (section 4.1).  The set index depends only on the
address, so versions compete for the same ways.

Lazy commit/abort (section 5.3): commits and aborts are recorded by setting
the per-cache ``LC_VID`` register and flash-setting the per-line CB/AB bits;
the actual Figure 6/7 transition of a line is applied the next time that
line is touched or chosen as an eviction victim
(:meth:`VersionedCache._process_lazy_slot`).

Struct-of-arrays layer (DESIGN.md section 13): resident versions live as
slots in a per-cache :class:`~repro.coherence.store.LineStore` — parallel
``bytearray``/``array`` columns for state codes, VIDs, addresses and the
lazy-processing stamps.  The per-set lists, the per-base version buckets
and the presence map all hold plain slot integers, so the hot sweeps
(lookup, lazy folds, VID-reset scrubs, victim selection) run over
contiguous arrays with no per-line object in sight.  Slots are the only
form a resident version takes: the cold read API (:meth:`lookup`,
:meth:`versions`, :meth:`all_lines`) and eviction return detached
:class:`~repro.coherence.line.CacheLine` snapshots, and every mutation
goes through the slot funnels (:meth:`_retag_slot`, :meth:`_remove_slot`).

Fast-path layer (DESIGN.md, "Fast-path indexing") — pure implementation
optimisations, invisible to the modelled protocol:

* an **event epoch** bumped on every commit/abort/reset broadcast; a line
  stamped with the current epoch provably has no pending lazy events, so
  :meth:`_process_lazy_slot` returns without replaying anything;
* a **per-base version index** (``line address -> [slots]``), so
  :meth:`versions`/:meth:`lookup` touch only the versions of the requested
  line instead of scanning the whole set;
* maintained **snoop-filter counters**: the number of resident speculative
  lines (Figure 9 footprint) and of live ``S-M(modVID>0)`` lines (the
  section 5.4 "speculatively modified" assertion), kept exact through the
  :meth:`_retag_slot` mutation funnel;
* an optional shared **presence map** (``address -> holding caches``) the
  cache enters itself in on a line's first version and leaves on its last,
  so the hierarchy's snoops replace scan-every-cache with index lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .line import CacheLine
from .protocol import (
    abort_transition_code,
    commit_transition_code,
    reset_transition_code,
)
from .states import (
    CODE_INVALID,
    CODE_SE,
    CODE_SM,
    CODE_SO,
    STATE_FROM_CODE,
    State,
)
from .store import FREE_CODE, LineStore
from .vid import CascadedComparator


#: An evicted version's columns: ``(addr, state_code, data, mod_vid,
#: high_vid, seen_aborts, lru_tick, epoch)``; ``data`` moves, uncopied.
Victim = Tuple[int, int, List[int], int, int, int, int, int]


@dataclass
class CacheStats:
    """Per-cache event counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    version_copies: int = 0
    lazy_commits_processed: int = 0
    lazy_aborts_processed: int = 0
    commit_broadcasts: int = 0
    abort_broadcasts: int = 0
    vid_resets: int = 0


# Victim-selection priority classes, lowest value evicted first (section 5.4:
# prioritise overflowable S-O copies over speculative lines whose eviction
# from the LLC would force an abort).
_PRIORITY_INVALID = 0
_PRIORITY_CLEAN_NONSPEC = 1
_PRIORITY_DIRTY_NONSPEC = 2
_PRIORITY_SPEC_SHARED = 3       # S-S: silently droppable peer copies
_PRIORITY_SPEC_OVERFLOWABLE = 4  # S-O with modVID == 0: may go to memory
_PRIORITY_SPEC_PINNED = 5        # eviction past the LLC aborts

#: State code -> victim priority class.  S-O is the one state whose class
#: also depends on modVID: with modVID == 0 it is overflowable, which
#: victim_priority and the victim sweep special-case.
_VICTIM_CLASS_BY_CODE = bytes((
    _PRIORITY_INVALID,                                  # INVALID
    _PRIORITY_CLEAN_NONSPEC, _PRIORITY_CLEAN_NONSPEC,   # S, E
    _PRIORITY_DIRTY_NONSPEC, _PRIORITY_DIRTY_NONSPEC,   # O, M
    _PRIORITY_SPEC_PINNED, _PRIORITY_SPEC_PINNED,       # S-M, S-E
    _PRIORITY_SPEC_PINNED, _PRIORITY_SPEC_SHARED,       # S-O, S-S
))


def victim_priority(line) -> int:
    """Eviction priority class of a line (lower evicts first)."""
    state = line.state
    if state is State.SO and line.mod_vid == 0:
        return _PRIORITY_SPEC_OVERFLOWABLE
    return _VICTIM_CLASS_BY_CODE[state.code]


class VersionedCache:
    """One level of HMTX-capable cache (an L1 or the shared L2).

    Parameters
    ----------
    name:
        Human-readable identifier (``"L1[0]"``, ``"L2"``).
    size:
        Capacity in bytes.
    assoc:
        Ways per set.
    line_size:
        Bytes per line.
    hit_latency:
        Cycles charged for a hit at this level.
    vid_bits:
        Width of the VID comparators (for the section 4.5 model).
    """

    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64,
                 hit_latency: int = 2, vid_bits: int = 6) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"{name}: line_size must be a power of two, "
                             f"got {line_size}")
        if size % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.num_sets = size // (assoc * line_size)
        self.lc_vid = 0
        self.stats = CacheStats()
        self.comparator = CascadedComparator(bits=vid_bits)
        #: The struct-of-arrays slot arena holding every resident version.
        self._store = LineStore()
        #: Set lists of slot indices, allocated on first touch (a 32 MB L2
        #: has 16 k sets; most runs touch a handful).
        self._sets: Dict[int, List[int]] = {}
        self._tick = 0
        #: LC_VID snapshots at each abort broadcast (lazy abort processing).
        self._abort_history: List[int] = []
        # -- fast-path state ------------------------------------------------
        #: Event epoch: bumped on every commit/abort/reset broadcast.
        self._epoch = 0
        #: Epoch at which each set last had *every* line lazily processed.
        self._set_epochs: Dict[int, int] = {}
        #: line address -> resident version slots, in set-list order.
        self._by_base: Dict[int, List[int]] = {}
        #: Maintained counters backing the snoop filters.
        self._spec_lines = 0
        self._sm_live = 0
        #: The hierarchy's presence map (``line address -> caches holding
        #: any version``), shared by every cache of one machine; this cache
        #: enters itself on its first version of a line and leaves on its
        #: last.  ``None`` for a cache outside any hierarchy.
        self.presence: Optional[Dict[int, Set[VersionedCache]]] = None
        # Precomputed address masks.  A set count that is not a power of
        # two is legitimate (a 3 MB 16-way LLC has 3072) and takes a modulo.
        self._offset_mask = line_size - 1
        self._line_shift = line_size.bit_length() - 1
        self._index_mask = (self.num_sets - 1
                            if self.num_sets & (self.num_sets - 1) == 0
                            else None)

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & ~self._offset_mask

    def set_index(self, addr: int) -> int:
        """Set index depends only on the address, never on VIDs (4.1)."""
        if self._index_mask is not None:
            return (addr >> self._line_shift) & self._index_mask
        return (addr >> self._line_shift) % self.num_sets

    def _set_list(self, index: int) -> List[int]:
        slots = self._sets.get(index)
        if slots is None:
            slots = self._sets[index] = []
        return slots

    # ------------------------------------------------------------------
    # Detached records
    # ------------------------------------------------------------------

    def _make_record(self, slot: int) -> CacheLine:
        """Snapshot a slot's columns into a detached CacheLine record."""
        store = self._store
        record = CacheLine(
            store.addr[slot], STATE_FROM_CODE[store.state[slot]],
            store.data[slot], store.mod_vid[slot], store.high_vid[slot],
            store.seen_aborts[slot], store.lru_tick[slot])
        record.epoch = store.epoch[slot]
        return record

    # ------------------------------------------------------------------
    # Index / filter maintenance
    # ------------------------------------------------------------------

    def _index_add_slot(self, slot: int) -> None:
        """Enter a slot into the per-base index and filter counters."""
        store = self._store
        base = store.addr[slot]
        bucket = self._by_base.get(base)
        if bucket is None:
            bucket = self._by_base[base] = []
            if self.presence is not None:
                self.presence.setdefault(base, set()).add(self)
        bucket.append(slot)
        code = store.state[slot]
        if code >= CODE_SM:
            self._spec_lines += 1
            if code == CODE_SM and store.mod_vid[slot] > 0:
                self._sm_live += 1

    def _index_remove_slot(self, slot: int) -> None:
        """Drop a slot from the per-base index and filter counters."""
        store = self._store
        base = store.addr[slot]
        bucket = self._by_base[base]
        bucket.remove(slot)
        if not bucket:
            del self._by_base[base]
            presence = self.presence
            if presence is not None:
                holders = presence.get(base)
                if holders is not None:
                    holders.discard(self)
                    if not holders:
                        del presence[base]
        code = store.state[slot]
        if code >= CODE_SM:
            self._spec_lines -= 1
            if code == CODE_SM and store.mod_vid[slot] > 0:
                self._sm_live -= 1

    def _retag_slot(self, slot: int, code: int, mod_vid: int,
                    high_vid: int) -> None:  # hot-path
        """Change a slot's state/VIDs, keeping the filter counters exact."""
        store = self._store
        old = store.state[slot]
        old_spec = old >= CODE_SM
        new_spec = code >= CODE_SM
        if old_spec != new_spec:
            self._spec_lines += 1 if new_spec else -1
        old_sm = old == CODE_SM and store.mod_vid[slot] > 0
        new_sm = code == CODE_SM and mod_vid > 0
        if old_sm != new_sm:
            self._sm_live += 1 if new_sm else -1
        store.state[slot] = code
        store.mod_vid[slot] = mod_vid
        store.high_vid[slot] = high_vid

    @property
    def speculative_lines(self) -> int:
        """Resident speculative versions (maintained Figure 9 counter)."""
        return self._spec_lines

    def holds(self, addr: int) -> bool:
        """O(1): does this cache hold any version of ``addr``'s line?"""
        return self.line_addr(addr) in self._by_base

    # ------------------------------------------------------------------
    # Lazy commit/abort processing (section 5.3)
    # ------------------------------------------------------------------

    def _process_lazy_slot(self, slot: int) -> Optional[int]:  # hot-path
        """Resolve a slot's pending commit/abort transitions (section 5.3).

        Replays, in broadcast order, every event the line has not yet
        processed — for each unseen abort, the commits up to the pre-abort
        ``LC_VID`` apply first (Figure 6), then the abort (Figure 7);
        finally the current ``LC_VID`` commit level applies.

        Returns the slot if the version survives, ``None`` if a transition
        invalidated it (in which case it has been unlinked and freed).
        """
        store = self._store
        epoch = self._epoch
        if store.epoch[slot] == epoch:
            return slot
        history = self._abort_history
        code = store.state[slot]
        if code < CODE_SM:
            store.seen_aborts[slot] = len(history)
            store.epoch[slot] = epoch
            return slot
        stats = self.stats
        mod = store.mod_vid[slot]
        high = store.high_vid[slot]
        seen = store.seen_aborts[slot]
        pending = len(history)
        while seen < pending:
            lc_at_abort = history[seen]
            seen += 1
            store.seen_aborts[slot] = seen
            code2, mod2, high2 = commit_transition_code(
                code, mod, high, lc_at_abort)
            stats.lazy_commits_processed += 1
            code2, mod2, high2 = abort_transition_code(code2, mod2, high2)
            stats.lazy_aborts_processed += 1
            self._retag_slot(slot, code2, mod2, high2)
            code, mod, high = code2, mod2, high2
            if code == CODE_INVALID:
                self._remove_slot(slot)
                return None
            if code < CODE_SM:
                store.seen_aborts[slot] = pending
                store.epoch[slot] = epoch
                return slot
        code2, mod2, high2 = commit_transition_code(code, mod, high, self.lc_vid)
        if code2 != code or mod2 != mod or high2 != high:
            stats.lazy_commits_processed += 1
            self._retag_slot(slot, code2, mod2, high2)
            if code2 == CODE_INVALID:
                self._remove_slot(slot)
                return None
        store.epoch[slot] = epoch
        return slot

    def resolved_slot(self, slot: int) -> Optional[Tuple[int, int, int]]:
        """``(state code, modVID, highVID)`` that ``slot`` folds to —
        *without* mutating anything; ``None`` if it folds to INVALID.

        A pure mirror of :meth:`_process_lazy_slot` for the checkers
        (:meth:`MemoryHierarchy.check_invariants`, the interleaving
        explorer).  Lazy folding is incremental and confluent (resolving
        now and then applying future events equals resolving later), so
        this is the state the next access will see.
        """
        store = self._store
        code = store.state[slot]
        if code == CODE_INVALID:
            return None
        mod = store.mod_vid[slot]
        high = store.high_vid[slot]
        if store.epoch[slot] == self._epoch or code < CODE_SM:
            return code, mod, high
        history = self._abort_history
        seen = store.seen_aborts[slot]
        while seen < len(history):
            code, mod, high = commit_transition_code(code, mod, high,
                                                     history[seen])
            seen += 1
            code, mod, high = abort_transition_code(code, mod, high)
            if code == CODE_INVALID:
                return None
            if code < CODE_SM:
                return code, mod, high
        code, mod, high = commit_transition_code(code, mod, high, self.lc_vid)
        if code == CODE_INVALID:
            return None
        return code, mod, high

    def _remove_slot(self, slot: int) -> None:
        """Unlink a resident slot from its set and index, and free it."""
        store = self._store
        self._set_list(self.set_index(store.addr[slot])).remove(slot)
        self._index_remove_slot(slot)
        store.release(slot)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _process_bucket(self, base: int) -> Optional[List[int]]:  # hot-path
        """Lazily process every version of ``base``; return the survivors.

        Returns the (possibly shrunk) live bucket, or ``None`` when no
        version survives.  Skips the replay entirely when every slot is
        epoch-current — the sweep it skips would be an exact no-op.
        """
        bucket = self._by_base.get(base)
        if not bucket:
            return None
        epochs = self._store.epoch
        epoch = self._epoch
        for slot in bucket:
            if epochs[slot] != epoch:
                break
        else:
            return bucket
        process = self._process_lazy_slot
        # lint-ok: RL006 (epoch-gated fold: once per stale epoch, not per access)
        for slot in list(bucket):
            process(slot)
        bucket = self._by_base.get(base)
        return bucket if bucket else None

    def versions(self, addr: int) -> List[CacheLine]:
        """Snapshots of every valid version of ``addr``, lazily processed."""
        bucket = self._process_bucket(self.line_addr(addr))
        if bucket is None:
            return []
        return [self._make_record(slot) for slot in bucket]

    def effective_vid(self, req_vid: int) -> int:
        """Non-speculative requests use ``LC_VID`` for hit logic (5.3)."""
        return self.lc_vid if req_vid == 0 else req_vid

    def lookup_slot(self, base: int, req_vid: int) -> Optional[int]:  # hot-path
        """Slot of the unique version a request with ``req_vid`` hits, if any.

        ``base`` must already be the line address; ``req_vid`` is the raw
        request VID (the LC_VID substitution for non-speculative requests
        happens here).
        """
        bucket = self._by_base.get(base)
        if not bucket:
            return None
        store = self._store
        if len(bucket) == 1:
            slot = bucket[0]
            # Dominant case: one resident non-speculative, fully-processed
            # version.  It hits any VID, engages no comparator, and cannot
            # collide with a second hit — skip the generic scan.
            if store.epoch[slot] == self._epoch and store.state[slot] < CODE_SM:
                self._tick += 1
                store.lru_tick[slot] = self._tick
                return slot
        eff = self.lc_vid if req_vid == 0 else req_vid
        bucket = self._process_bucket(base)
        if bucket is None:
            return None
        state_col = store.state
        mod_col = store.mod_vid
        high_col = store.high_vid
        compare = self.comparator.compare
        hit = None
        for slot in bucket:
            code = state_col[slot]
            if code >= CODE_SM:
                mod = mod_col[slot]
                high = high_col[slot]
                # Model the tag-check energy of the VID comparators (4.5).
                compare(eff, mod)
                compare(eff, high)
                if code <= CODE_SE:
                    hits = eff >= mod
                else:
                    hits = mod <= eff < high
            else:
                hits = code != CODE_INVALID
            if hits:
                if hit is not None:
                    raise AssertionError(
                        f"{self.name}: two versions hit VID {eff} at "
                        f"0x{base:x}: {self._make_record(hit)!r} and "
                        f"{self._make_record(slot)!r}"
                    )
                hit = slot
        if hit is not None:
            self._tick += 1
            store.lru_tick[hit] = self._tick
        return hit

    def lookup(self, addr: int, req_vid: int) -> Optional[CacheLine]:
        """Snapshot of the unique version a request with ``req_vid`` hits."""
        slot = self.lookup_slot(self.line_addr(addr), req_vid)
        if slot is None:
            return None
        return self._make_record(slot)

    def would_mark(self, addr: int, req_vid: int) -> bool:
        """Would a speculative ``req_vid`` load mark (SLA, 5.1) its hit?"""
        slot = self.lookup_slot(self.line_addr(addr), req_vid)
        store = self._store
        return (slot is None or store.state[slot] < CODE_SM
                or store.high_vid[slot] < req_vid)

    def has_latest_spec_version(self, addr: int) -> bool:
        """Is there an ``S-M`` version asserting "speculatively modified"?

        Used for the section 5.4 overflow-retrieval assertion: when an S-M
        copy snoops a request it cannot serve, it asserts that the line was
        speculatively modified, so a memory response must arrive as
        ``S-O(0, reqVID + 1)``.

        Fast path: no transition ever *creates* an ``S-M(modVID>0)`` line
        out of another state, so when the maintained count of such lines is
        zero and every resident version of the address is epoch-current
        (i.e. lazy processing would be a no-op), the answer is False without
        touching any line.
        """
        base = self.line_addr(addr)
        bucket = self._by_base.get(base)
        if not bucket:
            return False
        store = self._store
        if self._sm_live == 0:
            epochs = store.epoch
            epoch = self._epoch
            for slot in bucket:
                if epochs[slot] != epoch:
                    break
            else:
                return False
        bucket = self._process_bucket(base)
        if bucket is None:
            return False
        state_col = store.state
        mod_col = store.mod_vid
        for slot in bucket:
            if state_col[slot] == CODE_SM and mod_col[slot] > 0:
                return True
        return False

    # ------------------------------------------------------------------
    # Installation and eviction
    # ------------------------------------------------------------------

    def install_slot(self, base: int, code: int, data: List[int],
                     mod_vid: int, high_vid: int,
                     ) -> Tuple[int, List[Victim]]:
        """Insert a version given as columns, evicting as needed.

        ``data`` is taken over, not copied.  An existing version with the
        same ``(addr, modVID)`` is replaced (it is the same conceptual
        version, e.g. a stale shared copy).  Returns the new slot and the
        evicted versions as :data:`Victim` tuples; the hierarchy decides
        whether they are written back, passed down a level, overflowed to
        memory, or force an abort (section 5.4).
        """
        store = self._store
        bucket = self._by_base.get(base)
        if bucket:
            spec = code >= CODE_SM
            state_col = store.state
            mod_col = store.mod_vid
            for slot in list(bucket):
                if mod_col[slot] == mod_vid \
                        and (state_col[slot] >= CODE_SM) == spec:
                    self._remove_slot(slot)
        index = self.set_index(base)
        slots = self._set_list(index)
        evicted: List[Victim] = []
        epoch = self._epoch
        # Resolve pending lazy transitions first: committed/aborted
        # versions may free slots without any real eviction.  Skipped when
        # the whole set is epoch-current — the replay would be a no-op for
        # every line.
        if self._set_epochs.get(index) != epoch:
            process = self._process_lazy_slot
            for candidate in list(slots):
                process(candidate)
            self._set_epochs[index] = epoch
        while len(slots) >= self.assoc:
            victim = self._choose_victim_slot(slots)
            slots.remove(victim)
            self._index_remove_slot(victim)
            victim_code = store.state[victim]
            evicted.append((store.addr[victim], victim_code,
                            store.data[victim], store.mod_vid[victim],
                            store.high_vid[victim], store.seen_aborts[victim],
                            store.lru_tick[victim], store.epoch[victim]))
            store.release(victim)
            if victim_code != CODE_INVALID:
                # An INVALID fallback victim never really left the
                # hierarchy; counting it would pollute the Table 1 /
                # ablation eviction numbers.
                self.stats.evictions += 1
        slot = store.alloc(base, code, data, mod_vid, high_vid)
        # A freshly installed line has no pending events in *this* cache.
        store.seen_aborts[slot] = len(self._abort_history)
        store.epoch[slot] = epoch
        slots.append(slot)
        self._index_add_slot(slot)
        self._tick += 1
        store.lru_tick[slot] = self._tick
        return slot, evicted

    def install(self, line: CacheLine) -> List[CacheLine]:
        """Record-taking :meth:`install_slot`; victims come back as records."""
        _, evicted = self.install_slot(line.addr, line.state.code, line.data,
                                       line.mod_vid, line.high_vid)
        records = []
        for addr, code, data, mod, high, seen, tick, epoch in evicted:
            record = CacheLine(addr, STATE_FROM_CODE[code], data, mod, high,
                               seen, tick)
            record.epoch = epoch
            records.append(record)
        return records

    def _choose_victim_slot(self, slots: List[int]) -> int:  # hot-path
        """LRU within the lowest occupied priority class (section 5.4).

        Callers have already lazily processed every slot in the set.
        """
        store = self._store
        state_col = store.state
        mod_col = store.mod_vid
        lru_col = store.lru_tick
        classes = _VICTIM_CLASS_BY_CODE
        best = -1
        best_pr = 6
        best_tick = 0
        for slot in slots:
            code = state_col[slot]
            if code == CODE_INVALID:
                continue
            if code == CODE_SO and mod_col[slot] == 0:
                pr = _PRIORITY_SPEC_OVERFLOWABLE
            else:
                pr = classes[code]
            tick = lru_col[slot]
            if best < 0 or pr < best_pr or (pr == best_pr and tick < best_tick):
                best = slot
                best_pr = pr
                best_tick = tick
        if best < 0:
            return slots[0]
        return best

    def all_lines(self) -> Iterable[CacheLine]:
        """Snapshots of every resident version, raw (not lazily processed)."""
        for slots in self._sets.values():
            for slot in slots:
                yield self._make_record(slot)

    def occupancy(self) -> int:
        """Number of valid versions currently resident."""
        return sum(len(slots) for slots in self._sets.values())

    # ------------------------------------------------------------------
    # Broadcast operations (sections 4.4, 4.6, 5.3)
    # ------------------------------------------------------------------

    def broadcast_commit(self, vid: int) -> None:
        """Record a commit: bump ``LC_VID``.  O(1).

        No per-line VID comparison or state transition happens here — that
        is the entire point of the lazy scheme.  (The paper flash-sets a CB
        bit column; commit idempotence makes even that unnecessary in the
        simulator — see :meth:`_process_lazy_slot`.)
        """
        self.lc_vid = vid
        self._epoch += 1
        self.stats.commit_broadcasts += 1

    def broadcast_abort(self) -> None:
        """Record an abort: append to the abort history.  O(1).

        The history entry snapshots the ``LC_VID`` in force when the abort
        arrived, so lazy processing can order each line's pending commit
        transitions before the abort — the exact-ordering refinement of the
        paper's AB-bit scheme (see DESIGN.md).
        """
        self.stats.abort_broadcasts += 1
        self._epoch += 1
        self._abort_history.append(self.lc_vid)

    def vid_reset(self) -> None:  # hot-path
        """Apply the section 4.6 VID reset to this cache.

        Pending lazy transitions are resolved, then every surviving
        speculative line is scrubbed in one batched sweep over the state
        columns: latest versions become plain M/E ("this essentially
        commits them") and superseded copies die.  ``LC_VID`` returns to 0.
        """
        self.stats.vid_resets += 1
        self._epoch += 1
        store = self._store
        state_col = store.state
        mod_col = store.mod_vid
        high_col = store.high_vid
        seen_col = store.seen_aborts
        process = self._process_lazy_slot
        retag = self._retag_slot
        # lint-ok: RL006 (whole-cache scrub: once per VID reset, not per access)
        for slots in list(self._sets.values()):  # lint-ok: RL006 (same)
            for slot in list(slots):
                if process(slot) is None:
                    continue
                code, mod, high = reset_transition_code(
                    state_col[slot], mod_col[slot], high_col[slot])
                retag(slot, code, mod, high)
                seen_col[slot] = 0
                if code == CODE_INVALID:
                    self._remove_slot(slot)
        self._abort_history.clear()
        self.lc_vid = 0

    # ------------------------------------------------------------------
    # Debug support
    # ------------------------------------------------------------------

    def _inject_line(self, line: CacheLine) -> int:
        """Test hook: force a raw resident version in.

        Bypasses replacement, eviction and lazy processing — the slot-arena
        equivalent of appending a hand-built line straight onto a set list
        (used to fabricate states the protocol itself would never produce).
        """
        store = self._store
        slot = store.alloc(line.addr, line.state.code, line.data,
                           line.mod_vid, line.high_vid)
        store.seen_aborts[slot] = line.seen_aborts
        store.epoch[slot] = line.epoch
        store.lru_tick[slot] = line.lru_tick
        self._set_list(self.set_index(line.addr)).append(slot)
        self._index_add_slot(slot)
        return slot

    def check_index_integrity(self) -> None:
        """Assert the fast-path index and counters match the set lists."""
        store = self._store
        by_base: Dict[int, List[int]] = {}
        spec = sm = 0
        for slots in self._sets.values():
            for slot in slots:
                code = store.state[slot]
                assert code != FREE_CODE, (
                    f"{self.name}: freed slot {slot} still linked in a set")
                by_base.setdefault(store.addr[slot], []).append(slot)
                if code >= CODE_SM:
                    spec += 1
                    if code == CODE_SM and store.mod_vid[slot] > 0:
                        sm += 1
        recorded = {base: list(bucket) for base, bucket in self._by_base.items()}
        assert by_base == recorded, f"{self.name}: per-base index diverged"
        assert spec == self._spec_lines, (
            f"{self.name}: speculative-line counter {self._spec_lines} != {spec}")
        assert sm == self._sm_live, (
            f"{self.name}: S-M filter counter {self._sm_live} != {sm}")
