"""The full memory system: per-core L1s, shared L2, snoopy bus, memory.

This module orchestrates the protocol of section 4: local L1 lookup, bus
snoop of peer L1s and the shared L2, memory fetch (including the section 5.4
overflow-retrieval path), version creation on speculative writes, commit and
abort broadcasts, and the eviction/overflow rules.

The hierarchy is *non-inclusive*: L1 victims of any version are written back
to the L2 "as normal" (section 4.1); only eviction past the last-level cache
is restricted (section 5.4).

System-wide invariants maintained here (and checked by the test suite):

* at most one *latest* (``S-M``/``S-E``) version per address exists anywhere;
* within a cache, at most one version of an address hits any given VID;
* ``S-S`` copies never serve writes and are invalidated whenever their
  underlying version is written (the upgrade bus transaction of MOESI,
  carried over to the speculative world);
* non-speculative requests substitute ``LC_VID`` in hit logic only — they
  never create or extend speculative versions (sections 5.3, 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Set, Tuple

from ..errors import MisspeculationError, SpeculativeOverflowError
from ..topology import TopologySpec
from ..txctl.causes import AbortCause
from .cache import Victim, VersionedCache
from .line import CacheLine
from .memory import MainMemory
from .overflow import OverflowVersionTable
from .protocol import (
    AccessKind,
    WriteOutcome,
    plan_new_version,
    read_transition,
    version_hits_code,
    write_outcome,
)
from .states import (
    CODE_EXCLUSIVE,
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_OWNED,
    CODE_SE,
    CODE_SHARED,
    CODE_SM,
    CODE_SO,
    CODE_SS,
    DIRTY_BY_CODE,
    STATE_FROM_CODE,
    State,
)


@dataclass
class HierarchyConfig:
    """Geometry and latency knobs (defaults follow Table 2)."""

    num_cores: int = 4
    l1_size: int = 64 * 1024
    l1_assoc: int = 8
    l1_latency: int = 2
    l2_size: int = 32 * 1024 * 1024
    l2_assoc: int = 32
    l2_latency: int = 40
    line_size: int = 64
    memory_latency: int = 200
    vid_bits: int = 6
    #: Cycles for a commit/abort broadcast on the L1-L2 bus (lazy scheme:
    #: just bus arbitration plus the flash-set, no per-line processing).
    broadcast_latency: int = 10
    #: Cycles one bus transaction (snoop + line transfer) occupies the
    #: shared L1-L2 bus.  Concurrent requesters serialise on it, which is
    #: the first-order reason the snoopy design stops scaling past a few
    #: cores (the paper's future work proposes a directory protocol).
    bus_occupancy: int = 8
    #: Section 8 extension: when True, speculative versions evicted past
    #: the LLC spill into a memory-side version table instead of aborting
    #: ("unlimited read and write sets").
    unbounded_sets: bool = False
    #: Machine shape (sockets, LLC slices, NUMA hops).  ``None`` or any
    #: 1-socket spec is the flat Table 2 machine: one shared LLC with the
    #: ``l2_*`` geometry, no NUMA charges — bit-identical to the
    #: pre-topology hierarchy.  A multi-socket spec slices the LLC per
    #: socket and charges intra/cross-socket hop latencies.
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.topology is not None \
                and self.topology.num_cores != self.num_cores:
            raise ValueError(
                f"topology describes {self.topology.num_cores} cores "
                f"({self.topology.sockets}x"
                f"{self.topology.cores_per_socket}) but num_cores is "
                f"{self.num_cores}")


class AccessResult:
    """Outcome of one load or store.

    A ``__slots__`` class rather than a dataclass: one is built per memory
    access, so construction cost is on the simulator's critical path.
    """

    __slots__ = ("value", "latency", "l1_hit", "served_by",
                 "sla_required", "created_version")

    def __init__(self, value: int, latency: int, l1_hit: bool,
                 served_by: str, sla_required: bool = False,
                 created_version: bool = False) -> None:
        self.value = value
        self.latency = latency
        self.l1_hit = l1_hit
        self.served_by = served_by
        #: True when a speculative load touched a version not yet marked
        #: with its VID — exactly the condition under which an SLA message
        #: must be sent once the load retires (section 5.1).
        self.sla_required = sla_required
        #: True when a speculative store created a fresh line version.
        self.created_version = created_version

    def __repr__(self) -> str:
        return (f"AccessResult(value={self.value!r}, "
                f"latency={self.latency!r}, l1_hit={self.l1_hit!r}, "
                f"served_by={self.served_by!r}, "
                f"sla_required={self.sla_required!r}, "
                f"created_version={self.created_version!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AccessResult:
            return NotImplemented
        return (self.value == other.value
                and self.latency == other.latency
                and self.l1_hit == other.l1_hit
                and self.served_by == other.served_by
                and self.sla_required == other.sla_required
                and self.created_version == other.created_version)


class HierarchyObserver(Protocol):
    """The events a hierarchy reports to its ``observer`` slot.

    ``access_start`` runs before a ``load``/``store`` touches any cache;
    whatever it returns comes back as ``start`` in ``access`` (the access
    completed with ``result``) or ``misspeculation`` (it raised ``err``,
    which then propagates).  ``commit``/``abort``/``vid_reset`` follow
    the broadcast of that name.
    """

    def access_start(self, hierarchy: MemoryHierarchy,
                     addr: int) -> Any: ...

    def access(self, hierarchy: MemoryHierarchy, op: str, core: int,
               addr: int, vid: int, result: AccessResult,
               start: Any) -> None: ...

    def misspeculation(self, hierarchy: MemoryHierarchy, core: int,
                       addr: int, vid: int, err: MisspeculationError,
                       start: Any) -> None: ...

    def commit(self, hierarchy: MemoryHierarchy, vid: int) -> None: ...

    def abort(self, hierarchy: MemoryHierarchy) -> None: ...

    def vid_reset(self, hierarchy: MemoryHierarchy) -> None: ...


@dataclass
class HierarchyStats:
    """Aggregate memory-system statistics."""

    loads: int = 0
    stores: int = 0
    spec_loads: int = 0
    spec_stores: int = 0
    bus_snoops: int = 0
    peer_transfers: int = 0
    memory_fetches: int = 0
    ss_invalidations: int = 0
    bus_wait_cycles: int = 0
    nonspec_overflows: int = 0
    overflow_retrievals: int = 0
    spec_overflow_spills: int = 0
    commits: int = 0
    aborts: int = 0
    vid_resets: int = 0


class MemoryHierarchy:
    """Per-core L1 caches over a shared L2 over main memory."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.memory = MainMemory(line_size=cfg.line_size, latency=cfg.memory_latency)
        self.l1s = [
            VersionedCache(
                f"L1[{i}]", cfg.l1_size, cfg.l1_assoc, cfg.line_size,
                hit_latency=cfg.l1_latency, vid_bits=cfg.vid_bits)
            for i in range(cfg.num_cores)
        ]
        topo = cfg.topology
        #: True only for a declared multi-socket machine; every NUMA
        #: charge below is gated on it so the flat machine's timing is
        #: bit-identical to the pre-topology hierarchy.
        self._multi_socket = topo is not None and not topo.flat
        self._topo = topo
        if self._multi_socket:
            # One LLC slice per socket; line addresses interleave across
            # home sockets, so each slice (and its directory state in the
            # directory subclass) owns a disjoint slice of the line space.
            self.llc_slices: Tuple[VersionedCache, ...] = tuple(
                VersionedCache(
                    f"LLC[{s}]", topo.llc_slice_size, topo.llc_slice_assoc,
                    cfg.line_size, hit_latency=topo.llc_slice_latency,
                    vid_bits=cfg.vid_bits)
                for s in range(topo.sockets))
            self._llc_latency = topo.llc_slice_latency
        else:
            self.llc_slices = (VersionedCache(
                "L2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
                hit_latency=cfg.l2_latency, vid_bits=cfg.vid_bits),)
            self._llc_latency = cfg.l2_latency
        #: Alias kept for the flat machine's callers (and slice 0 of a
        #: multi-socket one, whose geometry helpers are shared anyway).
        self.l2 = self.llc_slices[0]
        self._llc_group = frozenset(self.llc_slices)
        #: Socket owning each cache, by name (L1s follow their core;
        #: slices their socket).  Flat machines map everything to 0.
        self._cache_socket: Dict[str, int] = {}
        for i, l1 in enumerate(self.l1s):
            self._cache_socket[l1.name] = (
                topo.socket_of_core(i) if self._multi_socket else 0)
        for s, llc in enumerate(self.llc_slices):
            self._cache_socket[llc.name] = s
        # Broadcast costs are pure functions of the shape: precompute.
        if self._multi_socket:
            self._commit_cost = topo.multicast_latency(cfg.broadcast_latency)
            self._reset_cost = topo.reset_scrub_latency(
                cfg.broadcast_latency, topo.llc_slice_latency)
        else:
            self._commit_cost = cfg.broadcast_latency
            self._reset_cost = cfg.broadcast_latency
        self.stats = HierarchyStats()
        #: Section 8 extension: memory-side home for overflowed versions.
        self.overflow_table: Optional[OverflowVersionTable] = None
        if cfg.unbounded_sets:
            self.overflow_table = OverflowVersionTable(
                line_size=cfg.line_size, memory_latency=cfg.memory_latency,
                vid_bits=cfg.vid_bits)
        #: Simulated time at which the shared bus next becomes free.
        self._bus_free = 0
        #: Presence (snoop-filter) map: line address -> caches holding any
        #: version of it.  Maintained *exactly* by the caches themselves,
        #: which share it — a cache appears iff it currently holds a
        #: version — so snoops, invalidations and scrubs only touch holding
        #: caches (DESIGN.md, "Fast-path indexing").
        self._holders: Dict[int, Set[VersionedCache]] = {}
        # Precomputed cache orderings: the bus snoop / broadcast orders are
        # fixed at construction, so the hot paths iterate tuples instead of
        # rebuilding lists per access.
        caches: List[VersionedCache] = list(self.l1s) + list(self.llc_slices)
        if self.overflow_table is not None:
            caches.append(self.overflow_table)
        self._caches: Tuple[VersionedCache, ...] = tuple(caches)
        for cache in caches:
            cache.presence = self._holders
        self._peer_lists: List[Tuple[VersionedCache, ...]] = []
        for core in range(len(self.l1s)):
            peers = [c for i, c in enumerate(self.l1s) if i != core]
            peers.extend(self.llc_slices)
            if self.overflow_table is not None:
                # Consulted last: a version found here pays memory latency
                # plus the software-structure management cost.
                peers.append(self.overflow_table)
            self._peer_lists.append(tuple(peers))
        # Word-index shift for the fused access path (MainMemory rejects a
        # word size that is not a power of two).
        self._word_shift = self.memory.word_size.bit_length() - 1
        #: The attached :class:`HierarchyObserver` (a
        #: :class:`~repro.trace.events.ProtocolTracer`), or None.  Set and
        #: cleared only by the observer's attach/detach.
        self.observer: Optional[HierarchyObserver] = None

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------

    def _home_llc(self, addr: int) -> VersionedCache:
        """The LLC slice owning ``addr``'s line (the shared L2 when flat)."""
        if not self._multi_socket:
            return self.l2
        return self.llc_slices[
            self._topo.home_socket(addr, self.config.line_size)]

    def _numa_hop(self, core: int, owner_name: Optional[str],
                  base: int) -> int:
        """One-way hop from ``core`` to the responder (0 on flat machines).

        ``owner_name`` is the serving cache's name, or ``None`` when memory
        (or the memory-side overflow table) responds — those sit behind the
        line's home socket's memory controller.
        """
        req = self._cache_socket[self.l1s[core].name]
        owner = self._cache_socket.get(owner_name) if owner_name else None
        if owner is None:
            owner = self._topo.home_socket(base, self.config.line_size)
        return self._topo.hop_latency(req, owner)

    def _bus_transaction(self, now: int) -> int:
        """Acquire the shared bus at time ``now``; returns wait + occupancy.

        With a single active core the bus is always free by the time the
        next miss issues; under parallel execution concurrent misses queue
        up behind each other, throttling speedup exactly as shared-bus
        bandwidth does on real snoopy multicores.
        """
        wait = max(0, self._bus_free - now)
        self._bus_free = now + wait + self.config.bus_occupancy
        self.stats.bus_wait_cycles += wait
        return wait + self.config.bus_occupancy

    # ------------------------------------------------------------------
    # Public access interface
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, vid: int,
             now: int = 0) -> AccessResult:  # hot-path
        """Perform a (possibly speculative) load from ``addr`` with ``vid``.

        ``now`` is the requesting core's current cycle, used for shared-bus
        contention accounting.
        """
        stats = self.stats
        stats.loads += 1
        if vid > 0:
            stats.spec_loads += 1
        observer = self.observer
        if observer is not None:
            start = observer.access_start(self, addr)
        try:
            result = self._access(core, addr, vid, AccessKind.READ, None, now)
        except MisspeculationError as err:
            if observer is not None:
                observer.misspeculation(self, core, addr, vid, err, start)
            raise
        if observer is not None:
            observer.access(self, "load", core, addr, vid, result, start)
        return result

    def store(self, core: int, addr: int, vid: int, value: int,
              now: int = 0) -> AccessResult:  # hot-path
        """Perform a (possibly speculative) store to ``addr`` with ``vid``."""
        stats = self.stats
        stats.stores += 1
        if vid > 0:
            stats.spec_stores += 1
        observer = self.observer
        if observer is not None:
            start = observer.access_start(self, addr)
        try:
            result = self._access(core, addr, vid, AccessKind.WRITE, value,
                                  now)
        except MisspeculationError as err:
            if observer is not None:
                observer.misspeculation(self, core, addr, vid, err, start)
            raise
        if observer is not None:
            observer.access(self, "store", core, addr, vid, result, start)
        return result

    def read_committed(self, addr: int) -> int:
        """Verification read of committed state: no timing, no statistics.

        Used by workloads' post-run result checks so that verification does
        not perturb the counters the experiments report.  Any cached copy
        visible to a non-speculative request holds the committed value;
        otherwise memory does.
        """
        for cache in self._all_caches():
            hit = cache.lookup(addr, 0)
            if hit is not None:
                return hit.data[self._word(addr)]
        return self.memory.read_word(addr)

    def peek(self, core: int, addr: int, vid: int) -> Tuple[int, int]:
        """Read the value ``vid`` would observe *without marking any line*.

        Models a wrong-path (branch-speculative) load under the SLA scheme
        of section 5.1: the load's data moves through the system, but no
        line is marked with its VID.  Returns ``(value, latency)``.
        """
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        word = self._word(addr)
        slot = l1.lookup_slot(base, vid)
        if slot is not None:
            return l1._store.data[slot][word], l1.hit_latency
        latency = l1.hit_latency + self._llc_latency
        for cache in self._peer_lists[core]:
            slot = cache.lookup_slot(base, vid)
            if slot is not None and cache._store.state[slot] != CODE_SS:
                return cache._store.data[slot][word], latency
        return self.memory.read_word(addr), latency + self.config.memory_latency

    # ------------------------------------------------------------------
    # Broadcasts
    # ------------------------------------------------------------------

    def commit(self, vid: int) -> int:
        """Group-commit transaction ``vid`` everywhere; returns latency.

        Flat machines pay the bus broadcast; multi-socket machines pay the
        precomputed multicast-tree cost (cross-socket fan-out, then on-die).
        """
        self.stats.commits += 1
        for cache in self._caches:
            cache.broadcast_commit(vid)
        if self.observer is not None:
            self.observer.commit(self, vid)
        return self._commit_cost

    def abort(self) -> int:
        """Flush all uncommitted transactional state; returns latency."""
        self.stats.aborts += 1
        for cache in self._caches:
            cache.broadcast_abort()
        if self.observer is not None:
            self.observer.abort(self)
        return self._commit_cost

    def vid_reset(self) -> int:
        """Perform the section 4.6 VID reset; returns latency.

        Legal only after every outstanding transaction has committed (the
        software side guarantees this before raising the reset signal).
        Multi-socket machines pay the reset-scrub barrier on top of the
        multicast tree: every LLC slice sweeps and acknowledges, so the
        stall grows with the socket count (the ROADMAP's reset-storm knee).
        """
        self.stats.vid_resets += 1
        for cache in self._caches:
            cache.vid_reset()
        if self.observer is not None:
            self.observer.vid_reset(self)
        return self._reset_cost

    # ------------------------------------------------------------------
    # Introspection helpers (tests, experiments)
    # ------------------------------------------------------------------

    def versions_everywhere(self, addr: int) -> List[Tuple[str, CacheLine]]:
        """All cached versions of ``addr`` with their cache names."""
        out = []
        for cache in self._all_caches():
            for line in cache.versions(addr):
                out.append((cache.name, line))
        return out

    def speculative_footprint_bytes(self) -> int:
        """Bytes of speculative versions currently resident (Figure 9 aid).

        O(#caches): reads the maintained per-cache speculative-line
        counters instead of walking every resident line.
        """
        return self.config.line_size * sum(
            cache.speculative_lines for cache in self._all_caches())

    def check_invariants(self, committed_view: bool = True) -> None:
        """Assert the system-wide protocol invariants (test support).

        Also cross-checks the fast-path layer: the per-cache version
        indices and filter counters, and the hierarchy's presence map, must
        exactly mirror the set contents they summarise.  With
        ``committed_view`` every line's committed view must also agree
        across caches (:meth:`_check_committed_view`); the explorer turns
        it off because its EX002 checks the same view against the
        expected values.
        """
        latest_owners = {}
        held: Dict[int, Set[VersionedCache]] = {}
        for cache in self._all_caches():
            cache.check_index_integrity()
            in_llc = cache in self._llc_group
            for line in cache.all_lines():
                held.setdefault(line.addr, set()).add(cache)
                if line.state in (State.SM, State.SE):
                    if line.addr in latest_owners:
                        raise AssertionError(
                            f"two latest versions of 0x{line.addr:x}: "
                            f"{latest_owners[line.addr]} and {cache.name}")
                    latest_owners[line.addr] = cache.name
                if in_llc and self._multi_socket:
                    # Sliced-LLC ownership: a line only ever resides in its
                    # home slice — victims route there, and installs never
                    # target a foreign slice.  Recomputed from the topology
                    # spec (not via ``_home_llc``) so a broken router
                    # cannot vouch for its own placement.
                    home = self.llc_slices[self._topo.home_socket(
                        line.addr, self.config.line_size)]
                    if cache is not home:
                        raise AssertionError(
                            f"version of 0x{line.addr:x} resident in "
                            f"{cache.name} but homed at {home.name}")
        assert held == self._holders, "presence map diverged from contents"
        for addr in sorted(held) if committed_view else ():
            self._check_committed_view(addr, held[addr])

    def _check_committed_view(self, addr: int,
                              holders: Set[VersionedCache]) -> None:
        """Committed-view agreement (the run-end form of explore's EX002).

        Every copy a non-speculative request would hit (``lookup(addr,
        0)`` once lazy folding applies) must hold the same data, and a
        committed M copy must be the only non-speculative copy of its line.
        A speculative copy still serving the committed view (``S-S``
        below its highVID) is held to data agreement only.
        """
        views = []
        for cache in self._caches:
            if cache not in holders:
                continue
            for slot in cache._by_base.get(addr, ()):
                resolved = cache.resolved_slot(slot)
                if resolved is not None and version_hits_code(
                        *resolved, cache.lc_vid):
                    views.append((cache.name, STATE_FROM_CODE[resolved[0]],
                                  cache._store.data[slot]))
        if len(views) < 2:
            return
        first = views[0]
        for view in views[1:]:
            if view[2] != first[2]:
                word = next(i for i, pair in enumerate(zip(first[2], view[2]))
                            if pair[0] != pair[1])
                raise AssertionError(
                    f"committed views of 0x{addr:x} disagree at word "
                    f"{word}: {first[0]} {first[1]} holds {first[2][word]}, "
                    f"{view[0]} {view[1]} holds {view[2][word]}")
        plain = [view for view in views if not view[1].speculative]
        if len(plain) > 1 and any(view[1] is State.MODIFIED
                                  for view in plain):
            raise AssertionError(
                f"0x{addr:x} is M alongside other committed copies: "
                + ", ".join(f"{name} {state}" for name, state, _ in plain))

    # ------------------------------------------------------------------
    # Core access machinery
    # ------------------------------------------------------------------

    def _word(self, addr: int) -> int:
        return (addr % self.config.line_size) // self.memory.word_size

    def _all_caches(self) -> List[VersionedCache]:
        return list(self._caches)

    def _access(self, core: int, addr: int, vid: int, kind: AccessKind,
                value: Optional[int], now: int = 0) -> AccessResult:  # hot-path
        # Fused access path (line and word sizes are powers of two, checked
        # at construction): the lookup scan runs directly on the line-store
        # columns — lazy processing gated on the bucket's epochs,
        # comparator engagements counted inline exactly as
        # CascadedComparator.compare would, LRU touched on the hit — and
        # the dominant access shapes then complete with direct column
        # reads/writes.  Complex shapes (upgrades, aborts, new versions)
        # hand the found slot to _apply; misses take the fetch path below.
        # Both continuations receive the statistics VersionedCache.lookup
        # would produce.
        l1 = self.l1s[core]
        mask = l1._offset_mask
        wshift = self._word_shift
        store = l1._store
        state_col = store.state
        mod_col = store.mod_vid
        high_col = store.high_vid
        epochs = store.epoch
        lru_col = store.lru_tick
        data_col = store.data
        comparator = l1.comparator
        l1stats = l1.stats
        hit_latency = l1.hit_latency
        name = l1.name
        base = addr & ~mask
        bucket = l1._by_base.get(base)
        if bucket is not None:
            epoch = l1._epoch
            for s in bucket:
                if epochs[s] != epoch:
                    bucket = l1._process_bucket(base)
                    break
        slot = -1
        if bucket:
            eff = l1.lc_vid if vid == 0 else vid
            if len(bucket) == 1:
                s = bucket[0]
                code = state_col[s]
                if code < CODE_SM:
                    if code != CODE_INVALID:
                        slot = s
                else:
                    mod = mod_col[s]
                    high = high_col[s]
                    shift = comparator.low_bits
                    if (eff >> shift) == (mod >> shift):
                        comparator.fast_comparisons += 1
                    else:
                        comparator.cascaded_comparisons += 1
                    if (eff >> shift) == (high >> shift):
                        comparator.fast_comparisons += 1
                    else:
                        comparator.cascaded_comparisons += 1
                    if (eff >= mod if code <= CODE_SE
                            else mod <= eff < high):
                        slot = s
            else:
                shift = comparator.low_bits
                fast = 0
                cascaded = 0
                for s in bucket:
                    code = state_col[s]
                    if code >= CODE_SM:
                        mod = mod_col[s]
                        high = high_col[s]
                        if (eff >> shift) == (mod >> shift):
                            fast += 1
                        else:
                            cascaded += 1
                        if (eff >> shift) == (high >> shift):
                            fast += 1
                        else:
                            cascaded += 1
                        hits = (eff >= mod if code <= CODE_SE
                                else mod <= eff < high)
                    else:
                        hits = code != CODE_INVALID
                    if hits:
                        if slot >= 0:
                            raise AssertionError(
                                f"{name}: two versions hit VID {eff} "
                                f"at 0x{base:x}: {l1._make_record(slot)!r} "
                                f"and {l1._make_record(s)!r}")
                        slot = s
                comparator.fast_comparisons += fast
                comparator.cascaded_comparisons += cascaded
        if slot >= 0:
            l1._tick += 1
            lru_col[slot] = l1._tick
            code = state_col[slot]
            if kind is AccessKind.WRITE and code == CODE_SS:
                # Silent shared speculative copies never serve writes;
                # the write must reach the version's owner on the bus.
                slot = -1
        if slot >= 0:
            l1stats.hits += 1
            word = (addr & mask) >> wshift
            if kind is AccessKind.READ:
                if vid == 0:
                    return AccessResult(
                        data_col[slot][word], hit_latency, True, name)
                if code >= CODE_SM:
                    high = high_col[slot]
                    sla = code <= CODE_SE and high < vid
                    if sla:
                        high_col[slot] = vid
                    return AccessResult(
                        data_col[slot][word], hit_latency, True, name,
                        sla_required=sla)
                if code == CODE_MODIFIED or code == CODE_EXCLUSIVE:
                    # First speculative read of an exclusive line:
                    # enters S-M/S-E (Figure 4 entry arc) and requires
                    # a retired-load SLA message.
                    l1._retag_slot(
                        slot,
                        CODE_SM if code == CODE_MODIFIED else CODE_SE,
                        0, vid)
                    return AccessResult(
                        data_col[slot][word], hit_latency, True, name,
                        sla_required=True)
                # OWNED/SHARED need an upgrade: _apply handles it.
            else:
                if vid == 0:
                    if code == CODE_MODIFIED or code == CODE_EXCLUSIVE:
                        if code == CODE_EXCLUSIVE:
                            state_col[slot] = CODE_MODIFIED
                        data_col[slot][word] = value
                        return AccessResult(
                            value, hit_latency, True, name)
                elif code == CODE_SM or code == CODE_SE:
                    mod = mod_col[slot]
                    high = high_col[slot]
                    if vid == mod and vid >= high:
                        # Same transaction re-writes its own latest
                        # version in place.
                        self._scrub_ss_copies(addr, mod)
                        data_col[slot][word] = value
                        if vid > high:
                            high_col[slot] = vid
                        return AccessResult(
                            value, hit_latency, True, name)
                # Upgrades, conflicts, and copy-creating writes:
                # _apply decides on the found version.
            return self._apply(core, slot, addr, vid, kind,
                               value, hit_latency, True, name)
        # Miss (or silent S-S copy on a write): fetch over the bus.
        latency = hit_latency
        l1stats.misses += 1
        latency += self._bus_transaction(now + latency)
        slot, transfer_latency, served_by = self._fetch(
            core, addr, vid, kind, now=now + latency)
        latency += transfer_latency
        return self._apply(core, slot, addr, vid, kind, value, latency,
                           False, served_by)

    def _fetch(self, core: int, addr: int, vid: int,
               kind: AccessKind, now: int = 0) -> Tuple[int, int, str]:
        """Bring a copy that ``vid`` hits into ``core``'s L1.

        Implements the bus snoop: exactly one cache responds with the
        version that would have hit (S-S copies stay silent); otherwise
        memory responds, possibly via the section 5.4 overflow-retrieval
        path.  Returns the L1 slot the copy landed in, the transfer
        latency and the responder's name.

        Snoop filter: only caches recorded as holding a version of the line
        are consulted.  A cache with no version of the address answers no
        snoop and undergoes no lazy processing, so skipping it is exact.
        """
        self.stats.bus_snoops += 1
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        latency = self._llc_latency  # bus + LLC lookup window
        spec_modified_asserted = l1.has_latest_spec_version(addr)
        holders = self._holders.get(base)
        if holders:
            for cache in self._peer_lists[core]:
                if cache not in holders:
                    continue
                if cache.has_latest_spec_version(addr):
                    spec_modified_asserted = True
                owner = cache.lookup_slot(base, vid)
                if owner is None or cache._store.state[owner] == CODE_SS:
                    continue
                self.stats.peer_transfers += 1
                if self.overflow_table is not None \
                        and cache is self.overflow_table:
                    latency += cache.hit_latency
                    self.overflow_table.refills += 1
                if self._multi_socket:
                    # The line transfer crosses the socket interconnect
                    # when the responder lives on another die.
                    latency += self._numa_hop(core, cache.name, base)
                slot = self._receive_from_owner(core, cache, owner, vid, kind)
                return slot, latency, cache.name
        # No cache can serve the request: memory responds.
        latency += self.config.memory_latency
        if self._multi_socket:
            # Memory is reached through the line's home socket's controller.
            latency += self._numa_hop(core, None, base)
        slot = self._fill_from_memory(l1, base, vid, spec_modified_asserted)
        return slot, latency, "memory"

    def _fill_from_memory(self, l1: VersionedCache, base: int, vid: int,
                          spec_modified_asserted: bool) -> int:
        """Install memory's copy of line ``base`` in ``l1``; returns its slot."""
        self.stats.memory_fetches += 1
        data = self.memory.read_line(base)
        if spec_modified_asserted:
            # Section 5.4: an S-M copy asserted "speculatively modified" but
            # could not serve this VID, so the non-speculative backup must
            # have overflowed to memory.  It returns as S-O(0, reqVID + 1).
            # (Also taken for non-speculative requests: installing a plain
            # E copy while a live S-M exists would shadow the speculative
            # version for later VIDs.)
            self.stats.overflow_retrievals += 1
            return self._install(l1, base, CODE_SO, data, 0,
                                 l1.effective_vid(vid) + 1)
        return self._install(l1, base, CODE_EXCLUSIVE, data, 0, 0)

    def _receive_from_owner(self, core: int, owner_cache: VersionedCache,
                            owner: int, vid: int, kind: AccessKind) -> int:
        """Install a usable copy of slot ``owner``'s version in ``core``'s L1.

        Returns the L1 slot.  The owner slot may be freed on the way (an
        invalidation, a migration, or an eviction the install triggers), so
        every read of it happens before the first call that can free it.
        """
        l1 = self.l1s[core]
        eff = l1.effective_vid(vid)
        store = owner_cache._store
        code = store.state[owner]
        base = store.addr[owner]
        mod = store.mod_vid[owner]
        high = store.high_vid[owner]
        data = list(store.data[owner])
        if code < CODE_SM:
            if vid > 0 or kind is AccessKind.WRITE:
                # First speculative touch (or any write) needs exclusive
                # access: every non-speculative copy of the line is
                # invalidated and the line migrates (Figure 4's entry arcs).
                self._invalidate_nonspec_everywhere(base)
                code = CODE_MODIFIED if DIRTY_BY_CODE[code] else CODE_EXCLUSIVE
                return self._install(l1, base, code, data, 0, 0)
            # Plain non-speculative read sharing: MOESI read hit.
            if code == CODE_MODIFIED:
                owner_cache._retag_slot(owner, CODE_OWNED, mod, high)
            elif code == CODE_EXCLUSIVE:
                owner_cache._retag_slot(owner, CODE_SHARED, mod, high)
            return self._install(l1, base, CODE_SHARED, data, 0, 0)
        state = STATE_FROM_CODE[code]
        if kind is AccessKind.READ:
            # Uncommitted value forwarding across caches: the requester gets
            # a shared speculative copy; the owner keeps tracking the global
            # highVID so later conflicting stores are still caught.
            if vid > 0:
                state, (mod, high) = read_transition(state, mod, high, eff)
                owner_cache._retag_slot(owner, state.code, mod, high)
            if state.latest_spec:
                # The copy's window is capped just above the requesting VID:
                # a strictly later VID's read must reach the owner to be
                # logged there.
                copy_high = eff + 1 if vid > 0 else high
            else:
                copy_high = high
            return self._install(l1, base, CODE_SS, data, mod, copy_high)
        # A write served by a remote speculative version: decide abort /
        # in-place migration / new version here, where both copies are
        # visible.  Non-speculative writes that land on a live speculative
        # version are conservative conflicts (eff = LC_VID < highVID).
        outcome = write_outcome(state, mod, high, eff)
        if outcome is WriteOutcome.ABORT or vid == 0:
            self._raise_misspeculation(owner_cache, owner, eff)
        self._scrub_ss_copies(base, mod)
        if outcome is WriteOutcome.IN_PLACE:
            # Same transaction writes from another core: the S-M version
            # migrates wholesale (speculative threads may move between
            # cores, section 5.2).
            owner_cache._remove_slot(owner)
            return self._install(l1, base, code, data, mod, max(high, eff))
        plan = plan_new_version(state, mod, high, eff)
        owner_cache._retag_slot(owner, plan.old_state.code, *plan.old_vids)
        l1.stats.version_copies += 1
        return self._install(l1, base, CODE_SM, data, *plan.new_vids)

    def _apply(self, core: int, slot: int, addr: int, vid: int,
               kind: AccessKind, value: Optional[int], latency: int,
               l1_hit: bool, served_by: str) -> AccessResult:
        """Apply the access to the version resident in L1 slot ``slot``."""
        l1 = self.l1s[core]
        store = l1._store
        eff = l1.effective_vid(vid)
        word = self._word(addr)
        code = store.state[slot]
        if kind is AccessKind.READ:
            sla_required = False
            if vid > 0:
                sla_required = code < CODE_SM or store.high_vid[slot] < eff
                if code == CODE_OWNED or code == CODE_SHARED:
                    # Entering the speculative world needs exclusive access.
                    code = self._upgrade(l1, slot)
                mod = store.mod_vid[slot]
                high = store.high_vid[slot]
                state, (new_mod, new_high) = read_transition(
                    STATE_FROM_CODE[code], mod, high, eff)
                if state.code != code or new_mod != mod or new_high != high:
                    l1._retag_slot(slot, state.code, new_mod, new_high)
            return AccessResult(store.data[slot][word], latency, l1_hit,
                                served_by, sla_required=sla_required)
        # Store path.
        assert value is not None
        if vid == 0:
            if code >= CODE_SM:
                # A non-speculative store landing on live speculative state
                # is a conservative conflict.
                self._raise_misspeculation(l1, slot, eff)
            if code == CODE_OWNED or code == CODE_SHARED:
                self._upgrade(l1, slot)
            l1._retag_slot(slot, CODE_MODIFIED, store.mod_vid[slot],
                           store.high_vid[slot])
            store.data[slot][word] = value
            return AccessResult(value, latency, l1_hit, served_by)
        if code == CODE_OWNED or code == CODE_SHARED:
            code = self._upgrade(l1, slot)
        state = STATE_FROM_CODE[code]
        mod = store.mod_vid[slot]
        high = store.high_vid[slot]
        outcome = write_outcome(state, mod, high, eff)
        if outcome is WriteOutcome.ABORT:
            self._raise_misspeculation(l1, slot, eff)
        if outcome is WriteOutcome.IN_PLACE:
            self._scrub_ss_copies(addr, mod)
            store.data[slot][word] = value
            store.high_vid[slot] = max(high, eff)
            return AccessResult(value, latency, l1_hit, served_by)
        if state.speculative:
            self._scrub_ss_copies(addr, mod)
        plan = plan_new_version(state, mod, high, eff)
        data = list(store.data[slot])
        data[word] = value
        base = store.addr[slot]
        l1._retag_slot(slot, plan.old_state.code, *plan.old_vids)
        l1.stats.version_copies += 1
        self._install(l1, base, CODE_SM, data, *plan.new_vids)
        return AccessResult(value, latency, l1_hit, served_by,
                            created_version=True)

    def _upgrade(self, cache: VersionedCache, slot: int) -> int:
        """Invalidate peer copies so ``slot`` becomes writable (O/S -> M/E).

        Returns the slot's new state code.
        """
        self.stats.bus_snoops += 1
        store = cache._store
        self._invalidate_nonspec_everywhere(store.addr[slot],
                                            keep=(cache, slot))
        code = (CODE_MODIFIED if store.state[slot] == CODE_OWNED
                else CODE_EXCLUSIVE)
        cache._retag_slot(slot, code, store.mod_vid[slot],
                          store.high_vid[slot])
        return code

    def _invalidate_nonspec_everywhere(
            self, addr: int,
            keep: Optional[Tuple[VersionedCache, int]] = None,
    ) -> None:  # hot-path
        """Acquire exclusivity: drop every non-speculative copy.

        ``keep`` is the ``(cache, slot)`` of the requester's own copy,
        which survives.  Silent shared speculative copies (``S-S``) are
        dropped as well — they are clean, never respond to snoops, and a
        stale one whose window survived its version's commit would
        otherwise overlap the speculative marking the requester is about
        to create.  Real speculative owners (``S-M``/``S-O``/``S-E``) are
        never present on this path: a live latest version would have
        served the request itself instead of a non-speculative owner.

        Only caches recorded in the presence map are visited, and each
        holder's version bucket is swept directly on the state column;
        a cache with no version of the line has nothing to invalidate.
        """
        base = self.l2.line_addr(addr)
        holders = self._holders.get(base)
        if not holders:
            return
        for cache in self._caches:
            if cache not in holders:
                continue
            bucket = cache._process_bucket(base)
            if bucket is None:
                continue
            state_col = cache._store.state
            keep_slot = (keep[1] if keep is not None and keep[0] is cache
                         else -1)
            for slot in list(bucket):  # lint-ok: RL006 (snapshot: bucket shrinks underneath)
                if slot == keep_slot:
                    continue
                code = state_col[slot]
                if code >= CODE_SM and code != CODE_SS:
                    continue
                cache._remove_slot(slot)

    def _scrub_ss_copies(self, addr: int, mod_vid: int) -> None:
        """Invalidate all S-S copies of version ``(addr, mod_vid)``.

        The speculative analogue of a MOESI upgrade: a write to a version
        must invalidate its silent read-only copies, otherwise they would
        keep serving the version's *pre-write* data.  On the bus it costs
        one snoop when any copy existed.
        """
        if self._drop_ss_copies(addr, mod_vid):
            self.stats.ss_invalidations += 1
            self.stats.bus_snoops += 1

    def _drop_ss_copies(self, addr: int, mod_vid: int) -> bool:  # hot-path
        """Drop every S-S copy of version ``(addr, mod_vid)``; any dropped?

        Filtered through the presence map like every other snoop; each
        holder's version bucket is swept directly on the state and modVID
        columns.
        """
        base = self.l2.line_addr(addr)
        holders = self._holders.get(base)
        if not holders:
            return False
        dropped = False
        for cache in self._caches:
            if cache not in holders:
                continue
            bucket = cache._process_bucket(base)
            if bucket is None:
                continue
            store = cache._store
            state_col = store.state
            mod_col = store.mod_vid
            for slot in list(bucket):  # lint-ok: RL006 (snapshot: bucket shrinks underneath)
                if state_col[slot] == CODE_SS and mod_col[slot] == mod_vid:
                    cache._remove_slot(slot)
                    dropped = True
        return dropped

    def _raise_misspeculation(self, cache: VersionedCache, slot: int,
                              vid: int) -> None:
        store = cache._store
        raise MisspeculationError(
            f"store with VID {vid} conflicts with version "
            f"{STATE_FROM_CODE[store.state[slot]]}"
            f"({store.mod_vid[slot]},{store.high_vid[slot]})",
            vid=vid, addr=store.addr[slot], cause=AbortCause.CONFLICT)

    # ------------------------------------------------------------------
    # Eviction handling
    # ------------------------------------------------------------------

    def _install(self, cache: VersionedCache, base: int, code: int,
                 data: List[int], mod_vid: int, high_vid: int) -> int:
        """Install a version given as columns; handle its victims.

        Returns the new slot.  ``data`` is handed over, not copied: the
        caller must not keep writing to it except through the returned
        slot.  Victims only ever move *down* the hierarchy, so the slot is
        still live when this returns.
        """
        slot, evicted = cache.install_slot(base, code, data, mod_vid,
                                           high_vid)
        for victim in evicted:
            self._handle_victim(cache, victim)
        return slot

    def _handle_victim(self, cache: VersionedCache, victim: Victim) -> None:
        base, code, data, mod, high, _, _, _ = victim
        if code == CODE_INVALID:
            return
        if cache not in self._llc_group:
            # L1 victim: S-S peer copies are silently droppable; clean
            # non-speculative lines need no writeback; everything else moves
            # down to the line's home LLC slice "as normal" (section 4.1) —
            # the single shared L2 on a flat machine, word list and all.
            if code in (CODE_SS, CODE_SHARED, CODE_EXCLUSIVE):
                return
            self._install(self._home_llc(base), base, code, data, mod, high)
            return
        # Last-level cache victim: section 5.4 rules.
        if code in (CODE_MODIFIED, CODE_OWNED):
            self.memory.write_line(base, data)
            return
        if code in (CODE_SHARED, CODE_EXCLUSIVE, CODE_SS):
            return
        if code == CODE_SO and mod == 0:
            # The non-speculative backup may overflow to memory; the S-M
            # assertion path of _fetch retrieves it if needed again.
            self.stats.nonspec_overflows += 1
            self.memory.write_line(base, data)
            return
        state = STATE_FROM_CODE[code]
        if self.overflow_table is not None:
            # Section 8 extension: spill the speculative version into the
            # memory-side table instead of aborting.
            self.stats.spec_overflow_spills += 1
            self.overflow_table.spill(CacheLine(base, state, data, mod, high))
            return
        raise SpeculativeOverflowError(
            f"speculative version {state}({mod},{high}) of 0x{base:x} "
            f"evicted past the LLC",
            vid=mod, addr=base, cause=AbortCause.CAPACITY_OVERFLOW)
