"""Directory-based HMTX coherence — the paper's section 8 scaling path.

"Future work could adapt the HMTX coherence scheme to a directory-based
protocol to allow for efficient scaling to many more cores."

The snoopy design broadcasts every miss on a shared bus, so concurrent
misses serialise (``HierarchyConfig.bus_occupancy``) — fine at 4 cores,
ruinous at 16.  :class:`DirectoryHierarchy` replaces the bus with a banked
directory co-located with the L2:

* the **sharer set** of a line is the hierarchy's exact presence map
  (``_holders``): a cache appears iff it holds a version of the line, the
  memory-side overflow table of section 8 included.  Every install path,
  a §8 spill as much as an ordinary fill, updates it through the caches'
  shared presence map, so there is no second copy to fall out of step;
* a miss consults the line's home **bank** (address-interleaved, each with
  its own occupancy window) and probes only the line's holders, in name
  order, instead of broadcasting, so misses to different banks proceed in
  parallel;
* version selection, conflict detection, commit/abort, overflow — the
  entire HMTX protocol layer — is inherited unchanged, which is the point:
  the paper's scheme needs no global state to pick a version or detect a
  conflict, so it drops into a directory organisation directly.

Commit/abort remain broadcasts (they are O(1) register/event-log updates
per cache under the lazy scheme); the directory charges them a multicast
latency that grows logarithmically with core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Set, Tuple

from .cache import VersionedCache
from .hierarchy import AccessKind, HierarchyConfig, MemoryHierarchy
from .states import CODE_SS

_by_name = attrgetter("name")


@dataclass
class DirectoryStats:
    """Directory-specific event counters."""

    lookups: int = 0
    probes_sent: int = 0
    invalidations_sent: int = 0
    bank_wait_cycles: int = 0


@dataclass
class DirectoryConfig(HierarchyConfig):
    """Directory knobs on top of the base machine configuration."""

    #: Address-interleaved directory banks (each an independent pipeline).
    directory_banks: int = 8
    #: Cycles to look up a directory bank entry.
    directory_latency: int = 12
    #: Cycles each lookup occupies its bank.
    bank_occupancy: int = 4
    #: One-way point-to-point link latency between tiles.
    link_latency: int = 10


class DirectoryHierarchy(MemoryHierarchy):
    """The HMTX memory system with a banked directory instead of a bus."""

    def __init__(self, config: Optional[DirectoryConfig] = None) -> None:
        config = config or DirectoryConfig()
        super().__init__(config)
        self.dconfig = config
        self.dir_stats = DirectoryStats()
        #: Each socket carries its own ``directory_banks`` banks next to
        #: its LLC slice (one socket — today's flat bank array — when no
        #: multi-socket topology is declared).
        sockets = config.topology.sockets if self._multi_socket else 1
        self._bank_free: List[int] = [0] * (sockets * config.directory_banks)

    # ------------------------------------------------------------------
    # Sharer sets
    # ------------------------------------------------------------------

    def sharers_of(self, addr: int) -> Set[str]:
        """Names of the caches holding a version of ``addr``'s line."""
        return {cache.name
                for cache in self._holders.get(self.l2.line_addr(addr), ())}

    def check_directory_invariant(self) -> None:
        """Every cached version's holder appears in its line's sharer set.

        Under a multi-socket topology two further invariants bind the
        sliced LLC to the directory: a line's home slice owns its
        directory entry (the entry lives in the home socket's banks, so
        any version resident in a *non-home* slice would be invisible to
        the probes the home bank sends), and hence no version may reside
        in a non-home slice at all.
        """
        for cache in self._caches:
            in_llc = cache in self._llc_group
            for line in cache.all_lines():
                assert cache in self._holders.get(line.addr, ()), \
                    f"{cache.name} holds 0x{line.addr:x} unrecorded"
                if in_llc and self._multi_socket:
                    # Independently recomputed from the topology spec so a
                    # broken ``_home_llc`` router is caught, not trusted.
                    home = self.llc_slices[self._topo.home_socket(
                        line.addr, self.config.line_size)]
                    assert cache is home, \
                        (f"version of 0x{line.addr:x} resident in "
                         f"{cache.name}, not its home slice {home.name}")

    # ------------------------------------------------------------------
    # Timing: banked directory instead of one shared bus
    # ------------------------------------------------------------------

    def _bank_of(self, addr: int) -> int:
        line = addr // self.config.line_size
        bank = line % self.dconfig.directory_banks
        if not self._multi_socket:
            return bank
        # The entry lives in the home socket's bank array, co-located with
        # the home LLC slice.
        home = self._topo.home_socket(addr, self.config.line_size)
        return home * self.dconfig.directory_banks + bank

    def _link(self, socket_a: int, socket_b: int) -> int:
        """One-way tile-to-tile message latency.

        The flat machine keeps the historical uniform ``link_latency``;
        multi-socket machines charge the topology's intra/cross-socket
        hops.
        """
        if not self._multi_socket:
            return self.dconfig.link_latency
        return self._topo.hop_latency(socket_a, socket_b)

    def _bank_transaction(self, addr: int, now: int) -> int:
        bank = self._bank_of(addr)
        wait = max(0, self._bank_free[bank] - now)
        self._bank_free[bank] = now + wait + self.dconfig.bank_occupancy
        self.dir_stats.bank_wait_cycles += wait
        return wait + self.dconfig.directory_latency

    def _bus_transaction(self, now: int) -> int:
        """Misses are arbitrated per bank, not on one global bus.

        The base class calls this with only the current time; the actual
        per-bank accounting happens in :meth:`_fetch`, so this contributes
        nothing extra.
        """
        return 0

    # ------------------------------------------------------------------
    # Miss handling: directory lookup + targeted probes
    # ------------------------------------------------------------------

    def _fetch(self, core: int, addr: int, vid: int,
               kind: AccessKind, now: int = 0) -> Tuple[int, int, str]:
        self.stats.bus_snoops += 1     # kept: "coherence transactions"
        self.dir_stats.lookups += 1
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        req_socket = self._cache_socket[l1.name]
        home_socket = (self._topo.home_socket(base, self.config.line_size)
                       if self._multi_socket else 0)
        # Request travels to the line's home bank: one intra-socket hop on
        # the flat machine, a cross-socket hop when the home is remote.
        latency = self._bank_transaction(base, now) \
            + self._link(req_socket, home_socket)
        spec_modified_asserted = l1.has_latest_spec_version(addr)
        for cache in sorted(self._holders.get(base, ()), key=_by_name):
            if cache is l1:
                continue
            self.dir_stats.probes_sent += 1
            if cache.has_latest_spec_version(addr):
                spec_modified_asserted = True
            owner = cache.lookup_slot(base, vid)
            if owner is None or cache._store.state[owner] == CODE_SS:
                continue
            self.stats.peer_transfers += 1
            # The owner forwards the line directly to the requester
            # (three-hop protocol); charge the requester<->owner leg.
            owner_socket = self._cache_socket.get(cache.name, home_socket)
            latency += self._link(req_socket, owner_socket)
            if self.overflow_table is not None and cache is self.overflow_table:
                latency += cache.hit_latency
                self.overflow_table.refills += 1
            slot = self._receive_from_owner(core, cache, owner, vid, kind)
            return slot, latency, cache.name
        # Memory responds through the home bank.
        latency += self.config.memory_latency
        slot = self._fill_from_memory(l1, base, vid, spec_modified_asserted)
        return slot, latency, "memory"

    # ------------------------------------------------------------------
    # Invalidations become targeted multicasts
    # ------------------------------------------------------------------

    def _invalidate_nonspec_everywhere(
            self, addr: int,
            keep: Optional[Tuple[VersionedCache, int]] = None) -> None:
        # The bus machine's sweep, delivered as one directed invalidation
        # per holder.
        self.dir_stats.invalidations_sent += len(
            self._holders.get(self.l2.line_addr(addr), ()))
        super()._invalidate_nonspec_everywhere(addr, keep)

    def _scrub_ss_copies(self, addr: int, mod_vid: int) -> None:
        # One directed invalidation multicast, not a bus snoop.
        if self._drop_ss_copies(addr, mod_vid):
            self.stats.ss_invalidations += 1
            self.dir_stats.invalidations_sent += 1

    # ------------------------------------------------------------------
    # Broadcasts: multicast tree, log-depth latency
    # ------------------------------------------------------------------

    def _multicast_latency(self) -> int:
        if self._multi_socket:
            # Cross-socket tree over the interconnect, then on-die trees;
            # identical cost model to the base hierarchy's multi-socket
            # broadcast (the directory just delivers it point-to-point).
            return self._topo.multicast_latency(self.config.broadcast_latency)
        fanout_depth = max(1, math.ceil(math.log2(self.config.num_cores + 1)))
        return self.config.broadcast_latency \
            + fanout_depth * self.dconfig.link_latency

    def commit(self, vid: int) -> int:
        super().commit(vid)
        return self._multicast_latency()

    def abort(self) -> int:
        super().abort()
        return self._multicast_latency()
