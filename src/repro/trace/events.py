"""Protocol event tracing.

A :class:`ProtocolTracer` attaches to a :class:`~repro.coherence.hierarchy.
MemoryHierarchy` and records the protocol-level story of an execution:
accesses with the version they hit, version creations (the Figure 4 copy
arcs), commits, aborts, overflow spills, and misspeculations.  The trace is
what Figure 5 is for one address, for a whole run — invaluable both for
debugging workloads and for teaching the protocol.

The tracer occupies the hierarchy's ``observer`` slot (a
:class:`~repro.coherence.hierarchy.HierarchyObserver`): the hierarchy
reports each access and broadcast to it, and an untraced run pays one
``observer is not None`` test per report site.  :class:`EventLog` is the
event store it shares with :class:`~repro.trace.capture.BackendTracer`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..backends.protocol import attach_observer, detach_observer
from ..coherence.hierarchy import AccessResult, MemoryHierarchy
from ..errors import MisspeculationError


@dataclass(frozen=True)
class TraceEvent:
    """One protocol-level event."""

    seq: int
    kind: str          # load/store/commit/abort/misspeculation/...
    core: Optional[int] = None
    vid: Optional[int] = None
    addr: Optional[int] = None
    detail: str = ""
    #: Data value moved by a load/store (None for non-access events).
    #: The race detector replays value flow from this field.
    value: Optional[int] = None

    def render(self) -> str:
        parts = [f"{self.seq:>6}", self.kind.ljust(14)]
        if self.core is not None:
            parts.append(f"core{self.core}")
        if self.vid is not None:
            parts.append(f"vid={self.vid}")
        if self.addr is not None:
            parts.append(f"addr=0x{self.addr:x}")
        if self.value is not None:
            parts.append(f"val={self.value}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventLog:
    """A ring of the most recent ``capacity`` :class:`TraceEvent` s.

    Past ``capacity`` the *oldest* event is evicted for each new one, so a
    long run keeps its most recent window (where the interesting endgame
    usually is) instead of silently freezing at the start.  ``dropped``
    counts the evictions (0 means the trace is complete);
    :func:`~repro.trace.format.format_trace` surfaces it in the header.
    ``events`` is a deque without ``maxlen`` so ``capacity`` can be
    adjusted after construction (tests do).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self._seq = 0

    def record(self, kind: str, core: Optional[int] = None,
               vid: Optional[int] = None, addr: Optional[int] = None,
               detail: str = "", value: Optional[int] = None) -> None:
        while len(self.events) >= self.capacity:
            self.events.popleft()
            self.dropped += 1
        self._seq += 1
        self.events.append(TraceEvent(self._seq, kind, core, vid, addr,
                                      detail, value))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class ProtocolTracer(EventLog):
    """Records the protocol events of one hierarchy.

    Usage::

        tracer = ProtocolTracer.attach(system.hierarchy)
        ... run ...
        print(format_trace(tracer.events))
        tracer.detach()

    Filters: pass ``addresses={...}`` to trace only specific lines (line
    addresses), or leave None to trace everything.
    """

    def __init__(self, hierarchy: MemoryHierarchy,
                 addresses: Optional[set] = None,
                 capacity: int = 100_000) -> None:
        super().__init__(capacity)
        self.hierarchy = hierarchy
        self.addresses = addresses

    @classmethod
    def attach(cls, hierarchy: MemoryHierarchy,
               addresses: Optional[set] = None) -> "ProtocolTracer":
        tracer = cls(hierarchy, addresses=addresses)
        attach_observer(hierarchy, tracer)
        return tracer

    def detach(self) -> None:
        """Clear the hierarchy's observer slot (idempotent)."""
        detach_observer(self.hierarchy, self)

    def _line(self, addr: int) -> int:
        return addr - (addr % self.hierarchy.config.line_size)

    # ------------------------------------------------------------------
    # Hierarchy events
    # ------------------------------------------------------------------

    def access_start(self, hierarchy: MemoryHierarchy,
                     addr: int) -> Optional[int]:
        """Versions of ``addr`` cached before the access (None: filtered)."""
        if self.addresses is not None \
                and self._line(addr) not in self.addresses:
            return None
        return len(hierarchy.versions_everywhere(addr))

    def access(self, hierarchy: MemoryHierarchy, op: str, core: int,
               addr: int, vid: int, result: AccessResult,
               start: Optional[int]) -> None:
        if start is None:
            return
        detail = f"hit={result.served_by}"
        if result.created_version:
            detail += " +version"
        if result.sla_required:
            detail += " sla"
        self.record(op, core, vid, addr, detail=detail, value=result.value)
        after = len(hierarchy.versions_everywhere(addr))
        if after != start:
            self.record("versions", core, vid, addr,
                        detail=f"{start} -> {after} cached")

    def misspeculation(self, hierarchy: MemoryHierarchy, core: int,
                       addr: int, vid: int, err: MisspeculationError,
                       start: Optional[int]) -> None:
        if start is not None:
            self.record("misspeculation", core, vid, addr, detail=err.reason)

    def commit(self, hierarchy: MemoryHierarchy, vid: int) -> None:
        self.record("commit", vid=vid, detail=f"VID {vid}")

    def abort(self, hierarchy: MemoryHierarchy) -> None:
        self.record("abort", detail="all uncommitted state flushed")

    def vid_reset(self, hierarchy: MemoryHierarchy) -> None:
        self.record("vid_reset", detail="VID namespace recycled")

    # ------------------------------------------------------------------

    def for_address(self, addr: int) -> List[TraceEvent]:
        line = self._line(addr)
        return [e for e in self.events
                if e.addr is not None and self._line(e.addr) == line]
