"""Backend-level MTX event capture, uniform across TM implementations.

:class:`~repro.trace.events.ProtocolTracer` records cache-protocol events
and therefore only attaches to a real :class:`~repro.coherence.hierarchy.
MemoryHierarchy` — the HMTX backend.  The race detector
(:mod:`repro.analysis.racecheck`) needs the *architectural* story —
which VID loaded/stored which value at which address, and when commits,
aborts and VID resets happened — for **every** registered backend, so it
can replay MTX semantics against any TM implementation.

:class:`BackendTracer` is a :class:`~repro.backends.BackendObserver`: it
occupies a :class:`~repro.backends.TMBackend`'s ``observer`` slot and
turns the accesses, commits, aborts and VID resets the backend reports
into events.  Untraced runs pay one ``is not None`` test per event site,
and the recorded stream reuses :class:`TraceEvent` so all of the
existing formatting/query tooling applies.

Event kinds produced:

``load`` / ``store``
    One architectural memory access: ``vid`` is the issuing thread's VID
    *at issue time* (0 for non-speculative and kernel accesses), ``value``
    the data moved.  Accesses that raise a misspeculation are recorded as
    ``misspeculation`` instead.
``commit``
    A successful ``commitMTX(vid)`` — the group-commit point.
``abort``
    All uncommitted state was flushed (explicit ``abortMTX`` or the
    recovery path of a detected misspeculation).
``misspeculation``
    An access or commit detected a violation; always followed by the
    ``abort`` event recording the flush.
``vid_reset``
    The section 4.6 VID-namespace recycle.

Wrong-path (squashed) loads are deliberately *not* recorded: they are
architecturally invisible, and the race detector must not treat them as
real reads.

The event store is a **ring**: past ``capacity`` the *oldest* event is
evicted for each new one, so a long run always keeps its most recent
window (where the interesting endgame usually is) instead of silently
freezing at the start.  ``dropped_events`` counts the evictions;
:func:`~repro.trace.format.format_trace` surfaces it in the header and
the race detector reports any truncated trace as a hard finding (rule
``RC000`` — a racecheck over a partial window proves nothing).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..backends.protocol import attach_observer, detach_observer
from ..errors import MisspeculationError
from .events import TraceEvent


class BackendTracer:
    """Records the architectural MTX events of one backend run.

    Usage::

        tracer = BackendTracer.attach(system)
        ... run ...
        analyse(tracer.events)
        tracer.detach()
    """

    def __init__(self, system, capacity: int = 1_000_000) -> None:
        self.system = system
        self.capacity = capacity
        #: Ring of the most recent ``capacity`` events (oldest evicted
        #: first).  A deque without ``maxlen`` so ``capacity`` can be
        #: adjusted after construction (tests do).
        self.events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self._seq = 0

    @property
    def dropped_events(self) -> int:
        """Events evicted from the ring (0 means the trace is complete)."""
        return self.dropped

    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, system) -> "BackendTracer":
        tracer = cls(system)
        attach_observer(system, tracer)
        return tracer

    def detach(self) -> None:
        """Clear the system's observer slot (idempotent)."""
        detach_observer(self.system, self)

    # ------------------------------------------------------------------

    def record(self, kind: str, core: Optional[int] = None,
               vid: Optional[int] = None, addr: Optional[int] = None,
               detail: str = "", value: Optional[int] = None) -> None:
        while len(self.events) >= self.capacity:
            self.events.popleft()
            self.dropped += 1
        self._seq += 1
        self.events.append(TraceEvent(self._seq, kind, core, vid, addr,
                                      detail, value))

    # ------------------------------------------------------------------
    # Backend events
    # ------------------------------------------------------------------

    def access(self, system, op: str, tid: int, addr: int, vid: int,
               value: int, result, overflowed: bool = False) -> None:
        self.record("store" if op.endswith("store") else "load", vid=vid,
                    addr=addr, value=value,
                    detail="kernel" if op.startswith("kernel") else "")

    def abort(self, system, op: str, err: MisspeculationError,
              addr: Optional[int] = None) -> None:
        if op == "abort_mtx":
            self.record("abort", vid=err.vid,
                        detail=f"explicit abortMTX({err.vid})")
        elif op == "commit_mtx":
            # SMTX-style commit-time validation failure: the abort
            # already flushed all uncommitted state.
            self.record("misspeculation", vid=err.vid, addr=err.addr,
                        detail=err.reason)
            self.record("abort", detail="uncommitted state flushed "
                                        "(commit validation failed)")
        else:
            self.record("misspeculation", vid=err.vid, addr=addr,
                        detail=err.reason)
            self.record("abort", detail="uncommitted state flushed "
                                        f"({op} misspeculated)")

    def commit(self, system, tid: int, vid: int, latency: int) -> None:
        self.record("commit", vid=vid, detail=f"VID {vid}")

    def vid_reset(self, system) -> None:
        self.record("vid_reset", detail="VID namespace recycled")

    def begin(self, system, tid: int, vid: int, previous: int) -> None:
        """Not traced: the VID an access carries already says it."""

    def allocate(self, system, vid: int) -> None:
        """Not traced: a VID matters once an access or commit uses it."""

    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
