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

The event store is the :class:`~repro.trace.events.EventLog` ring: past
``capacity`` the oldest event is evicted, ``dropped`` counts the
evictions, and the race detector reports any truncated trace as a hard
finding (rule ``RC000`` — a racecheck over a partial window proves
nothing).
"""

from __future__ import annotations

from typing import Optional

from ..backends.protocol import attach_observer, detach_observer
from ..errors import MisspeculationError
from .events import EventLog


class BackendTracer(EventLog):
    """Records the architectural MTX events of one backend run.

    Usage::

        tracer = BackendTracer.attach(system)
        ... run ...
        analyse(tracer.events)
        tracer.detach()
    """

    def __init__(self, system, capacity: int = 1_000_000) -> None:
        super().__init__(capacity)
        self.system = system

    @classmethod
    def attach(cls, system) -> "BackendTracer":
        tracer = cls(system)
        attach_observer(system, tracer)
        return tracer

    def detach(self) -> None:
        """Clear the system's observer slot (idempotent)."""
        detach_observer(self.system, self)

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
