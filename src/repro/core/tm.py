"""The MTX lifecycle every TM backend shares (section 3.1).

:class:`TMSystem` implements the programming interface once for every
backend in :mod:`repro.backends`: ``beginMTX`` / ``commitMTX`` /
``abortMTX`` / ``initMTX`` with in-order group commit, VID allocation in
program order, thread registration and output buffering (4.7).  A
subclass adds its memory operations, the VID-reset pair and two hooks —
:meth:`~TMSystem._commit_versions` and :meth:`~TMSystem._flush` — and
overrides :meth:`~TMSystem._begin_cost` / :meth:`~TMSystem._init_cost`
where its instruction costs differ.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional, Set

from ..coherence.vid import VidSpace
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause
from .config import MachineConfig
from .context import ThreadContext
from .stats import SystemStats


class TMSystem(abc.ABC):
    """Thread, VID, commit, abort and output bookkeeping of one machine
    whose VID space is ``vid_bits`` wide."""

    def __init__(self, config: MachineConfig, vid_bits: int) -> None:
        self.config = config
        self.vid_space = VidSpace(bits=vid_bits)
        self.stats = SystemStats(line_size=config.line_size)
        self.contexts: Dict[int, ThreadContext] = {}
        self.active_vids: Set[int] = set()
        self.last_committed = 0
        self.committed_output: list = []
        #: The attached backend observer (an
        #: :class:`~repro.obs.session.ObsSession` or
        #: :class:`~repro.trace.capture.BackendTracer`), or None: told
        #: about every access, begin, commit, abort, VID allocation and
        #: reset.  Set and cleared only by the observer's attach/detach.
        self.observer = None

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _commit_versions(self, vid: int) -> int:
        """Make ``vid``'s speculative versions architectural; returns the
        commit latency."""

    @abc.abstractmethod
    def _flush(self) -> int:
        """Discard every uncommitted version; returns the abort latency."""

    def _begin_cost(self) -> int:
        """Latency of ``beginMTX``."""
        return self.config.op_costs.mtx_instruction

    def _init_cost(self) -> int:
        """Latency of ``initMTX``."""
        return self.config.op_costs.mtx_instruction

    # ------------------------------------------------------------------
    # The lifecycle (section 3.1)
    # ------------------------------------------------------------------

    def thread(self, tid: int, core: int) -> ThreadContext:
        """Register (or fetch) the context of hardware thread ``tid``."""
        if tid not in self.contexts:
            if not 0 <= core < self.config.num_cores:
                raise ValueError(f"core {core} out of range")
            self.contexts[tid] = ThreadContext(tid=tid, core=core)
        return self.contexts[tid]

    def recovery_handlers(self) -> Dict[int, Optional[Callable[..., Any]]]:
        """The per-thread recovery code registered via ``initMTX``."""
        return {tid: ctx.recovery_handler for tid, ctx in self.contexts.items()}

    def allocate_vid(self) -> int:
        """Allocate the next VID in original program order.

        Raises :class:`~repro.coherence.vid.VidExhaustedError` when the
        VID space is used up; the runtime must then drain commits and
        call ``vid_reset``.
        """
        vid = self.vid_space.allocate()
        self.active_vids.add(vid)
        if self.observer is not None:
            self.observer.allocate(self, vid)
        return vid

    def begin_mtx(self, tid: int, vid: int) -> int:
        """``beginMTX(VID)``: set the thread's VID register.

        VID 0 moves the thread back to non-speculative execution without
        committing anything.  Returns the instruction latency.
        """
        if vid < 0 or vid > self.vid_space.max_vid:
            raise TransactionUsageError(f"VID {vid} outside 0..{self.vid_space.max_vid}")
        if vid > 0:
            if vid <= self.last_committed:
                raise TransactionUsageError(
                    f"beginMTX({vid}) after VID {self.last_committed} committed")
            self.active_vids.add(vid)
        ctx = self.contexts[tid]
        previous, ctx.vid = ctx.vid, vid
        if self.observer is not None:
            self.observer.begin(self, tid, vid, previous)
        return self._begin_cost()

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int:
        """``initMTX(pc)``: register this thread's recovery code."""
        self.contexts[tid].recovery_handler = handler
        return self._init_cost()

    def commit_mtx(self, tid: int, vid: int) -> int:
        """``commitMTX(VID)``: atomic group commit of the whole MTX.

        Enforces the section 4.4/4.7 software contract: commits occur in
        consecutive VID order, exactly once, by exactly one thread of the
        transaction.  Releases the output buffered under ``vid`` and
        returns the backend's commit latency.
        """
        if vid != self.last_committed + 1:
            raise TransactionUsageError(
                f"commitMTX({vid}) out of order; expected "
                f"{self.last_committed + 1}")
        if vid not in self.active_vids:
            raise TransactionUsageError(f"commitMTX({vid}) of unknown VID")
        latency = self._commit_versions(vid)
        self.active_vids.discard(vid)
        self.last_committed = vid
        self.stats.record_commit(vid)
        ctx = self.contexts[tid]
        for context in self.contexts.values():
            self.committed_output.extend(context.release_output(vid))
        if ctx.vid == vid:
            ctx.vid = 0
        if self.observer is not None:
            self.observer.commit(self, tid, vid, latency)
        return latency

    def abort_mtx(self, tid: int, vid: int) -> int:
        """``abortMTX(VID)``: software-detected misspeculation.

        Flushes *all* uncommitted transactional state (section 4.4's
        simple-and-rare abort philosophy), then raises
        :class:`~repro.errors.MisspeculationError` so every thread unwinds
        to its registered recovery code (the runtime restarts execution
        from the last committed iteration).
        """
        self._abort(explicit=True, cause=AbortCause.EXPLICIT, vid=vid)
        err = MisspeculationError(f"explicit abortMTX({vid})", vid=vid,
                                  cause=AbortCause.EXPLICIT)
        if self.observer is not None:
            self.observer.abort(self, "abort_mtx", err)
        raise err

    def output(self, tid: int, value: Any) -> None:
        """Emit program output; buffered until commit inside an MTX (4.7)."""
        ctx = self.contexts[tid]
        if ctx.vid > 0:
            ctx.buffer_output(value)
        else:
            self.committed_output.append(value)

    def _abort(self, explicit: bool,
               cause: Optional[AbortCause] = None, vid: int = 0) -> int:
        """Flush all uncommitted state and record the abort; returns the
        flush latency."""
        latency = self._flush()
        self.stats.record_abort(explicit=explicit, cause=cause, vid=vid)
        for ctx in self.contexts.values():
            ctx.discard_output()
            ctx.vid = 0
        self.active_vids.clear()
        # Aborted VIDs are recycled: re-executed transactions restart right
        # after the last committed VID.
        self.vid_space.rewind(self.last_committed + 1)
        return latency
