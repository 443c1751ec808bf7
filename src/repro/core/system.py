"""The HMTX system: the paper's programming interface over the hierarchy.

:class:`HMTXSystem` exposes the four new instructions of section 3.1 —
``beginMTX`` / ``commitMTX`` / ``abortMTX`` / ``initMTX`` — plus speculative
loads and stores that carry the issuing thread's VID register, on top of the
versioned cache hierarchy of :mod:`repro.coherence`.

It also owns the machinery that sits between the ISA and the protocol:

* VID allocation in original program order and the reset protocol (4.6/4.7),
* consecutive-commit-order enforcement (4.4: behaviour is undefined
  otherwise, so we make it a hard error),
* SLA bookkeeping for branch-speculative loads (5.1),
* transactional output buffering (4.7),
* read/write-set and abort statistics (Table 1, Figure 9).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..coherence.hierarchy import AccessResult, MemoryHierarchy
from ..coherence.protocol import AccessKind
from ..coherence.vid import VidSpace
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause, classify
from .config import MachineConfig
from .context import ThreadContext
from .sla import SlaTracker
from .stats import OpenTransaction, SystemStats


class HMTXSystem:
    """A multicore machine with HMTX extensions.

    Parameters
    ----------
    config:
        Machine configuration (defaults to the paper's Table 2).
    sla_enabled:
        When False, wrong-path loads genuinely mark cache lines (the naive
        pre-SLA design of section 5.1) — used by the SLA ablation.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        self.config = config or MachineConfig()
        self.hierarchy = self.config.build_hierarchy()
        self.vid_space = VidSpace(bits=self.config.vid_bits)
        self.stats = SystemStats(line_size=self.config.line_size)
        self.sla = SlaTracker(enabled=sla_enabled,
                              line_size=self.config.line_size)
        self.contexts: Dict[int, ThreadContext] = {}
        self.last_committed = 0
        self.active_vids: Set[int] = set()
        self.committed_output: list = []
        #: Lines marked by wrong-path loads in no-SLA mode (line address ->
        #: highest marking VID), to attribute the resulting aborts as
        #: *false* (SLA-preventable).  Entries are pruned once their
        #: marking VID commits: a committed mark is architecturally real
        #: and can no longer cause a false abort, so leaving it behind
        #: would misattribute a genuine later conflict on the same line.
        self._wrong_path_marks: Dict[int, int] = {}
        #: Scheduler-installed machine-quiesce hook (section 4.6: the
        #: reset scrub is a *global* barrier — every core must drain and
        #: acknowledge before any thread proceeds).  ``None`` until a
        #: :class:`~repro.runtime.scheduler.Scheduler` attaches; direct
        #: protocol-level users (the model checker, unit tests) pay the
        #: latency on the calling thread instead.
        self.quiesce_cb: Optional[Callable[[int], None]] = None
        #: The attached backend observer (an
        #: :class:`~repro.obs.session.ObsSession` or
        #: :class:`~repro.trace.capture.BackendTracer`), or None: told
        #: about every access, begin, commit, abort, VID allocation and
        #: reset.  Set and cleared only by the observer's attach/detach.
        self.observer = None

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------

    def thread(self, tid: int, core: int) -> ThreadContext:
        """Register (or fetch) the context of hardware thread ``tid``."""
        if tid not in self.contexts:
            if not 0 <= core < self.config.num_cores:
                raise ValueError(f"core {core} out of range")
            self.contexts[tid] = ThreadContext(tid=tid, core=core)
        return self.contexts[tid]

    def migrate(self, tid: int, core: int) -> None:
        """Move a thread to another core (section 5.2: speculative threads
        can migrate; their data is found through the transaction's VID)."""
        if not 0 <= core < self.config.num_cores:
            raise ValueError(f"core {core} out of range")
        self.contexts[tid].core = core

    def socket_of_core(self, core: int) -> int:
        """Socket owning ``core`` (0 for every core on a flat machine)."""
        return self.config.socket_of_core(core)

    def socket_of_thread(self, tid: int) -> int:
        """Socket the thread currently runs on (follows migration)."""
        return self.config.socket_of_core(self.contexts[tid].core)

    # ------------------------------------------------------------------
    # VID lifecycle (sections 4.6, 4.7)
    # ------------------------------------------------------------------

    def allocate_vid(self) -> int:
        """Allocate the next VID in original program order.

        Raises :class:`~repro.coherence.vid.VidExhaustedError` when the
        m-bit space is used up; the runtime must then drain commits and
        call :meth:`vid_reset`.
        """
        vid = self.vid_space.allocate()
        self.active_vids.add(vid)
        if self.observer is not None:
            self.observer.allocate(self, vid)
        return vid

    def ready_for_vid_reset(self) -> bool:
        """All VIDs used and every transaction committed (4.6)."""
        return self.vid_space.exhausted() and not self.active_vids

    def vid_reset(self) -> int:
        """Recycle the VID space; returns the broadcast latency.

        On a multi-socket machine with a scheduler attached, the scrub
        stalls *every* thread through :attr:`quiesce_cb` (the barrier of
        section 4.6 — no core may issue speculative accesses while VID
        tags are being cleared across the sliced LLC) and the resetting
        thread is charged only a 1-cycle issue slot, so the cost is not
        double-counted.  Flat machines keep the original model: the
        broadcast latency lands on the caller alone.
        """
        if self.active_vids:
            raise TransactionUsageError(
                f"VID reset with live transactions: {sorted(self.active_vids)}")
        latency = self.hierarchy.vid_reset()
        self.vid_space.reset()
        self.last_committed = 0
        self.stats.vid_resets += 1
        topo = self.config.topology
        if (self.quiesce_cb is not None and topo is not None
                and topo.sockets > 1):
            self.quiesce_cb(latency)
            latency = 1
        if self.observer is not None:
            self.observer.vid_reset(self)
        return latency

    # ------------------------------------------------------------------
    # The four MTX instructions (section 3.1)
    # ------------------------------------------------------------------

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
        return self.config.op_costs.mtx_instruction

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int:
        """``initMTX(pc)``: register this thread's recovery code."""
        self.contexts[tid].recovery_handler = handler
        return self.config.op_costs.mtx_instruction

    def commit_mtx(self, tid: int, vid: int) -> int:
        """``commitMTX(VID)``: atomic group commit of the whole MTX.

        Enforces the section 4.4/4.7 software contract: commits occur in
        consecutive VID order, exactly once, by exactly one thread of the
        transaction.  Returns the commit latency (cheap — lazy scheme).
        """
        if vid != self.last_committed + 1:
            raise TransactionUsageError(
                f"commitMTX({vid}) out of order; expected "
                f"{self.last_committed + 1}")
        if vid not in self.active_vids:
            raise TransactionUsageError(f"commitMTX({vid}) of unknown VID")
        latency = self.hierarchy.commit(vid)
        self.active_vids.discard(vid)
        self.last_committed = vid
        if self._wrong_path_marks:
            self._wrong_path_marks = {
                line: v for line, v in self._wrong_path_marks.items()
                if v > vid}
        self.stats.record_commit(vid)
        self.sla.on_commit(vid)
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

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult:  # hot-path
        """Load with the thread's current VID attached."""
        ctx = self.contexts[tid]
        vid = ctx.vid
        hierarchy = self.hierarchy
        observer = self.observer
        if observer is not None:
            hstats = hierarchy.stats
            overflows = hstats.spec_overflow_spills + hstats.overflow_retrievals
        try:
            if "load" in hierarchy.__dict__:
                # Instrumented (e.g. a protocol tracer wraps the bound
                # method as an instance attribute): go through the wrapper.
                result = hierarchy.load(ctx.core, addr, vid, now=now)
            else:
                hstats = hierarchy.stats
                hstats.loads += 1
                if vid > 0:
                    hstats.spec_loads += 1
                result = hierarchy._access(ctx.core, addr, vid,
                                           AccessKind.READ, None, now)
        except MisspeculationError as exc:
            # A load can misspeculate too: installing the fetched line may
            # evict a speculative version past the LLC (section 5.4).  The
            # abort must flush state here just like the store path.
            self._abort(explicit=False, cause=classify(exc), vid=exc.vid)
            if observer is not None:
                observer.abort(self, "load", exc, addr)
            raise
        if vid > 0:
            # The SLA (if one is needed) is sent when the load retires; it
            # is buffered store-queue style, so it adds traffic but no
            # program-order latency (section 5.1).  Inline record_load.
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)  # lint-ok: RL006 (once per transaction open)
            tx.read_lines.add(addr - (addr % stats.line_size))
            tx.spec_loads += 1
            stats.spec_loads += 1
            if result.sla_required:
                tx.slas_sent += 1
                stats.slas_sent += 1
        if observer is not None:
            observer.access(self, "load", tid, addr, vid, result.value, result,
                            hstats.spec_overflow_spills
                            + hstats.overflow_retrievals != overflows)
        return result

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult:  # hot-path
        """Store with the thread's current VID attached."""
        ctx = self.contexts[tid]
        vid = ctx.vid
        hierarchy = self.hierarchy
        observer = self.observer
        if observer is not None:
            hstats = hierarchy.stats
            overflows = hstats.spec_overflow_spills + hstats.overflow_retrievals
        try:
            if "store" in hierarchy.__dict__:
                result = hierarchy.store(ctx.core, addr, vid, value, now=now)
            else:
                hstats = hierarchy.stats
                hstats.stores += 1
                if vid > 0:
                    hstats.spec_stores += 1
                result = hierarchy._access(ctx.core, addr, vid,
                                           AccessKind.WRITE, value, now)
        except MisspeculationError as exc:
            line = addr - (addr % self.config.line_size)
            if not self.sla.enabled and line in self._wrong_path_marks:
                # A false abort the SLA mechanism would have avoided: the
                # conflicting mark came from a squashed wrong-path load.
                self.stats.false_aborts_triggered += 1
                exc.cause = AbortCause.WRONG_PATH
            self._abort(explicit=False, cause=classify(exc), vid=exc.vid)
            if observer is not None:
                observer.abort(self, "store", exc, addr)
            raise
        if vid > 0:
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)  # lint-ok: RL006 (once per transaction open)
            tx.write_lines.add(addr - (addr % stats.line_size))
            tx.spec_stores += 1
            stats.spec_stores += 1
            if self.sla.enabled and self.sla.check_store(addr, vid):
                self.stats.false_aborts_avoided += 1
        if observer is not None:
            observer.access(self, "store", tid, addr, vid, value, result,
                            hstats.spec_overflow_spills
                            + hstats.overflow_retrievals != overflows)
        return result

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]:
        """A branch-speculative load that will be squashed (section 5.1).

        With SLAs enabled the load's data flows through the hierarchy but no
        line is marked (the SLA is simply never sent).  With SLAs disabled
        the load marks the line like any speculative load — setting up the
        false misspeculations the mechanism exists to avoid.

        Returns ``(value, latency)``.
        """
        ctx = self.contexts[tid]
        self.stats.wrong_path_loads += 1
        if self.sla.enabled or ctx.vid == 0:
            value, latency = self.hierarchy.peek(ctx.core, addr, ctx.vid)
            if ctx.vid > 0:
                would_mark = self.hierarchy.l1s[ctx.core].would_mark(
                    addr, ctx.vid)
                self.sla.record_wrong_path(addr, ctx.vid, would_mark)
            return value, latency
        result = self.hierarchy.load(ctx.core, addr, ctx.vid)
        line = addr - (addr % self.config.line_size)
        if ctx.vid > self._wrong_path_marks.get(line, 0):
            self._wrong_path_marks[line] = ctx.vid
        return result.value, result.latency

    def kernel_load(self, tid: int, addr: int) -> AccessResult:
        """A load from interrupt/exception-handler code (section 5.2).

        Handler PCs fall outside the registered text segment, so no VID is
        attached regardless of the thread's VID register.
        """
        return self._kernel_access("kernel_load", tid, addr, None)

    def kernel_store(self, tid: int, addr: int, value: int) -> AccessResult:
        """A store from interrupt/exception-handler code (section 5.2).

        A handler store landing on live speculative state is a
        conservative conflict (the hierarchy treats any non-speculative
        write to a speculative version as one); it aborts with cause
        ``INTERRUPT`` so the contention manager knows speculation lost to
        kernel activity, not to another transaction.
        """
        return self._kernel_access("kernel_store", tid, addr, value)

    def _kernel_access(self, op: str, tid: int, addr: int,
                       value: Optional[int]) -> AccessResult:
        """A VID-0 hierarchy access; a store when ``value`` is not None."""
        core = self.contexts[tid].core
        hierarchy = self.hierarchy
        observer = self.observer
        if observer is not None:
            hstats = hierarchy.stats
            overflows = hstats.spec_overflow_spills + hstats.overflow_retrievals
        try:
            if value is None:
                result = hierarchy.load(core, addr, 0)
            else:
                result = hierarchy.store(core, addr, 0, value)
        except MisspeculationError as exc:
            exc.cause = AbortCause.INTERRUPT
            self._abort(explicit=False, cause=AbortCause.INTERRUPT,
                        vid=exc.vid)
            if observer is not None:
                observer.abort(self, op, exc, addr)
            raise
        if observer is not None:
            observer.access(self, op, tid, addr, 0,
                            result.value if value is None else value, result,
                            hstats.spec_overflow_spills
                            + hstats.overflow_retrievals != overflows)
        return result

    def output(self, tid: int, value: Any) -> None:
        """Emit program output; buffered until commit inside an MTX (4.7)."""
        ctx = self.contexts[tid]
        if ctx.vid > 0:
            ctx.buffer_output(value)
        else:
            self.committed_output.append(value)

    # ------------------------------------------------------------------
    # Abort/recovery plumbing
    # ------------------------------------------------------------------

    def _abort(self, explicit: bool,
               cause: Optional[AbortCause] = None, vid: int = 0) -> int:
        latency = self.hierarchy.abort()
        self.stats.record_abort(explicit=explicit, cause=cause, vid=vid)
        self.sla.on_abort()
        self._wrong_path_marks.clear()
        dropped = 0
        for ctx in self.contexts.values():
            dropped += ctx.discard_output()
            ctx.vid = 0
        self.active_vids.clear()
        # Aborted VIDs are recycled: re-executed transactions restart right
        # after the last committed VID.
        self.vid_space.rewind(self.last_committed + 1)
        return latency

    def recovery_handlers(self) -> Dict[int, Optional[Callable[..., Any]]]:
        """The per-thread recovery code registered via ``initMTX``."""
        return {tid: ctx.recovery_handler for tid, ctx in self.contexts.items()}

