"""The SMTX system object: software MTXs behind the HMTX-shaped API.

:class:`SMTXSystem` mirrors :class:`repro.core.system.HMTXSystem` closely
enough that the paradigm executors of :mod:`repro.runtime.paradigms` drive
it unchanged — same ``beginMTX``/``commitMTX`` discipline, same statistics —
but the implementation is a software TM:

* versions live in per-VID write buffers (:class:`~repro.smtx.memory.
  SmtxMemory`), not cache lines;
* every access in the validation set is logged and charged the worker-side
  logging cost; the commit process's sequential work is accumulated in
  ``commit_process_cycles`` and folded into the run time by
  :func:`repro.smtx.runtime.run_smtx`;
* reads are genuinely re-validated against committed state at commit time —
  a real conflict aborts, exactly like the original runtime;
* there is no SLA machinery: software systems never see squashed wrong-path
  loads (the instrumentation *is* program code), which is also why they are
  immune to section 5.1's problem.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..coherence.hierarchy import AccessResult, MemoryHierarchy
from ..coherence.vid import VidSpace
from ..core.config import MachineConfig
from ..core.context import ThreadContext
from ..core.stats import SystemStats
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause
from .costs import SmtxCosts, ValidationMode
from .memory import SmtxMemory, ValidationLog

#: Predicate deciding whether an access (addr, is_store) is validated.
ValidationPredicate = Callable[[int, bool], bool]


class _MemoryFacade:
    """Duck-types ``system.hierarchy`` for workload setup/result readers.

    Values come from the software TM; latency comes from a real (purely
    non-speculative) cache hierarchy that SMTX accesses are mirrored into —
    SMTX runs on commodity caches and must pay the same miss costs as HMTX.
    The timing hierarchy's *data* is never read (its backing store is
    separate), so speculative values cannot leak into committed state
    through writebacks.
    """

    def __init__(self, smtx_memory: SmtxMemory, timing) -> None:
        self._memory = smtx_memory
        self._timing = timing

    @property
    def memory(self):
        return self._memory.backing

    def read_committed(self, addr: int) -> int:
        """Verification read of committed state (no timing, no stats)."""
        return self._memory.read(0, addr)

    def load(self, core: int, addr: int, vid: int) -> AccessResult:
        value = self._memory.read(vid, addr)
        latency = self._timing.load(core, addr, 0).latency
        return AccessResult(value, latency, True, "smtx")

    def store(self, core: int, addr: int, vid: int, value: int) -> AccessResult:
        self._memory.write(vid, addr, value)
        latency = self._timing.store(core, addr, 0, 0).latency
        return AccessResult(value, latency, True, "smtx")


class BufferedTM:
    """What the two buffer-based backends share (SMTX and the oracle).

    Both keep speculative values in per-VID :class:`SmtxMemory` buffers
    over a timing-only commodity hierarchy (``self.timing``), so thread
    registration, kernel accesses and output buffering are the same code
    (forwarded reads are :meth:`SmtxMemory.read_with_source`).  Subclasses
    set ``contexts``, ``memory``, ``timing``, ``committed_output`` and
    ``observer``.
    """

    #: ``AccessResult.served_by`` of this backend's accesses.
    access_label = "smtx"

    def thread(self, tid: int, core: int) -> ThreadContext:
        if tid not in self.contexts:
            self.contexts[tid] = ThreadContext(tid=tid, core=core)
        return self.contexts[tid]

    def ready_for_vid_reset(self) -> bool:
        """Software VIDs are unbounded: the 4.6 reset never triggers."""
        return False

    def kernel_load(self, tid: int, addr: int) -> AccessResult:
        ctx = self.contexts[tid]
        latency = self.timing.load(ctx.core, addr, 0).latency
        value = self.memory.read(0, addr)
        result = AccessResult(value, latency, True, self.access_label)
        if self.observer is not None:
            self.observer.access(self, "kernel_load", tid, addr, 0, value,
                                 result)
        return result

    def kernel_store(self, tid: int, addr: int, value: int) -> AccessResult:
        ctx = self.contexts[tid]
        latency = self.timing.store(ctx.core, addr, 0, 0).latency
        self.memory.write(0, addr, value)
        result = AccessResult(value, latency, True, self.access_label)
        if self.observer is not None:
            self.observer.access(self, "kernel_store", tid, addr, 0, value,
                                 result)
        return result

    def output(self, tid: int, value: Any) -> None:
        ctx = self.contexts[tid]
        if ctx.vid > 0:
            ctx.buffer_output(value)
        else:
            self.committed_output.append(value)


class SMTXSystem(BufferedTM):
    """A commodity multicore running the SMTX software runtime.

    Parameters
    ----------
    config:
        The machine (``num_cores`` here is the count available to *worker*
        threads; the commit process occupies one more core — callers build
        the config accordingly).
    mode:
        Validation policy (minimal / substantial / maximal sets).
    validation_predicate:
        Which accesses belong to the validation sets under the chosen mode
        (derived from the workload by :func:`repro.smtx.runtime.run_smtx`).
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 mode: ValidationMode = ValidationMode.MAXIMAL,
                 validation_predicate: Optional[ValidationPredicate] = None,
                 costs: Optional[SmtxCosts] = None) -> None:
        self.config = config or MachineConfig()
        self.mode = mode
        self.costs = costs or SmtxCosts()
        self._validated = validation_predicate or (lambda addr, is_store: True)
        self.memory = SmtxMemory()
        self.log = ValidationLog()
        # Timing-only commodity hierarchy (all accesses non-speculative).
        self.timing = MemoryHierarchy(self.config.hierarchy_config())
        self.hierarchy = _MemoryFacade(self.memory, self.timing)
        # Software VIDs are plain integers; 30 bits ~= unbounded, so the
        # 4.6 overflow/reset machinery never triggers for SMTX.
        self.vid_space = VidSpace(bits=30)
        self.stats = SystemStats(line_size=self.config.line_size)
        self.contexts: Dict[int, ThreadContext] = {}
        self.active_vids: Set[int] = set()
        self.last_committed = 0
        self.committed_output: list = []
        #: Sequential work accumulated on the commit process's core.
        self.commit_process_cycles = 0
        self.forwarded_words = 0
        #: The attached backend observer, or None (see
        #: :attr:`repro.core.system.HMTXSystem.observer`).
        self.observer = None

    # ------------------------------------------------------------------
    # HMTXSystem-shaped surface used by the scheduler/paradigms
    # ------------------------------------------------------------------

    def allocate_vid(self) -> int:
        vid = self.vid_space.allocate()
        self.active_vids.add(vid)
        if self.observer is not None:
            self.observer.allocate(self, vid)
        return vid

    def vid_reset(self) -> int:
        raise TransactionUsageError("SMTX VIDs are unbounded; no reset exists")

    def begin_mtx(self, tid: int, vid: int) -> int:
        if vid > 0:
            if vid <= self.last_committed:
                raise TransactionUsageError(
                    f"beginMTX({vid}) after VID {self.last_committed} committed")
            self.active_vids.add(vid)
        ctx = self.contexts[tid]
        previous, ctx.vid = ctx.vid, vid
        if self.observer is not None:
            self.observer.begin(self, tid, vid, previous)
        # Entering/leaving a software transaction is a library call.
        return self.costs.instrument_read

    def init_mtx(self, tid: int, handler: Any) -> int:
        self.contexts[tid].recovery_handler = handler
        return 1

    def commit_mtx(self, tid: int, vid: int) -> int:
        """Commit via the commit process (validation + write application).

        The worker pays the handshake; the sequential per-entry validation
        work lands on ``commit_process_cycles``.
        """
        if vid != self.last_committed + 1:
            raise TransactionUsageError(
                f"commitMTX({vid}) out of order; expected {self.last_committed + 1}")
        violation = self.log.validate(vid, self.memory)
        entries = self.log.entries(vid)
        self.commit_process_cycles += entries * self.costs.validate_entry
        self.commit_process_cycles += self.costs.commit_finalize
        if violation is not None:
            # A failed validation is SMTX's conflict detection: stamp the
            # same txctl cause HMTX conflicts carry, so the contention
            # manager (and the conformance suite) sees one taxonomy.
            self._abort(cause=AbortCause.CONFLICT, vid=vid)
            err = MisspeculationError(
                f"SMTX validation failed: VID {vid} read 0x{violation.addr:x} "
                f"= {violation.value_seen}, committed value differs",
                vid=vid, addr=violation.addr, cause=AbortCause.CONFLICT)
            if self.observer is not None:
                self.observer.abort(self, "commit_mtx", err)
            raise err
        self.memory.commit(vid)
        self.log.pop(vid)
        self.active_vids.discard(vid)
        self.last_committed = vid
        self.stats.record_commit(vid)
        ctx = self.contexts[tid]
        for context in self.contexts.values():
            self.committed_output.extend(context.release_output(vid))
        if ctx.vid == vid:
            ctx.vid = 0
        if self.observer is not None:
            self.observer.commit(self, tid, vid, self.costs.commit_finalize)
        return self.costs.commit_finalize

    def abort_mtx(self, tid: int, vid: int) -> int:
        self._abort(explicit=True, cause=AbortCause.EXPLICIT, vid=vid)
        err = MisspeculationError("explicit abortMTX", vid=vid,
                                  cause=AbortCause.EXPLICIT)
        if self.observer is not None:
            self.observer.abort(self, "abort_mtx", err)
        raise err

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult:
        ctx = self.contexts[tid]
        vid = ctx.vid
        value, source_vid = self.memory.read_with_source(vid, addr)
        latency = self.timing.load(ctx.core, addr, 0, now=now).latency
        if vid > 0:
            latency += self.costs.instrument_read
            if source_vid not in (0, vid):
                # Uncommitted value forwarding through software queues.
                latency += self.costs.forward_entry
                self.forwarded_words += 1
            sla = False
            if self._validated(addr, False) and source_vid != vid:
                self.log.log_read(vid, addr, value)
                latency += self.costs.log_entry
                sla = True  # reused field: "this access was logged"
            self.stats.record_load(vid, addr, sla_sent=False)
            result = AccessResult(value, latency, True, "smtx",
                                  sla_required=sla)
        else:
            result = AccessResult(value, latency, True, "smtx")
        if self.observer is not None:
            self.observer.access(self, "load", tid, addr, vid, value, result)
        return result

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult:
        ctx = self.contexts[tid]
        vid = ctx.vid
        latency = self.timing.store(ctx.core, addr, 0, 0, now=now).latency
        self.memory.write(vid, addr, value)
        if vid > 0:
            latency += self.costs.instrument_write
            if self._validated(addr, True):
                self.log.log_write(vid, addr, value)
                latency += self.costs.log_entry
            self.stats.record_store(vid, addr)
        result = AccessResult(value, latency, True, "smtx")
        if self.observer is not None:
            self.observer.access(self, "store", tid, addr, vid, value, result)
        return result

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]:
        """Squashed loads are invisible to a software TM (no logging)."""
        ctx = self.contexts[tid]
        value = self.memory.read(ctx.vid, addr)
        _, latency = self.timing.peek(ctx.core, addr, 0)
        return value, latency

    def _abort(self, explicit: bool = False,
               cause: Optional[AbortCause] = None, vid: int = 0) -> None:
        self.memory.abort_all()
        self.log.clear()
        self.stats.record_abort(explicit=explicit, cause=cause, vid=vid)
        for ctx in self.contexts.values():
            ctx.discard_output()
            ctx.vid = 0
        self.active_vids.clear()
        self.vid_space.rewind(self.last_committed + 1)
