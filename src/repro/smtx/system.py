"""The SMTX system object: software MTXs behind the HMTX-shaped API.

:class:`SMTXSystem` shares the MTX lifecycle of
:class:`repro.core.tm.TMSystem` with :class:`repro.core.system.HMTXSystem`,
so the paradigm executors of :mod:`repro.runtime.paradigms` drive it
unchanged — same ``beginMTX``/``commitMTX`` discipline, same statistics —
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

from typing import Callable, Optional, Tuple

from ..coherence.hierarchy import AccessResult, MemoryHierarchy
from ..core.config import MachineConfig
from ..core.tm import TMSystem
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause
from .costs import SmtxCosts, ValidationMode
from .memory import SmtxMemory, ValidationLog

#: Predicate deciding whether an access (addr, is_store) is validated.
ValidationPredicate = Callable[[int, bool], bool]


class _MemoryFacade:
    """Duck-types ``system.hierarchy`` for workload setup/result readers:
    backing memory and committed reads come from the software TM."""

    def __init__(self, smtx_memory: SmtxMemory) -> None:
        self._memory = smtx_memory

    @property
    def memory(self):
        return self._memory.backing

    def read_committed(self, addr: int) -> int:
        """Verification read of committed state (no timing, no stats)."""
        return self._memory.read(0, addr)


class BufferedTM(TMSystem):
    """What the two buffer-based backends share (SMTX and the oracle).

    Both keep speculative values in per-VID :class:`SmtxMemory` buffers
    (``self.memory``; forwarded reads are
    :meth:`SmtxMemory.read_with_source`) and mirror every access into a
    purely non-speculative commodity hierarchy (``self.timing``) for its
    latency — they run on commodity caches and pay the same miss costs as
    HMTX.  The timing hierarchy's *data* is never read (its backing store
    is separate), so speculative values cannot leak into committed state
    through writebacks.
    """

    #: ``AccessResult.served_by`` of this backend's accesses.
    access_label = "smtx"

    def __init__(self, config: Optional[MachineConfig]) -> None:
        config = config or MachineConfig()
        # Software VIDs are plain integers; 30 bits ~= unbounded, so the
        # 4.6 overflow/reset machinery never triggers.
        super().__init__(config, vid_bits=30)
        self.memory = SmtxMemory()
        # Timing-only commodity hierarchy (all accesses non-speculative).
        self.timing = MemoryHierarchy(config.hierarchy_config())
        self.hierarchy = _MemoryFacade(self.memory)

    def ready_for_vid_reset(self) -> bool:
        """Software VIDs are unbounded: the 4.6 reset never triggers."""
        return False

    def vid_reset(self) -> int:
        raise TransactionUsageError(
            f"{self.access_label} VIDs are unbounded; no reset exists")

    def _flush(self) -> int:
        self.memory.abort_all()
        return 0

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
        super().__init__(config)
        self.mode = mode
        self.costs = costs or SmtxCosts()
        self._validated = validation_predicate or (lambda addr, is_store: True)
        self.log = ValidationLog()
        #: Sequential work accumulated on the commit process's core.
        self.commit_process_cycles = 0

    # perfbench/tracer.py times these per backend class, reading each
    # from the class's own ``__dict__``: bind the shared lifecycle here.
    allocate_vid = TMSystem.allocate_vid
    begin_mtx = TMSystem.begin_mtx
    commit_mtx = TMSystem.commit_mtx
    vid_reset = BufferedTM.vid_reset

    def _begin_cost(self) -> int:
        # Entering/leaving a software transaction is a library call.
        return self.costs.instrument_read

    def _init_cost(self) -> int:
        return 1

    def _commit_versions(self, vid: int) -> int:
        """Commit via the commit process (validation + write application).

        The worker pays the handshake; the sequential per-entry validation
        work lands on ``commit_process_cycles``.
        """
        violation = self.log.validate(vid, self.memory)
        entries = self.log.entries(vid)
        self.commit_process_cycles += entries * self.costs.validate_entry
        self.commit_process_cycles += self.costs.commit_finalize
        if violation is not None:
            # A failed validation is SMTX's conflict detection: stamp the
            # same txctl cause HMTX conflicts carry, so the contention
            # manager (and the conformance suite) sees one taxonomy.
            self._abort(explicit=False, cause=AbortCause.CONFLICT, vid=vid)
            err = MisspeculationError(
                f"SMTX validation failed: VID {vid} read 0x{violation.addr:x} "
                f"= {violation.value_seen}, committed value differs",
                vid=vid, addr=violation.addr, cause=AbortCause.CONFLICT)
            if self.observer is not None:
                self.observer.abort(self, "commit_mtx", err)
            raise err
        self.memory.commit(vid)
        self.log.pop(vid)
        return self.costs.commit_finalize

    def _flush(self) -> int:
        self.log.clear()
        return super()._flush()

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
        self.stats.wrong_path_loads += 1
        value = self.memory.read(ctx.vid, addr)
        _, latency = self.timing.peek(ctx.core, addr, 0)
        return value, latency
