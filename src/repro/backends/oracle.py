"""An ideal/oracle TM backend: the upper bound every real scheme chases.

The oracle machine has perfect advance knowledge of conflicts, so it pays
*none* of the costs that separate HMTX from SMTX: no per-access logging or
validation (SMTX's tax), no VID-window stalls or capacity aborts (HMTX's).
Speculative values still flow through per-VID buffers with uncommitted
value forwarding, commits still happen atomically in VID order, and cache
*timing* is still real (a plain non-speculative hierarchy) — only the TM
bookkeeping is free and aborts never strike.

Running a paradigm on ``get_backend("oracle")`` therefore yields the
paradigm's intrinsic speedup curve: the gap between an oracle run and an
HMTX/SMTX run of the same workload is exactly the cost of that scheme's
conflict-detection machinery.  (Compare the "HyTM upper bound" harnesses
of Alistarh et al. and Brown & Ravi.)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..coherence.hierarchy import AccessResult, MemoryHierarchy
from ..coherence.vid import VidSpace
from ..core.config import MachineConfig
from ..core.context import ThreadContext
from ..core.stats import SystemStats
from ..errors import MisspeculationError, TransactionUsageError
from ..smtx.memory import SmtxMemory
from ..smtx.system import BufferedTM, _MemoryFacade
from ..txctl.causes import AbortCause


class OracleTMSystem(BufferedTM):
    """A multicore with a zero-overhead, never-aborting TM."""

    access_label = "oracle"

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        # SLAs exist to suppress false aborts; an oracle has none either way.
        del sla_enabled
        self.config = config or MachineConfig()
        self.memory = SmtxMemory()
        self.timing = MemoryHierarchy(self.config.hierarchy_config())
        self.hierarchy = _MemoryFacade(self.memory, self.timing)
        # Perfect hardware tracks unbounded VIDs; the 4.6 reset protocol
        # never triggers.
        self.vid_space = VidSpace(bits=30)
        self.stats = SystemStats(line_size=self.config.line_size)
        self.contexts: Dict[int, ThreadContext] = {}
        self.active_vids: Set[int] = set()
        self.last_committed = 0
        self.committed_output: list = []
        #: The attached backend observer, or None (see
        #: :attr:`repro.core.system.HMTXSystem.observer`).
        self.observer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def allocate_vid(self) -> int:
        vid = self.vid_space.allocate()
        self.active_vids.add(vid)
        if self.observer is not None:
            self.observer.allocate(self, vid)
        return vid

    def vid_reset(self) -> int:
        raise TransactionUsageError("oracle VIDs are unbounded; no reset exists")

    # ------------------------------------------------------------------
    # The four MTX instructions
    # ------------------------------------------------------------------

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
        return self.config.op_costs.mtx_instruction

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int:
        self.contexts[tid].recovery_handler = handler
        return self.config.op_costs.mtx_instruction

    def commit_mtx(self, tid: int, vid: int) -> int:
        """Atomic in-order group commit; the oracle never needs to validate."""
        if vid != self.last_committed + 1:
            raise TransactionUsageError(
                f"commitMTX({vid}) out of order; expected "
                f"{self.last_committed + 1}")
        if vid not in self.active_vids:
            raise TransactionUsageError(f"commitMTX({vid}) of unknown VID")
        self.memory.commit(vid)
        self.active_vids.discard(vid)
        self.last_committed = vid
        self.stats.record_commit(vid)
        ctx = self.contexts[tid]
        for context in self.contexts.values():
            self.committed_output.extend(context.release_output(vid))
        if ctx.vid == vid:
            ctx.vid = 0
        latency = self.config.op_costs.mtx_instruction
        if self.observer is not None:
            self.observer.commit(self, tid, vid, latency)
        return latency

    def abort_mtx(self, tid: int, vid: int) -> int:
        """Software-detected misspeculation still aborts (the one way)."""
        self._abort()
        err = MisspeculationError(f"explicit abortMTX({vid})", vid=vid,
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
        value = self.memory.read(vid, addr)
        latency = self.timing.load(ctx.core, addr, 0, now=now).latency
        if vid > 0:
            self.stats.record_load(vid, addr, sla_sent=False)
        result = AccessResult(value, latency, True, "oracle")
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
            self.stats.record_store(vid, addr)
        result = AccessResult(value, latency, True, "oracle")
        if self.observer is not None:
            self.observer.access(self, "store", tid, addr, vid, value, result)
        return result

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]:
        """Perfect hardware never lets a squashed load mark anything."""
        ctx = self.contexts[tid]
        self.stats.wrong_path_loads += 1
        value = self.memory.read(ctx.vid, addr)
        _, latency = self.timing.peek(ctx.core, addr, 0)
        return value, latency

    def _abort(self) -> None:
        self.memory.abort_all()
        self.stats.record_abort(explicit=True, cause=AbortCause.EXPLICIT)
        for ctx in self.contexts.values():
            ctx.discard_output()
            ctx.vid = 0
        self.active_vids.clear()
        self.vid_space.rewind(self.last_committed + 1)
