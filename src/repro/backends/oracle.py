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

from typing import Optional, Tuple

from ..coherence.hierarchy import AccessResult
from ..core.config import MachineConfig
from ..smtx.system import BufferedTM


class OracleTMSystem(BufferedTM):
    """A multicore with a zero-overhead, never-aborting TM.

    Commit applies the VID's buffer for one ``mtx_instruction`` (the
    oracle never validates); only ``abortMTX`` (software-detected
    misspeculation) aborts.
    """

    access_label = "oracle"

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        # SLAs exist to suppress false aborts; an oracle has none either way.
        del sla_enabled
        super().__init__(config)

    def _commit_versions(self, vid: int) -> int:
        self.memory.commit(vid)
        return self.config.op_costs.mtx_instruction

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
