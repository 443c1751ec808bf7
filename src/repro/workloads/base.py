"""Workload interface: how benchmark models plug into the paradigms.

A workload describes one benchmark's hot loop as per-iteration op-generator
*fragments*, which the paradigm executors (:mod:`repro.runtime.paradigms`)
compose with transaction management:

* ``sequential_iteration(i, carry)`` — the whole loop body, for the
  sequential baseline.  ``carry`` models loop-carried register state (e.g.
  the current linked-list node); the fragment's generator *return value* is
  the next carry.
* ``stage1_iteration(i, carry)`` / ``stage2_iteration(i)`` — the DSWP
  partition of the body.  Stage 1 holds the loop-carried work (pointer
  chasing, input consumption) and communicates with stage 2 **through
  versioned memory** (like Figure 3's ``producedNode``), not through
  explicit queues — only the VID travels on a queue.  Stage 2 must be
  iteration-independent so PS-DSWP can replicate it.
* ``doall_iteration(i)`` — fully independent body for DOALL workloads.

``initial_carry``/``recover_carry`` let the executors (re)compute register
state from committed memory after an abort.

Scale note: paper transactions run 10^6–10^8 instructions; these models are
scaled down ~1000x so a pure-Python simulation finishes, preserving access
*patterns* (pointer chasing, R/W-set footprints, branch behaviour) rather
than absolute counts.  EXPERIMENTS.md reports both scales.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, Optional

from ..cpu.isa import Op

Fragment = Generator[Op, Any, Any]


class Workload(abc.ABC):
    """One benchmark's hot loop, partitioned for every paradigm."""

    #: Benchmark name, e.g. ``"130.li"``.
    name: str = "workload"
    #: Preferred paradigm from Table 1 (``"DOALL"`` or ``"PS-DSWP"``).
    paradigm: str = "PS-DSWP"
    #: Number of hot-loop iterations (each becomes one transaction).
    iterations: int = 32
    #: Fraction of native whole-program time spent in the hot loop
    #: (Table 1's "Hot Loop Native Exec Time %").
    hot_loop_fraction: float = 1.0

    # ------------------------------------------------------------------
    # Memory setup / register state
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def setup(self, system) -> None:
        """Initialise the workload's data structures in simulated memory.

        Runs before timing starts; writes go straight to backing memory
        (``system.hierarchy.memory``), modelling pre-loop program state.
        """

    def initial_carry(self, system) -> Any:
        """Loop-carried register state before iteration 0."""
        return None

    def recover_carry(self, system, iteration: int) -> Any:
        """Recompute register state from committed memory after an abort."""
        return self.initial_carry(system)

    # ------------------------------------------------------------------
    # Loop-body fragments
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        """The whole body of iteration ``i``; returns the next carry."""

    def stage1_iteration(self, i: int, carry: Any) -> Fragment:
        """DSWP stage 1 (loop-carried part); returns the next carry."""
        raise NotImplementedError(f"{self.name} has no DSWP partition")

    def stage2_iteration(self, i: int) -> Fragment:
        """DSWP stage 2 (parallelisable part); iteration-independent."""
        raise NotImplementedError(f"{self.name} has no DSWP partition")

    def doall_iteration(self, i: int) -> Fragment:
        """Fully independent body for DOALL execution."""
        raise NotImplementedError(f"{self.name} is not a DOALL workload")

    def stage2_epilogue(self, i: int) -> Fragment:
        """Ordered per-iteration epilogue (in-order output emission,
        reduction application).  The speculative executors run this *after*
        the transaction's commit turn arrives, so epilogues serialise in
        original program order across workers — the sequential tail stage
        present in most real DSWP pipelines."""
        return
        yield  # pragma: no cover - makes this an (empty) generator

    # ------------------------------------------------------------------
    # Validation support
    # ------------------------------------------------------------------

    def expected_result(self, system) -> Optional[Any]:
        """Golden output for correctness checks, or None.

        Called after a run; implementations typically read result locations
        from backing memory/committed state and return a comparable value.
        """
        return None


def semantics_mismatch(workload: Workload, system) -> Optional[str]:
    """Did the run on ``system`` preserve sequential semantics?

    Compares ``workload.observed_result(system)`` with
    ``workload.expected_result(system)``; returns None when they agree,
    else an ``observed ... != expected ...`` description.  The one verdict
    behind ``RunRecord.correct``, adversary scoring and racecheck RC005.
    """
    observed = workload.observed_result(system)
    expected = workload.expected_result(system)
    if observed == expected:
        return None
    return f"observed {observed!r} != expected {expected!r}"
