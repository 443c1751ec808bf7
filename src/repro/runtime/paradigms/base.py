"""Shared executor plumbing: backends, VID overflow, recovery, results.

Everything a paradigm executor needs beyond its own loop structure lives
here, written against the :class:`~repro.backends.TMBackend` protocol —
no executor names a concrete system class:

* backend construction (:func:`fresh_system` resolves a registry name or
  an explicit factory),
* the section 4.6 VID-overflow protocol (:func:`allocate_vid_with_stall`,
  :func:`wait_for_epoch`) and in-order commit spinning
  (:func:`wait_commit_turn`),
* abort recovery (:func:`run_with_recovery`): every abort is classified
  and handed to a :class:`~repro.txctl.manager.ContentionManager`, which
  chooses speculative retry, machine-wide backoff, serialised retry, or
  the non-speculative serial fallback,
* result assembly (:class:`ParadigmResult`, :func:`build_result`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ...backends import TMBackend, get_backend
from ...coherence.vid import VidExhaustedError
from ...core.config import MachineConfig
from ...cpu.core_model import CoreExecutor
from ...cpu.interrupts import InterruptInjector
from ...cpu.isa import Op, Work
from ...errors import MisspeculationError
from ...obs import hooks as _obs
from ...txctl import Action, ContentionManager, SerialFallback
from ...workloads.base import Workload
from ..scheduler import RunResult, Scheduler

Program = Generator[Op, Any, None]

#: Cycles burnt per poll while stalled (VID exhaustion, commit ordering).
_SPIN_COST = 4
#: Shared spin-op singleton: spin loops yield this op thousands of
#: times while waiting, so per-yield construction is pure overhead
#: (ops are immutable value objects).
_SPIN_OP = Work(_SPIN_COST)
#: How many uncommitted transactions one worker keeps open at once (the
#: paper allows many per core; bounding it caps VID-window and cache-set
#: version pressure, like the bounded DSWP queues).
_MAX_OPEN_TX_PER_CORE = 4
#: System-wide cap on live (begun, uncommitted) transactions.  Every live
#: transaction can pin one version of a hot forwarded line (Figure 3's
#: ``producedNode``) in a single cache set; with an 8-way L1 over a 32-way
#: L2, more than ~24 live versions of one line cannot all stay cached and
#: eviction past the LLC aborts (section 5.4).  Real deployments impose the
#: same throttle through bounded queues and finite VID windows.
_MAX_LIVE_TRANSACTIONS = 20


@dataclass
class ParadigmResult:
    """Outcome of one parallelised hot-loop run."""

    workload: str
    paradigm: str
    cycles: int
    system: TMBackend
    run: RunResult
    recoveries: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return self.system.stats.committed


def fresh_system(config: Optional[MachineConfig], sla_enabled: bool,
                 system_factory: Optional[Callable[[], TMBackend]] = None,
                 backend: Optional[str] = None) -> TMBackend:
    """Build the backend a run executes on.

    ``system_factory`` wins when given; otherwise ``backend`` names a
    registry entry (default ``"hmtx"``).  ``sla_enabled`` is forwarded
    only to factories that take it (SLAs are an HMTX-hardware concern).

    This is the universal construction choke point — every paradigm and
    every backend funnels through it — so it doubles as the observability
    attach site: when an :mod:`repro.obs` session is active, the freshly
    built system is handed to it before any instruction executes.
    """
    if system_factory is not None:
        system = system_factory()
    else:
        factory = get_backend(backend or "hmtx")
        kwargs: Dict[str, Any] = {"config": config}
        if "sla_enabled" in inspect.signature(factory).parameters:
            kwargs["sla_enabled"] = sla_enabled
        system = factory(**kwargs)
    if _obs.active is not None:
        _obs.active.attach_system(system)
    return system


def make_scheduler(system: TMBackend,
                   interrupts: Optional[InterruptInjector],
                   executor_factory: Optional[Callable[[TMBackend], CoreExecutor]],
                   ) -> Scheduler:
    executor = executor_factory(system) if executor_factory else None
    scheduler = Scheduler(system, executor=executor, interrupts=interrupts)
    if _obs.active is not None:
        _obs.active.attach_scheduler(scheduler)
    return scheduler


# ----------------------------------------------------------------------
# VID-overflow protocol (section 4.6) and commit ordering (section 4.4)
# ----------------------------------------------------------------------

def allocate_vid_with_stall(system: TMBackend) -> Program:
    """Allocate the next VID, spinning through the 4.6 overflow protocol.

    Yields stall ops while the VID space is exhausted; performs the VID
    reset once every outstanding transaction has committed.  The generator's
    return value is the fresh VID.

    The spin ops are plain :class:`~repro.cpu.isa.Work` — indistinguishable
    from useful work at the executor — so the loop counts its polls and,
    when an observability session is active, retags them as VID-reset
    quiesce time on exit.  The op stream is the same either way.
    """
    obs = _obs.active
    spins = 0
    while True:
        try:
            vid = system.allocate_vid()
        except VidExhaustedError:
            spins += 1
            if system.ready_for_vid_reset():
                yield Work(system.vid_reset())
            else:
                yield _SPIN_OP
        else:
            if spins and obs is not None:
                obs.record_spin("vid_reset", vid, spins)
            return vid


def wait_for_epoch(system: TMBackend, epoch: int) -> Program:
    """Block until the VID space has been recycled ``epoch`` times.

    Used by the statically-VID-mapped paradigms (DOALL/DOACROSS): epoch ``e``
    may start only after all ``max_vid`` transactions of epoch ``e - 1``
    committed and one thread performed the reset.
    """
    obs = _obs.active
    max_vid = system.vid_space.max_vid
    spins = 0
    while system.vid_space.resets < epoch:
        spins += 1
        done_epochs = system.vid_space.resets + 1
        if system.stats.committed >= done_epochs * max_vid \
                and not system.active_vids:
            yield Work(system.vid_reset())
        else:
            yield _SPIN_OP
    if spins and obs is not None:
        obs.record_spin("vid_reset", 0, spins)


def wait_commit_turn(system: TMBackend, vid: int) -> Program:
    """Spin until ``vid - 1`` has committed (in-order commit contract)."""
    obs = _obs.active
    spins = 0
    while system.last_committed != vid - 1:
        spins += 1
        yield _SPIN_OP
    if spins and obs is not None:
        obs.record_spin("commit_stall", vid, spins)


# ----------------------------------------------------------------------
# Abort recovery (contention-manager escalation ladder)
# ----------------------------------------------------------------------

@dataclass
class RecoveryOutcome:
    """How one speculative run's abort recovery played out."""

    recoveries: int = 0
    serialized: bool = False
    fallback: bool = False


def run_serial_fallback(scheduler: Scheduler, system: TMBackend,
                        workload: Workload,
                        manager: ContentionManager) -> None:
    """Execute the remaining iterations non-speculatively (txctl fallback).

    The triggering abort already rolled every cache back to the last
    committed state, so one thread re-runs iterations
    ``committed..iterations`` at VID 0 under the global fallback lock
    while every other thread parks — guaranteed forward progress with MTX
    atomicity intact (nothing speculative runs concurrently).
    """
    fallback = manager.fallback
    assert fallback is not None
    lock_tid = scheduler.threads[0].tid
    programs: Dict[int, Program] = {
        lock_tid: fallback.program(system, workload, tid=lock_tid,
                                   stats=manager.stats)}
    for thread in scheduler.threads[1:]:
        programs[thread.tid] = SerialFallback.idle_program()
    scheduler.queues.clear_all()
    scheduler.replace_programs(programs)
    scheduler.run()


def run_with_recovery(scheduler: Scheduler, system: TMBackend,
                      workload: Workload,
                      rebuild: Callable[..., Dict[int, Program]],
                      manager: Optional[ContentionManager] = None,
                      ) -> RecoveryOutcome:
    """Drive the scheduler, restarting from committed state on aborts.

    ``rebuild(serial=...)`` must produce fresh per-thread programs resuming
    at iteration ``system.stats.committed`` (the abort already rolled all
    speculative memory back to the last committed state).

    Every abort is classified and handed to the
    :class:`~repro.txctl.manager.ContentionManager`, which decides the
    next attempt: speculative retry (optionally after a machine-wide
    backoff stall), serialised retry (one transaction in flight — makes
    conflicts, and without SLAs wrong-path false aborts, impossible), or
    the non-speculative serial fallback (guaranteed progress even for
    transactions that can never fit the cache hierarchy).  Livelock
    escalates down that ladder instead of raising;
    :class:`~repro.errors.LivelockError` is reserved for managers whose
    fallback is explicitly disabled.
    """
    manager = (manager or ContentionManager()).bind(system)
    while True:
        try:
            scheduler.run()
            return RecoveryOutcome(manager.recoveries, manager.serialized,
                                   manager.fallback_taken)
        except MisspeculationError as exc:
            decision = manager.on_abort(exc, committed=system.stats.committed)
            if decision.action is Action.FALLBACK:
                run_serial_fallback(scheduler, system, workload, manager)
                return RecoveryOutcome(manager.recoveries,
                                       manager.serialized, True)
            if decision.delay:
                scheduler.stall_all(decision.delay)
            scheduler.queues.clear_all()
            serial = decision.action is Action.SERIALIZE
            scheduler.replace_programs(rebuild(serial=serial))


def build_result(workload: Workload, paradigm: str, system: TMBackend,
                 scheduler: Scheduler,
                 outcome: Optional[RecoveryOutcome] = None) -> ParadigmResult:
    outcome = outcome or RecoveryOutcome()
    thread_clocks = {t.tid: t.clock for t in scheduler.threads}
    cycles = max(thread_clocks.values())
    run = RunResult(cycles, thread_clocks, {},
                    sum(t.ops_executed for t in scheduler.threads))
    result = ParadigmResult(workload.name, paradigm, cycles, system, run,
                            outcome.recoveries)
    result.extra["exec_stats"] = scheduler.executor.stats
    result.extra["degraded_serial"] = outcome.serialized
    result.extra["serial_fallback"] = outcome.fallback
    result.extra["contention"] = system.stats.contention
    return result
