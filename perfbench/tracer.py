"""Outside-in span tracer: wraps each layer's public functions.

The tracer lives in the benchmark, not in the simulator: it patches the
public entry points of each layer for the duration of one traced pass
and restores them afterwards, so no line under ``src/`` changes.  Every
wrapper records a span (inclusive duration) and charges it to its
parent, so each span's *self* time is its duration minus the time its
child spans cover.  Spans nest strictly because the engine runs one
request at a time in this process.

Two rules keep the traced program the same program:

* Hierarchy and cache wrappers are *instance* attributes, installed when
  a scheduler starts running on a system.  ``HMTXSystem.load/store``
  only call ``MemoryHierarchy.load/store`` when those are instance
  attributes; a class-level patch would be bypassed.
* ``Scheduler._step`` and ``CoreExecutor.execute`` are never wrapped:
  ``Scheduler.run`` drops its fused fast path when it finds an
  instance-level wrapper on either, which would time a different program.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Backend methods traced on both ``HMTXSystem`` and ``SMTXSystem``
#: (``abort_mtx``, the explicit software abort, is left out: no workload
#: calls it).
BACKEND_CALLS = ("load", "store", "begin_mtx", "commit_mtx",
                 "allocate_vid", "vid_reset", "wrong_path_load")
#: Hierarchy calls split by ``AccessResult.l1_hit``.
HIER_ACCESS_CALLS = ("load", "store")
#: Other hierarchy calls (plain spans).
HIER_CALLS = ("commit", "abort", "vid_reset")
#: Per-cache calls (L1s and every LLC slice).
CACHE_CALLS = ("lookup", "install_slot", "broadcast_commit",
               "broadcast_abort", "vid_reset")
#: ``DirectoryStats`` counters reported per traced pass.
DIRECTORY_COUNTS = ("lookups", "probes_sent", "invalidations_sent",
                    "bank_wait_cycles")


def span_names() -> List[str]:
    """Every span the tracer can record, in ledger order."""
    names = ["engine.request", "engine.snapshot", "workloads.build",
             "runtime.run"]
    for backend in ("hmtx", "smtx"):
        names += [f"backend.{backend}.{call}" for call in BACKEND_CALLS]
    for call in HIER_ACCESS_CALLS:
        names += [f"hier.{call}.hit", f"hier.{call}.miss"]
    names += [f"hier.{call}" for call in HIER_CALLS]
    names += [f"cache.{call}" for call in CACHE_CALLS]
    names += ["txctl.on_abort", "obs.finalize", "obs.attribute",
              "obs.digest"]
    return names


class SpanStat:
    """Calls, summed self time and every inclusive duration of one span."""

    __slots__ = ("calls", "self_ns", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.durations = array("q")

    def percentile_ns(self, q: float) -> int:
        """Nearest-rank percentile of the inclusive durations (0 if none)."""
        if not self.durations:
            return 0
        ordered = sorted(self.durations)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q * len(ordered))) - 1))
        return ordered[rank]


class Tracer:
    """Installs span wrappers on the simulator's layers; collects stats.

    Use as a context manager around each traced pass; stats accumulate
    across every pass traced by one tracer.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {n: SpanStat() for n in span_names()}
        self.counts: Dict[str, int] = {
            "ops_executed": 0, "cache.evictions": 0,
            **{f"directory.{c}": 0 for c in DIRECTORY_COUNTS}}
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Hierarchies instrumented during the current engine request;
        #: their counters are harvested when the request ends.
        self._hierarchies: List[Any] = []

    # ------------------------------------------------------------------
    # Span mechanics
    # ------------------------------------------------------------------

    def _wrap(self, name: str, func: Callable,
              after: Optional[Callable[[Any], None]] = None) -> Callable:
        """``func`` timed as span ``name``; ``after`` sees its result."""
        stat = self.stats[name]
        stack = self._stack
        perf = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_access(self, call: str, func: Callable) -> Callable:
        """A hierarchy access split into ``.hit``/``.miss`` by L1 outcome.

        An access that raises (misspeculation) counts as a miss.
        """
        hit = self.stats[f"hier.{call}.hit"]
        miss = self.stats[f"hier.{call}.miss"]
        stack = self._stack
        perf = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            stat = miss
            start = perf()
            try:
                result = func(*args, **kwargs)
                if result.l1_hit:
                    stat = hit
                return result
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _patch(self, owner: Any, attr: str, wrapped: Callable) -> None:
        """Replace ``owner.attr`` (class or module); undone by uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        from repro.core.system import HMTXSystem
        from repro.experiments import engine
        from repro.obs import profile
        from repro.obs.session import ObsSession
        from repro.runtime.scheduler import Scheduler
        from repro.smtx.system import SMTXSystem
        from repro.txctl.manager import ContentionManager

        # engine.execute_request / snapshot / make_workload are reached
        # through the engine module's globals, so patch them there.
        self._patch(engine, "execute_request",
                    self._wrap("engine.request", engine.execute_request,
                               after=lambda _record: self._harvest()))
        self._patch(engine, "snapshot",
                    self._wrap("engine.snapshot", engine.snapshot))
        self._patch(engine, "make_workload",
                    self._wrap("workloads.build", engine.make_workload))

        run = Scheduler.__dict__["run"]
        traced_run = self._wrap("runtime.run", run, after=self._count_ops)

        def scheduler_run(scheduler):
            self._instrument_system(scheduler.system)
            return traced_run(scheduler)

        self._patch(Scheduler, "run", scheduler_run)

        for backend, cls in (("hmtx", HMTXSystem), ("smtx", SMTXSystem)):
            for call in BACKEND_CALLS:
                self._patch(cls, call, self._wrap(f"backend.{backend}.{call}",
                                                  cls.__dict__[call]))
        self._patch(ContentionManager, "on_abort",
                    self._wrap("txctl.on_abort",
                               ContentionManager.__dict__["on_abort"]))
        self._patch(ObsSession, "finalize",
                    self._wrap("obs.finalize",
                               ObsSession.__dict__["finalize"]))
        # execute_request imports these from the module at call time.
        self._patch(profile, "attribute",
                    self._wrap("obs.attribute", profile.attribute))
        self._patch(profile, "digest",
                    self._wrap("obs.digest", profile.digest))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._hierarchies.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Per-instance wrappers and counters
    # ------------------------------------------------------------------

    def _instrument_system(self, system: Any) -> None:
        """Wrap the hierarchy a backend times its accesses against.

        HMTX keeps it at ``system.hierarchy``; SMTX mirrors its accesses
        into the commodity ``system.timing`` hierarchy.  Instrumenting is
        idempotent: a system re-run after recovery keeps its wrappers.
        """
        from repro.coherence.hierarchy import MemoryHierarchy
        for attr in ("hierarchy", "timing"):
            hierarchy = getattr(system, attr, None)
            if (isinstance(hierarchy, MemoryHierarchy)
                    and "commit" not in hierarchy.__dict__):
                self._instrument_hierarchy(hierarchy)

    def _instrument_hierarchy(self, hierarchy: Any) -> None:
        for call in HIER_ACCESS_CALLS:
            setattr(hierarchy, call,
                    self._wrap_access(call, getattr(hierarchy, call)))
        for call in HIER_CALLS:
            setattr(hierarchy, call,
                    self._wrap(f"hier.{call}", getattr(hierarchy, call)))
        for cache in self._caches(hierarchy):
            for call in CACHE_CALLS:
                setattr(cache, call,
                        self._wrap(f"cache.{call}", getattr(cache, call)))
        self._hierarchies.append(hierarchy)

    @staticmethod
    def _caches(hierarchy: Any) -> Iterable[Any]:
        return list(hierarchy.l1s) + list(hierarchy.llc_slices)

    def _count_ops(self, result: Any) -> None:
        self.counts["ops_executed"] += result.ops_executed

    def _harvest(self) -> None:
        """Fold the finished request's cache and directory counters in."""
        counts = self.counts
        for hierarchy in self._hierarchies:
            counts["cache.evictions"] += sum(
                cache.stats.evictions for cache in self._caches(hierarchy))
            dir_stats = getattr(hierarchy, "dir_stats", None)
            if dir_stats is not None:
                for name in DIRECTORY_COUNTS:
                    counts[f"directory.{name}"] += getattr(dir_stats, name)
        self._hierarchies.clear()
