"""The live observer: the event sink of one run's backend and scheduler.

An :class:`ObsSession` is installed via :func:`repro.obs.hooks.activate`;
while active, :func:`~repro.runtime.paradigms.base.fresh_system` and
:func:`~repro.runtime.paradigms.base.make_scheduler` hand it every system
and scheduler they build.  Nothing is wrapped.  The session sets each
backend's ``observer`` slot, and the backend reports its accesses,
begins, commits, aborts, VID allocations and resets from the place they
happen (the :class:`~repro.backends.protocol.BackendObserver` events
:meth:`access`, :meth:`begin`, :meth:`commit`, :meth:`abort`,
:meth:`allocate`, :meth:`vid_reset`).  It sets each scheduler's
``observer`` slot too, and :meth:`~repro.runtime.scheduler.Scheduler.run`
calls :meth:`step`, sets :attr:`ObsSession.op_now` and calls
:meth:`record_op` from inside its fused per-op loop (``stall_all``/
``quiesce_all`` call :meth:`stall`/:meth:`quiesce`).  :meth:`detach`
clears every slot.  Unobserved runs never see any of this — the hook
point and the observer slots are ``None``.

Recorded streams (all stamped in *simulated* cycles, ordered by one
shared monotone ``seq``):

* **op samples** — one ``(seq, start, latency, vid, pretag)`` entry per
  executed core op, stored column-wise in :class:`OpSamples` (indexed
  by thread) and recorded by the scheduler as each op completes
  (``start`` is the op's start time).  ``pretag`` is an optional
  category assigned at record time (spin retags, overflow flags); final
  attribution happens in :mod:`repro.obs.profile`.
* **events** — transaction lifecycle points (allocate/begin/commit/
  conflict/abort/vid_reset/stall) as small dicts.
* **spans** — :class:`~repro.obs.timeline.TxSpan` per transaction
  attempt.
* **metrics** — published into a :class:`~repro.obs.registry.
  MetricsRegistry` live (commits, aborts by cause, commit latency,
  footprint peaks) plus an end-of-run snapshot of SystemStats /
  HierarchyStats / ContentionStats totals.

The event callbacks are observation-only: they never change latencies,
values, or the op stream, so an instrumented run is simulation-identical
to an uninstrumented one (asserted by ``tests/obs/test_noop_guard.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..backends.protocol import attach_observer, detach_observer
from ..cpu.isa import Arrive
from ..errors import MisspeculationError
from ..txctl.causes import classify
from . import hooks
from .registry import SVC_LATENCY_BUCKETS, MetricsRegistry
from .timeline import TxSpan

#: How often (scheduler steps) the runnable-thread counter is sampled.
RUNNABLE_SAMPLE_EVERY = 64

#: Cycle-attribution categories (see profile.py / DESIGN.md §11).
CATEGORIES = ("useful", "commit_stall", "vid_reset", "abort_replay",
              "queue_wait", "overflow", "idle")


class OpSamples:
    """Executed-op samples, one parallel list per field.

    Sample ``i`` is ``(seq[i], start[i], latency[i], vid[i], pretag[i])``;
    ``by_tid`` maps each thread to its sample indices in execution order.
    Columns instead of a row object per op keep recording to a few list
    appends and let the profiler scan one field.  Written only by
    :meth:`ObsSession.record_op`.
    """

    __slots__ = ("seq", "start", "latency", "vid", "pretag", "by_tid")

    def __init__(self) -> None:
        self.seq: List[int] = []
        self.start: List[int] = []
        self.latency: List[int] = []
        self.vid: List[int] = []
        self.pretag: List[Optional[str]] = []
        self.by_tid: Dict[int, List[int]] = {}


class ObsSession:
    """One observed run: recorded streams plus the metrics registry."""

    def __init__(self,
                 runnable_sample_every: int = RUNNABLE_SAMPLE_EVERY) -> None:
        self.registry = MetricsRegistry()
        #: One sample per executed core op.
        self.samples = OpSamples()
        self.events: List[Dict[str, Any]] = []
        self.spans: List[TxSpan] = []
        self.line_access_counts: Dict[int, int] = {}
        self.line_conflict_counts: Dict[int, int] = {}
        self.footprint_track: List[Tuple[int, int]] = []
        self.runnable_track: List[Tuple[int, int]] = []
        self.live_vid_track: List[Tuple[int, int]] = []
        self.thread_cores: Dict[int, int] = {}
        #: tid -> socket (0 for every thread on a flat machine), filled at
        #: finalize from the scheduler's core map + the machine topology.
        self.thread_sockets: Dict[int, int] = {}
        self.stall_cycles_total = 0
        self.quiesce_cycles_total = 0
        self.makespan = 0
        self.runnable_sample_every = runnable_sample_every
        self._seq = 0
        self._steps = 0
        self._open_spans: Dict[int, TxSpan] = {}
        self._attempts: Dict[int, int] = {}
        self._systems: List[Any] = []
        self._schedulers: List[Any] = []
        #: Machine topology of the attached system (None when flat).
        self.topology = None
        self._current_tid: Optional[int] = None
        self._current_thread: Optional[Any] = None
        #: Start time of the core op in flight, None between ops.  Set by
        #: ``Scheduler.run`` before the op; backend events stamp it.
        self.op_now: Optional[int] = None
        self._op_overflow = False
        #: vid -> (arrival_ts, queue_wait) of the latest open-loop
        #: request attempt; flushed into the svc histograms at commit so
        #: aborted attempts never double-count (committed-attempt
        #: semantics).
        self._svc_pending: Dict[int, Tuple[int, int]] = {}
        self._svc_hists = None
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def activate(self):
        """Context manager installing this session as the run observer."""
        return hooks.activate(self)

    def detach(self) -> None:
        """Clear every observer slot this session set (idempotent)."""
        for system in self._systems:
            detach_observer(system, self)
        for scheduler in self._schedulers:
            if scheduler.observer is self:
                scheduler.observer = None

    def finalize(self, result=None) -> None:
        """Freeze end-of-run state: thread map, makespan, stats snapshot."""
        if self._finalized:
            return
        self._finalized = True
        for scheduler in self._schedulers:
            socket_of = getattr(scheduler, "socket_of", None)
            for thread in scheduler.threads:
                self.thread_cores[thread.tid] = thread.core
                self.thread_sockets[thread.tid] = (
                    socket_of(thread.core) if socket_of is not None else 0)
                if thread.clock > self.makespan:
                    self.makespan = thread.clock
        if result is not None and result.cycles > self.makespan:
            self.makespan = result.cycles
        for system in self._systems:
            self._snapshot_stats(system)

    def all_spans(self) -> List[TxSpan]:
        """Closed spans plus any still-open ones (outcome ``open``)."""
        tail = []
        for vid in sorted(self._open_spans):
            span = self._open_spans[vid]
            if span.end_ts is None:
                span.end_ts = self.makespan
            tail.append(span)
        return self.spans + tail

    # ------------------------------------------------------------------
    # Attach points (called by runtime.paradigms.base when active)
    # ------------------------------------------------------------------

    def attach_system(self, system) -> None:
        attach_observer(system, self)
        self._systems.append(system)
        config = getattr(system, "config", None)
        if config is not None:
            self.topology = getattr(config, "topology", None)
        registry = self.registry
        self._access_counters = {
            op: registry.counter("mem_accesses_total",
                                 kind="store" if op.endswith("store")
                                 else "load",
                                 space="kernel" if op.startswith("kernel")
                                 else "user")
            for op in ("load", "store", "kernel_load", "kernel_store")}
        self._footprint_peak = registry.gauge("spec_footprint_bytes_peak")
        self._commits = registry.counter("tx_commits_total")
        self._commit_latency = registry.histogram("commit_latency_cycles")
        self._resets = registry.counter("vid_resets_total")

    def attach_scheduler(self, scheduler) -> None:
        self._schedulers.append(scheduler)
        scheduler.observer = self
        self._stall_counter = self.registry.counter(
            "backoff_stall_cycles_total")
        self._quiesce_counter = self.registry.counter(
            "vid_reset_quiesce_cycles_total")

    def record_spin(self, category: str, vid: int, count: int) -> None:
        """Retag the current thread's last ``count`` op samples as a stall.

        Called by the spin helpers in ``runtime.paradigms.base`` when a
        polling loop (commit ordering, VID-reset quiesce) exits: the
        trailing samples of the spinning thread are exactly its spin ops,
        executed while this hook's caller was the running generator.
        """
        samples = self.samples
        indices = samples.by_tid.get(self._current_tid)
        if not indices:
            return
        pretags = samples.pretag
        vids = samples.vid
        latencies = samples.latency
        cycles = 0
        for idx in indices[-count:]:
            if pretags[idx] is None:
                pretags[idx] = category
            if vid:
                vids[idx] = vid
            cycles += latencies[idx]
        self.registry.counter("spin_cycles_total", category=category) \
            .inc(cycles)

    def _svc_histograms(self):
        """The open-loop latency instruments, created on first arrival.

        Lazy so observed runs of non-service workloads keep their metric
        snapshots free of empty svc series.
        """
        if self._svc_hists is None:
            self._svc_hists = (
                self.registry.histogram("svc_queue_wait_cycles",
                                        buckets=SVC_LATENCY_BUCKETS),
                self.registry.histogram("svc_commit_latency_cycles",
                                        buckets=SVC_LATENCY_BUCKETS))
        return self._svc_hists

    # ------------------------------------------------------------------
    # Clock resolution
    # ------------------------------------------------------------------

    def _now(self) -> int:
        if self.op_now is not None:
            return self.op_now
        thread = self._current_thread
        return thread.clock if thread is not None else 0

    def _event(self, kind: str, ts: Optional[int] = None,
               **fields) -> Dict[str, Any]:
        self._seq += 1
        event: Dict[str, Any] = {
            "seq": self._seq, "ts": self._now() if ts is None else ts,
            "kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _open_span(self, vid: int, ts: int,
                   begin_ts: Optional[int] = None) -> TxSpan:
        stale = self._open_spans.pop(vid, None)
        if stale is not None:
            stale.end_ts = ts
            stale.outcome = "orphaned"
            self.spans.append(stale)
        attempt = self._attempts.get(vid, 0)
        self._attempts[vid] = attempt + 1
        span = TxSpan(vid=vid, attempt=attempt, allocate_ts=ts,
                      tid=self._current_tid, begin_ts=begin_ts)
        self._open_spans[vid] = span
        self.live_vid_track.append((ts, len(self._open_spans)))
        return span

    def _close_span(self, vid: int, ts: int, outcome: str,
                    cause: Optional[str] = None) -> None:
        span = self._open_spans.pop(vid, None)
        if span is None:
            # Commit of a VID whose begin predates our attach — synthesize
            # a degenerate span so counts still reconcile.
            attempt = self._attempts.get(vid, 0)
            self._attempts[vid] = attempt + 1
            span = TxSpan(vid=vid, attempt=attempt, allocate_ts=ts,
                          tid=self._current_tid, begin_ts=ts)
        span.end_ts = ts
        span.outcome = outcome
        span.cause = cause
        self.spans.append(span)
        self.live_vid_track.append((ts, len(self._open_spans)))

    # ------------------------------------------------------------------
    # Backend events (made while ``system.observer`` is this)
    # ------------------------------------------------------------------

    def access(self, system, op: str, tid: int, addr: int, vid: int,
               value: int, result, overflowed: bool = False) -> None:
        """A memory access completed: count it, charge it to its span."""
        line_size = system.stats.line_size
        line = addr - (addr % line_size)
        counts = self.line_access_counts
        counts[line] = counts.get(line, 0) + 1
        self._access_counters[op].inc()
        if vid:
            span = self._open_spans.get(vid)
            if span is not None:
                if op == "store":
                    span.stores += 1
                else:
                    span.loads += 1
        if overflowed and self.op_now is not None:
            self._op_overflow = True
        if result.created_version:
            footprint = system.hierarchy.speculative_footprint_bytes()
            self._footprint_peak.set_max(footprint)
            self.footprint_track.append((self._now(), footprint))

    def begin(self, system, tid: int, vid: int, previous: int) -> None:
        """``beginMTX``: VID 0 ends the previous span's execution."""
        ts = self._now()
        if vid == 0:
            if previous:
                span = self._open_spans.get(previous)
                if span is not None and span.exec_end_ts is None:
                    span.exec_end_ts = ts
            return
        span = self._open_spans.get(vid)
        if span is None:
            span = self._open_span(vid, ts, begin_ts=ts)
        elif span.begin_ts is None:
            span.begin_ts = ts
            span.tid = tid
        self._event("begin", ts=ts, tid=tid, vid=vid)

    def commit(self, system, tid: int, vid: int, latency: int) -> None:
        ts = self._now()
        self._event("commit", ts=ts, tid=tid, vid=vid)
        self._commits.inc()
        if isinstance(latency, int):
            self._commit_latency.observe(latency)
        pending = self._svc_pending.pop(vid, None)
        if pending is not None:
            arrival_ts, queue_wait = pending
            queue_hist, sojourn_hist = self._svc_histograms()
            queue_hist.observe(queue_wait)
            sojourn_hist.observe(max(0, ts - arrival_ts))
        self._close_span(vid, ts, "commit")

    def abort(self, system, op: str, err: MisspeculationError,
              addr: Optional[int] = None) -> None:
        """Record the conflict and the abort; close every open span."""
        cause = classify(err).value
        ts = self._now()
        bad_addr = err.addr
        if bad_addr in (None, -1):
            bad_addr = addr
        if bad_addr is not None:
            line = bad_addr - (bad_addr % system.stats.line_size)
            self.line_conflict_counts[line] = \
                self.line_conflict_counts.get(line, 0) + 1
        self._event("conflict", ts=ts, vid=err.vid, addr=bad_addr,
                    cause=cause, op=op)
        self._event("abort", ts=ts, vid=err.vid, cause=cause)
        self.registry.counter("aborts_total", cause=cause).inc()
        for vid in list(self._open_spans):
            if vid == err.vid:
                self._close_span(vid, ts, "abort", cause)
            else:
                self._close_span(vid, ts, "squashed")

    def allocate(self, system, vid: int) -> None:
        ts = self._now()
        self._open_span(vid, ts)
        self._event("allocate", ts=ts, vid=vid, tid=self._current_tid)

    def vid_reset(self, system) -> None:
        self._event("vid_reset")
        self._resets.inc()

    # ------------------------------------------------------------------
    # Scheduler callbacks (made while ``scheduler.observer`` is this)
    # ------------------------------------------------------------------

    def step(self, scheduler, thread) -> None:
        """``thread`` is about to resume its generator for one step."""
        self._current_tid = thread.tid
        self._current_thread = thread
        self._steps += 1
        if self._steps % self.runnable_sample_every == 0:
            runnable = sum(1 for t in scheduler.threads
                           if not t.done and t.blocked_on is None
                           and t.blocked_produce is None)
            self.runnable_track.append((thread.clock, runnable))

    def end_op(self) -> None:
        """``Scheduler.run`` returned or raised: no op is in flight.

        An op that raised records no sample; forgetting its start time
        makes later events stamp the current thread's clock.
        """
        self.op_now = None
        self._op_overflow = False

    def record_op(self, system, tid: int, start: int, latency: int) -> None:
        """The op in flight completed: append its sample.

        Called before any interrupt is charged, so the sample covers the
        op alone.  Accesses flag the op ``overflow`` only while
        ``op_now`` is set, and the flag is consumed here.
        """
        self.op_now = None
        ctx = system.contexts.get(tid)
        seq = self._seq + 1
        self._seq = seq
        samples = self.samples
        index = len(samples.seq)
        samples.seq.append(seq)
        samples.start.append(start)
        samples.latency.append(latency)
        samples.vid.append(ctx.vid if ctx is not None else 0)
        if self._op_overflow:
            self._op_overflow = False
            samples.pretag.append("overflow")
        else:
            samples.pretag.append(None)
        indices = samples.by_tid.get(tid)
        if indices is None:
            samples.by_tid[tid] = [index]
        else:
            indices.append(index)

    def record_execute(self, system, tid: int, op, start: int, value,
                       latency: int) -> None:
        """:meth:`record_op` for an op run by ``CoreExecutor.execute``."""
        self.record_op(system, tid, start, latency)
        if op.__class__ is Arrive:
            # The executor hands back the accumulated queue wait (0
            # when the core idled until the arrival).  Speculative
            # requests settle at commit; VID-0 (serial-fallback)
            # requests have no commit, so record them here.
            queue_wait = value if isinstance(value, int) else 0
            vid = self.samples.vid[-1]
            if vid:
                self._svc_pending[vid] = (op.ts, queue_wait)
            else:
                queue_hist, _ = self._svc_histograms()
                queue_hist.observe(queue_wait)

    def stall(self, scheduler, cycles: int) -> None:
        """Contention-manager backoff: every clock is about to advance."""
        self.stall_cycles_total += cycles
        self._event("stall", ts=scheduler.now(), cycles=cycles)
        self._stall_counter.inc(cycles)

    def quiesce(self, scheduler, cycles: int) -> None:
        """VID-reset scrub barrier: every clock is about to advance."""
        self.quiesce_cycles_total += cycles
        self._event("quiesce", ts=scheduler.now(), cycles=cycles)
        self._quiesce_counter.inc(cycles)

    # ------------------------------------------------------------------
    # End-of-run metric snapshot + reconciliation
    # ------------------------------------------------------------------

    def _snapshot_stats(self, system) -> None:
        registry = self.registry
        stats = getattr(system, "stats", None)
        if stats is not None:
            registry.counter("spec_accesses_total", kind="load") \
                .inc(stats.spec_loads)
            registry.counter("spec_accesses_total", kind="store") \
                .inc(stats.spec_stores)
            registry.counter("slas_sent_total").inc(stats.slas_sent)
            registry.counter("wrong_path_loads_total") \
                .inc(stats.wrong_path_loads)
            contention = stats.contention
            registry.counter("txctl_retries_total").inc(contention.retries)
            registry.counter("txctl_backoff_cycles_total") \
                .inc(contention.backoff_cycles)
            registry.counter("txctl_serialized_recoveries_total") \
                .inc(contention.serialized_recoveries)
            registry.counter("txctl_fallback_entries_total") \
                .inc(contention.fallback_entries)
            registry.counter("txctl_fallback_iterations_total") \
                .inc(contention.fallback_iterations)
            for level, count in sorted(contention.escalations.items()):
                registry.counter("txctl_escalations_total",
                                 level=level).inc(count)
        hierarchy = getattr(system, "hierarchy", None)
        hstats = getattr(hierarchy, "stats", None)
        if hasattr(hstats, "bus_snoops"):
            for name in ("loads", "stores", "bus_snoops", "peer_transfers",
                         "memory_fetches", "ss_invalidations",
                         "bus_wait_cycles", "nonspec_overflows",
                         "overflow_retrievals", "spec_overflow_spills"):
                registry.counter(f"coherence_{name}_total") \
                    .inc(getattr(hstats, name))
            for cache in (list(hierarchy.l1s)
                          + list(getattr(hierarchy, "llc_slices",
                                         (hierarchy.l2,)))):
                registry.counter("cache_hits_total",
                                 cache=cache.name).inc(cache.stats.hits)
                registry.counter("cache_misses_total",
                                 cache=cache.name).inc(cache.stats.misses)
                registry.counter("cache_version_copies_total",
                                 cache=cache.name) \
                    .inc(cache.stats.version_copies)

    def reconcile(self, stats) -> Dict[str, Any]:
        """Check observed lifecycle events against SystemStats totals.

        The acceptance contract: per-VID commit spans and abort-cause
        counters must match the system's own accounting *exactly* — the
        backend reports every commit and every classified abort to its
        observer exactly once, next to the statistics update it mirrors.
        """
        commits_observed = sum(1 for s in self.all_spans()
                               if s.outcome == "commit")
        aborts_observed = sum(1 for e in self.events if e["kind"] == "abort")
        by_cause_observed: Dict[str, int] = {}
        for event in self.events:
            if event["kind"] == "abort":
                cause = event["cause"]
                by_cause_observed[cause] = by_cause_observed.get(cause, 0) + 1
        by_cause_stats = {k: v for k, v in stats.contention.by_cause.items()
                          if v}
        checks = {
            "commits": {"observed": commits_observed,
                        "stats": stats.committed},
            "aborts": {"observed": aborts_observed, "stats": stats.aborted},
            "aborts_by_cause": {"observed": by_cause_observed,
                                "stats": by_cause_stats},
        }
        ok = all(c["observed"] == c["stats"] for c in checks.values())
        return {"ok": ok, "checks": checks}
