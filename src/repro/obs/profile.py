"""Simulated-cycle profiler: attribute every cycle to a category.

Input is a finalized :class:`~repro.obs.session.ObsSession`; output is an
:class:`Attribution` that accounts for **all** ``threads × makespan``
simulated cycles, split across:

``useful``
    Ops of transactions that went on to commit, plus all
    non-speculative (VID 0) execution.
``commit_stall``
    In-order commit spinning (``wait_commit_turn`` polls).
``vid_reset``
    Section 4.6 VID-exhaustion quiesce (allocation polls, epoch waits,
    the reset broadcast itself).
``abort_replay``
    Ops of transactions that were flushed (their cycles were re-executed
    later), plus contention-manager backoff stalls.
``queue_wait``
    Gaps in a thread's op stream: blocked Produce/Consume, queue
    latency, core contention.
``overflow``
    Accesses that triggered overflow-table spill/retrieval traffic
    (section 5.4 pressure).
``idle``
    Trailing cycles after a thread's last op until the run's makespan.

Attribution is retrospective: op samples are held against their VID until
the transaction's outcome event (commit → ``useful``; any flush →
``abort_replay``), exactly the paper's notion that a squashed cycle was
wasted work however useful it looked at the time.  Samples pre-tagged by
the session (spin retags, overflow flags) keep their tags.

The per-thread identity ``sum(categories) == makespan`` is exact and
asserted by the tests — nothing is silently dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Categories a *sample* can carry (``idle``/``queue_wait`` are derived).
_FLUSH_SURVIVING_TAGS = ("commit_stall", "vid_reset", "overflow")


@dataclass
class Attribution:
    """Every simulated cycle of one run, attributed."""

    makespan: int
    #: Final category per op sample, parallel to ``session.samples``.
    categories: List[str]
    #: tid -> category -> cycles (includes derived queue_wait/idle).
    per_thread: Dict[int, Dict[str, int]]
    #: Sum of per-thread cycles by category.
    totals: Dict[str, int] = field(default_factory=dict)
    #: socket -> category -> cycles; ``{0: totals}`` on a flat machine.
    #: This is where the topology's reset-storm story shows up: a remote
    #: socket's threads burning ``vid_reset``/``commit_stall`` cycles
    #: while the home socket commits.
    per_socket: Dict[int, Dict[str, int]] = field(default_factory=dict)
    identity_ok: bool = True

    @property
    def total_thread_cycles(self) -> int:
        return sum(sum(cats.values()) for cats in self.per_thread.values())


def attribute(session) -> Attribution:
    """Run the retrospective attribution over a finalized session."""
    samples = session.samples
    seqs = samples.seq
    vids = samples.vid
    # Start from the pretags; whatever is still untagged after the flushes
    # below is useful.
    final: List[Optional[str]] = list(samples.pretag)

    # One pass over the events.  A speculative sample is flushed when an
    # abort arrives before its VID commits, so within each stretch of
    # samples up to an abort, the VID's last commit in that stretch
    # decides: samples before it were kept, samples after it flushed.
    lo = 0
    last_commit: Dict[int, int] = {}
    for event in session.events:
        kind = event["kind"]
        if kind == "commit":
            last_commit[event["vid"]] = event["seq"]
        elif kind == "abort":
            hi = bisect_left(seqs, event["seq"], lo)
            for index in range(lo, hi):
                vid = vids[index]
                if (vid > 0 and seqs[index] > last_commit.get(vid, 0)
                        and final[index] not in _FLUSH_SURVIVING_TAGS):
                    final[index] = "abort_replay"
            lo = hi
            last_commit.clear()
    final = [category or "useful" for category in final]

    makespan = session.makespan
    per_thread: Dict[int, Dict[str, int]] = {}
    identity_ok = True
    stall_total = session.stall_cycles_total
    quiesce_total = getattr(session, "quiesce_cycles_total", 0)
    starts = samples.start
    latencies = samples.latency
    for tid, indices in sorted(samples.by_tid.items()):
        cats: Dict[str, int] = {}
        cursor = 0
        gap_total = 0
        for index in indices:
            start = starts[index]
            latency = latencies[index]
            if start > cursor:
                gap_total += start - cursor
            end = start + latency
            if end > cursor:
                cursor = end
            category = final[index]
            cats[category] = cats.get(category, 0) + latency
        # Machine-wide stalls show up as gaps in every thread's op stream.
        # Reattribute them in causal order: reset-scrub quiesce barriers
        # first (vid_reset), then contention-manager backoff
        # (abort_replay); whatever remains is genuine queue/core wait.
        quiesce = min(quiesce_total, gap_total)
        if quiesce:
            cats["vid_reset"] = cats.get("vid_reset", 0) + quiesce
        backoff = min(stall_total, gap_total - quiesce)
        if backoff:
            cats["abort_replay"] = cats.get("abort_replay", 0) + backoff
        queue_wait = gap_total - quiesce - backoff
        if queue_wait:
            cats["queue_wait"] = cats.get("queue_wait", 0) + queue_wait
        idle = makespan - cursor
        if idle > 0:
            cats["idle"] = cats.get("idle", 0) + idle
        per_thread[tid] = cats
        if sum(cats.values()) != makespan:
            identity_ok = False
    for tid in session.thread_cores:
        if tid not in per_thread:
            per_thread[tid] = {"idle": makespan} if makespan else {}
    totals: Dict[str, int] = {}
    for cats in per_thread.values():
        for category, cycles in cats.items():
            totals[category] = totals.get(category, 0) + cycles
    thread_sockets = getattr(session, "thread_sockets", {})
    per_socket: Dict[int, Dict[str, int]] = {}
    for tid, cats in per_thread.items():
        socket = thread_sockets.get(tid, 0)
        bucket = per_socket.setdefault(socket, {})
        for category, cycles in cats.items():
            bucket[category] = bucket.get(category, 0) + cycles
    return Attribution(makespan=makespan,
                       categories=final,
                       per_thread=per_thread,
                       totals=dict(sorted(totals.items())),
                       per_socket={s: dict(sorted(cats.items()))
                                   for s, cats in sorted(per_socket.items())},
                       identity_ok=identity_ok)


# ----------------------------------------------------------------------
# Hot lines + digest
# ----------------------------------------------------------------------

def hot_lines(counts: Dict[int, int], top: int = 5) -> List[Tuple[str, int]]:
    """Top-N ``(hex line, count)``, count-descending then address."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(f"0x{line:x}", count) for line, count in ranked[:top]]


def hot_lines_by_socket(session, counts: Dict[int, int],
                        top: int = 5) -> Dict[str, List[Tuple[str, int]]]:
    """Top-N hot lines grouped by the line's *home socket*.

    On a flat machine everything homes at socket 0, so this degenerates
    to ``{"0": hot_lines(counts)}``; on a sliced-LLC machine it shows
    which socket's slice (and directory banks) each hot line pressures.
    """
    topology = getattr(session, "topology", None)
    line_size = getattr(session, "_line_size", 64)
    grouped: Dict[int, Dict[int, int]] = {}
    for line, count in counts.items():
        home = (topology.home_socket(line, line_size)
                if topology is not None else 0)
        grouped.setdefault(home, {})[line] = count
    return {str(socket): hot_lines(socket_counts, top)
            for socket, socket_counts in sorted(grouped.items())}


def digest(session, attribution: Attribution,
           top: int = 5) -> Dict[str, Any]:
    """Picklable per-run attribution summary (rides in RunRecords)."""
    spans = session.all_spans()
    aborts_by_cause: Dict[str, int] = {}
    for event in session.events:
        if event["kind"] == "abort":
            cause = event["cause"]
            aborts_by_cause[cause] = aborts_by_cause.get(cause, 0) + 1
    return {
        "schema": "hmtx-obs-digest/1",
        "makespan": attribution.makespan,
        "categories": attribution.totals,
        # Keyed by str(socket) so the digest survives a JSON round-trip
        # unchanged (byte-identity across --jobs relies on it).
        "per_socket": {str(s): cats
                       for s, cats in attribution.per_socket.items()},
        "total_thread_cycles": attribution.total_thread_cycles,
        "identity_ok": attribution.identity_ok,
        "commits": sum(1 for s in spans if s.outcome == "commit"),
        "aborts": sum(1 for e in session.events if e["kind"] == "abort"),
        "aborts_by_cause": dict(sorted(aborts_by_cause.items())),
        "vid_resets": sum(1 for e in session.events
                          if e["kind"] == "vid_reset"),
        "spans": len(spans),
        "hot_conflict_lines": hot_lines(session.line_conflict_counts, top),
        "hot_access_lines": hot_lines(session.line_access_counts, top),
        "hot_conflict_lines_by_socket":
            hot_lines_by_socket(session, session.line_conflict_counts, top),
        # Latency distributions (commit latency, svc queue wait/sojourn)
        # as plain cumulative-bucket snapshots, so tail-quantile
        # consumers can rebuild Histograms on the far side of a pool
        # boundary (Histogram.from_cumulative).
        "histograms": session.registry.collect()["histograms"],
    }


DIGEST_SCHEMA = "hmtx-obs-digest/1"


def load_digest(data: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a (possibly JSON-round-tripped) obs digest for readers.

    :func:`digest` keys ``per_socket`` (and the per-socket hot-line
    table) by ``str(socket)`` so the artifact survives a JSON round-trip
    byte-identically.  Every in-tree *reader* wants integer sockets and
    ``(line, count)`` tuples back; this is the one place that converts,
    so readers stop carrying ad-hoc casts.  Accepts both freshly-built
    digests and ones loaded from JSON; raises ``ValueError`` on a
    schema mismatch so stale artifacts fail loudly.
    """
    schema = data.get("schema")
    if schema != DIGEST_SCHEMA:
        raise ValueError(f"not an obs digest: schema {schema!r} "
                         f"(expected {DIGEST_SCHEMA!r})")
    out = dict(data)
    out["per_socket"] = {int(socket): dict(cats)
                         for socket, cats
                         in data.get("per_socket", {}).items()}
    out["hot_conflict_lines_by_socket"] = {
        int(socket): [(line, count) for line, count in ranked]
        for socket, ranked
        in data.get("hot_conflict_lines_by_socket", {}).items()}
    for key in ("hot_conflict_lines", "hot_access_lines"):
        out[key] = [(line, count) for line, count in data.get(key, [])]
    return out


def format_breakdown(attribution: Attribution,
                     label: str = "") -> str:
    """Terminal table: cycles and share per category, then per thread."""
    total = max(1, attribution.total_thread_cycles)
    lines = [f"cycle attribution{' — ' + label if label else ''} "
             f"(makespan {attribution.makespan:,} cycles, "
             f"{len(attribution.per_thread)} threads)"]
    width = max((len(c) for c in attribution.totals), default=6)
    for category, cycles in sorted(attribution.totals.items(),
                                   key=lambda kv: -kv[1]):
        share = 100.0 * cycles / total
        lines.append(f"  {category.ljust(width)}  {cycles:>12,}  "
                     f"{share:5.1f}%")
    if len(attribution.per_socket) > 1:
        for socket, cats in sorted(attribution.per_socket.items()):
            socket_total = sum(cats.values())
            interesting = {c: cats.get(c, 0)
                           for c in ("vid_reset", "commit_stall")}
            detail = ", ".join(f"{c} {v:,}" for c, v in interesting.items())
            lines.append(f"  socket {socket}: {socket_total:>12,} cycles "
                         f"({detail})")
    if not attribution.identity_ok:
        lines.append("  !! identity violated: categories do not sum to "
                     "makespan on every thread")
    return "\n".join(lines)


def format_hot_lines(session, top: int = 5) -> str:
    lines = ["hottest lines by conflict count:"]
    ranked = hot_lines(session.line_conflict_counts, top)
    if not ranked:
        lines.append("  (no conflicts)")
    for line, count in ranked:
        accesses = session.line_access_counts.get(int(line, 16), 0)
        lines.append(f"  {line}  {count} conflicts, {accesses} accesses")
    return "\n".join(lines)
