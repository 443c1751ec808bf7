"""``python -m repro obs`` — observe one run end to end.

Runs one workload with the full observability stack attached (metrics
registry, lifecycle timeline, cycle profiler), prints the attribution
breakdown, reconciles the observed lifecycle against ``SystemStats``
totals (non-zero exit on mismatch — the acceptance contract), and
optionally writes a validated Chrome trace-event JSON for Perfetto.

``--overhead-check`` instead times the same request with and without
instrumentation (best of N wall-clock) and fails when the instrumented
run's simulated-ops-per-second falls below ``1/limit`` of baseline —
the CI perf-smoke gate invokes this with the default 1.75x limit
(``--format json`` emits the measured ratio + threshold for archiving).

Subcommands of the regression observatory:

``obs diff A B``      differential attribution between two digest
                      sources (files or history refs like ``HEAD~1``)
``obs whatif``        causal what-if profiler (:mod:`repro.obs.whatif`)
``obs history``       list/export the cross-run digest history store
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from ..experiments.engine import RunRequest, _run, observed_run, snapshot
from .diff import diff_bundles, format_diff, load_entries, render_json
from .export import render_gantt, write_chrome_trace
from .history import (DEFAULT_ROOT, HistoryStore, format_history,
                      record_history)
from .profile import attribute, digest, format_breakdown, format_hot_lines
from .timeline import build_timeline


def _overhead_check(request, repeat: int, limit: float,
                    fmt: str = "text") -> int:
    baseline = instrumented = float("inf")
    ops = 0
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        _, result = _run(request)
        baseline = min(baseline, time.perf_counter() - start)
        ops = result.run.ops_executed
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        observed_run(request)
        instrumented = min(instrumented, time.perf_counter() - start)
    slowdown = instrumented / baseline if baseline > 0 else 1.0
    base_rate = ops / baseline if baseline > 0 else 0.0
    inst_rate = ops / instrumented if instrumented > 0 else 0.0
    ok = slowdown <= limit
    if fmt == "json":
        # The one legitimately wall-clock artifact: it *measures* the
        # profiler's wall overhead, so the CI gate can archive the ratio
        # it enforced alongside the pass/fail threshold.
        print(json.dumps({
            "schema": "hmtx-obs-overhead/1",
            "workload": request.workload,
            "system": request.system,
            "repeat": max(1, repeat),
            "ops_executed": ops,
            "uninstrumented_ops_per_sec": round(base_rate),
            "instrumented_ops_per_sec": round(inst_rate),
            "slowdown": round(slowdown, 3),
            "limit": limit,
            "ok": ok,
        }, indent=2, sort_keys=True))
    else:
        print(f"overhead-check {request.workload}/{request.system}: "
              f"uninstrumented {base_rate:,.0f} ops/s, "
              f"instrumented {inst_rate:,.0f} ops/s, "
              f"slowdown {slowdown:.2f}x (limit {limit:.2f}x) "
              f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def diff_command(args) -> int:
    store = HistoryStore(args.store or DEFAULT_ROOT)
    try:
        bundle_a = load_entries(args.a, store)
        bundle_b = load_entries(args.b, store)
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"obs diff: {message}", file=sys.stderr)
        return 2
    artifact = diff_bundles(bundle_a, bundle_b)
    if args.format == "json":
        print(render_json(artifact), end="")
    else:
        print(format_diff(artifact, top=args.top))
    if args.output:
        pathlib.Path(args.output).write_text(render_json(artifact),
                                             encoding="utf-8")
    if args.check_zero and not artifact["zero"]:
        return 1
    return 0


def history_command(args) -> int:
    store = HistoryStore(args.store or DEFAULT_ROOT)
    if args.export:
        try:
            bundle = store.export_bundle(args.ref)
        except KeyError as exc:
            print(f"obs history: {exc.args[0]}", file=sys.stderr)
            return 2
        pathlib.Path(args.export).write_text(
            json.dumps(bundle, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {args.export} ({len(bundle['entries'])} digest(s) "
              f"from {args.ref})")
        return 0
    print(format_history(store, limit=args.limit))
    return 0


def obs_command(args) -> int:
    request = RunRequest(workload=args.workload, system=args.system,
                         scale=args.scale, paradigm=args.paradigm,
                         policy=args.policy)
    if args.overhead_check:
        return _overhead_check(request, args.repeat, args.overhead_limit,
                               fmt=args.format)

    session, workload, result = observed_run(request)
    attribution = attribute(session)
    reconciliation = session.reconcile(result.system.stats)
    timeline = build_timeline(session, attribution)
    record = snapshot(request, workload, result, 0.0,
                      obs_digest=digest(session, attribution)
                      if args.history is not None else None)
    correct = record.correct

    if args.history is not None:
        print(record_history(args.history, [(request, record)],
                             source="obs"))

    if args.timeline:
        data = write_chrome_trace(
            timeline, args.timeline,
            label=f"{args.workload}/{args.system}")
        trace_note = (f"wrote {args.timeline} "
                      f"({len(data['traceEvents'])} trace events, "
                      f"validated)")
    else:
        trace_note = None

    if args.format == "json":
        report = {
            "schema": "hmtx-obs-report/1",
            "workload": args.workload,
            "system": args.system,
            "scale": args.scale,
            "paradigm": result.paradigm,
            "cycles": result.cycles,
            "correct": correct,
            "digest": digest(session, attribution, top=args.top),
            "reconcile": reconciliation,
            "metrics": session.registry.collect(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        stats = result.system.stats
        print(f"{args.workload} on {args.system}: {result.cycles:,} cycles "
              f"({result.paradigm}); {stats.committed} commits, "
              f"{stats.aborted} aborts; result "
              f"{'correct' if correct else '*** WRONG ***'}")
        print()
        print(format_breakdown(attribution,
                               label=f"{args.workload}/{args.system}"))
        print()
        print(format_hot_lines(session, top=args.top))
        checks = reconciliation["checks"]
        print()
        print("reconciliation vs SystemStats: "
              + ("exact" if reconciliation["ok"] else "MISMATCH"))
        for name, pair in checks.items():
            marker = "==" if pair["observed"] == pair["stats"] else "!="
            print(f"  {name}: observed {pair['observed']} {marker} "
                  f"stats {pair['stats']}")
        if args.gantt:
            print()
            print(render_gantt(timeline, width=args.gantt_width))
        if args.metrics:
            print()
            print(session.registry.format_text())
        if trace_note:
            print()
            print(trace_note)

    ok = reconciliation["ok"] and attribution.identity_ok and correct
    return 0 if ok else 1
