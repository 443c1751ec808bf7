"""Handlers for ``python -m repro list | run | all | <artifact>``.

:data:`ARTIFACTS` is the one table of regenerable artifacts: each entry
pairs the engine requests it needs (batched up front, so ``--jobs``
fans the whole selection out at once) with the driver that runs and
formats it.  ``run`` executes one benchmark through the sweep engine's
own run path and reads correctness from its :class:`RunRecord`.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, List, NamedTuple, Optional

from ..coherence.hierarchy import MemoryHierarchy
from ..obs import hooks
from ..trace import ProtocolTracer, format_summary
from ..workloads.suite import BENCHMARK_NAMES
from .bench import QUICK_SCALE
from .contention_sweep import (
    contention_spec,
    format_contention_sweep,
    run_contention_sweep,
)
from .engine import RunRequest, SweepSpec, _run, snapshot
from .fig1_timing import format_fig1, run_fig1
from .fig2_smtx_rwset import fig2_spec, format_fig2, run_fig2
from .fig5_walkthrough import format_fig5, run_fig5
from .fig8_speedup import fig8_spec, format_fig8, run_fig8
from .fig9_setsizes import fig9_spec, format_fig9, run_fig9
from .reporting import BenchmarkRunner
from .statsdump import stats_report
from .table1_stats import format_table1, run_table1, table1_spec
from .table3_power import format_table3, run_table3, table3_spec

DEFAULT_REPORT = "REPORT_sweep.json"

#: Systems ``run --system`` accepts (and ``list`` advertises).
RUN_SYSTEMS = ("sequential", "hmtx", "smtx-minimal", "smtx-substantial",
               "smtx-maximal", "oracle")


class Artifact(NamedTuple):
    #: Every engine request the artifact runs; None when it runs none.
    spec: Optional[Callable[[BenchmarkRunner], SweepSpec]]
    #: Run the driver (cache hits after the prefetch) and format it.
    render: Callable[[BenchmarkRunner], str]


ARTIFACTS = {
    "contention": Artifact(
        lambda runner: contention_spec(runner.scale),
        lambda runner: format_contention_sweep(run_contention_sweep(
            scale=runner.scale, engine=runner.engine))),
    "fig1": Artifact(None, lambda runner: format_fig1(run_fig1())),
    "fig2": Artifact(fig2_spec,
                     lambda runner: format_fig2(run_fig2(runner=runner))),
    "fig5": Artifact(None, lambda runner: format_fig5(run_fig5())),
    "fig8": Artifact(fig8_spec,
                     lambda runner: format_fig8(run_fig8(runner=runner))),
    "fig9": Artifact(fig9_spec,
                     lambda runner: format_fig9(run_fig9(runner=runner))),
    "table1": Artifact(table1_spec,
                       lambda runner: format_table1(run_table1(runner=runner))),
    "table3": Artifact(table3_spec,
                       lambda runner: format_table3(run_table3(runner=runner))),
}


def _render_all(runner: BenchmarkRunner, names: List[str]) -> List[str]:
    """Batch every selected artifact's runs through the engine at once —
    with ``jobs > 1`` this is where the fan-out happens; the drivers then
    read back cache hits in spec order."""
    requests = [request for name in names if ARTIFACTS[name].spec
                for request in ARTIFACTS[name].spec(runner).requests]
    if requests:
        runner.prefetch(requests)
    return [ARTIFACTS[name].render(runner) for name in names]


def list_command(args) -> int:
    print("artifacts :", ", ".join(sorted(ARTIFACTS)),
          "+ evaluate / all (everything)")
    print("benchmarks:", ", ".join(BENCHMARK_NAMES))
    print("systems   :", ", ".join(RUN_SYSTEMS))
    return 0


def artifact_command(args) -> int:
    runner = BenchmarkRunner(scale=args.scale, jobs=args.jobs)
    names = sorted(ARTIFACTS) if args.command == "evaluate" \
        else [args.command]
    start = time.time()
    for text in _render_all(runner, names):
        print(text)
        print()
    print(f"({time.time() - start:.0f}s at scale {args.scale}, "
          f"jobs {args.jobs})")
    return 0


def all_command(args) -> int:
    """Every artifact through the sweep engine, plus a merged report.

    The report file is a deterministic function of (scale, code): wall
    times and job counts stay out of it, so ``--jobs N`` output is
    byte-identical to serial (the CI sweep-smoke job diffs exactly this).
    Wall timing can be appended to a separate bench file via
    ``--bench-output``.
    """
    scale = QUICK_SCALE if args.quick else args.scale
    runner = BenchmarkRunner(scale=scale, jobs=args.jobs)
    names = sorted(ARTIFACTS)
    start = time.perf_counter()  # lint-ok: RL008 (wall time is printed and routed to --bench-output only, never into the deterministic report)
    artifacts = dict(zip(names, _render_all(runner, names)))
    wall = time.perf_counter() - start  # lint-ok: RL008 (same print-only timing as above)
    report = {
        "schema": "hmtx-sweep-report/1",
        "scale": scale,
        "artifacts": artifacts,
        "records": [record.to_report() for record in runner.records()],
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name in names:
        print(artifacts[name])
        print()
    print(f"wrote {output} ({wall:.1f}s at scale {scale}, "
          f"jobs {args.jobs}, {os.cpu_count()} cpus)")
    if args.bench_output:
        _record_sweep_timing(pathlib.Path(args.bench_output), args, scale,
                             wall, runner.engine.spawn_overhead_seconds)
    return 0


def _record_sweep_timing(path: pathlib.Path, args, scale: float,
                         wall: float, spawn_overhead: float = 0.0) -> None:
    """Merge this invocation's wall time into the sweep bench file."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.setdefault("schema", "hmtx-sweep-bench/1")
    data["cpus"] = os.cpu_count()
    mode = "quick" if args.quick else "full"
    section = data.setdefault("runs", {}).setdefault(mode, {})
    section[f"jobs-{args.jobs}"] = {
        "wall_seconds": round(wall, 2),
        "scale": scale,
        "spawn_overhead_seconds": round(spawn_overhead, 3),
    }
    serial = section.get("jobs-1", {}).get("wall_seconds")
    if serial:
        for key, run in section.items():
            run["speedup_vs_serial"] = round(serial / run["wall_seconds"], 2)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {mode}/jobs-{args.jobs} timing in {path}")


class _TraceHierarchies:
    """Run observer (the :mod:`repro.obs.hooks` attach point) that puts a
    :class:`ProtocolTracer` on every versioned hierarchy a run builds.
    SMTX and the oracle keep plain memory, so they run untraced."""

    def __init__(self) -> None:
        self.tracers: List[ProtocolTracer] = []

    def attach_system(self, system) -> None:
        if isinstance(system.hierarchy, MemoryHierarchy):
            self.tracers.append(ProtocolTracer.attach(system.hierarchy))

    def attach_scheduler(self, scheduler) -> None:
        pass

    def record_spin(self, category: str, vid: int, count: int) -> None:
        pass


def run_command(args) -> int:
    request = RunRequest(workload=args.benchmark, system=args.system,
                         scale=args.scale)
    tracing = _TraceHierarchies()
    if args.trace:
        with hooks.activate(tracing):
            workload, result = _run(request)
    else:
        workload, result = _run(request)
    record = snapshot(request, workload, result, 0.0)
    print(f"{args.benchmark} on {args.system}: {record.cycles:,} cycles "
          f"({record.paradigm}); {record.committed} transactions, "
          f"{record.aborted} aborts; result "
          f"{'matches sequential semantics' if record.correct else '*** WRONG ***'}")
    if tracing.tracers:
        print(format_summary(tracing.tracers[0].summary()))
    for tracer in tracing.tracers:
        tracer.detach()
    if args.stats:
        print(stats_report(result))
    return 0 if record.correct else 1
