"""Simulator benchmark: end-to-end metrics, or a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with tracing off: the workload's request list runs again and again
through one in-process ``SweepEngine(jobs=1)`` until ``--seconds`` is
used up (a pass that would overrun the budget is not started), and
``wall_s`` is the median pass.  ``setup_s`` is the median, over several
fresh interpreter processes, of the time from process start to the
first simulation call.

``--trace 1`` measures the per-layer metrics: each round runs the list
untraced, traced (:mod:`perfbench.tracer`), and untraced with the obs
session flipped (on for unobserved workloads, off for observed ones),
for ``obs.overhead_ratio``.

Every run's ``RunRecord.correct`` is checked, and every pass must
reproduce the first pass's digest of ``RunRecord.to_report()`` exactly;
the traced pass too.  A run that raises or returns a wrong result counts
as failed, and the command then exits 1.  The last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``perfbench-record``) carries the same
metrics with provenance (revision, host, seeds) and the digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import EXCLUDED_PAIRINGS, WORKLOADS, build  # noqa: E402

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Seconds any child process (set-up probe, git) may take.
CHILD_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no simulator source)."""


def import_simulator() -> float:
    """Import the simulator's CLI surface; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro.__main__  # noqa: F401  (the import a CLI user pays)
    return time.perf_counter() - start


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ----------------------------------------------------------------------

def probe_setup(workload: str, seed: int, size: float,
                probes: int) -> Tuple[List[float], List[float]]:
    """(set-up seconds, import seconds) of ``probes`` fresh processes.

    Each child runs this script with ``--setup-probe``; it reports the
    ``time.perf_counter()`` reading (a system-wide monotonic clock) at
    which it would make its first simulation call.
    """
    setups: List[float] = []
    imports: List[float] = []
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--setup-probe", "--workload", workload, "--seed", str(seed),
           "--size", repr(size)]
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(report["ready"] - start)
        imports.append(report["import_s"])
    return setups, imports


def setup_probe_main(args: argparse.Namespace) -> int:
    import_s = import_simulator()
    build(args.workload, args.seed, args.size)
    print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
    return 0


# ----------------------------------------------------------------------
# Passes over the request list
# ----------------------------------------------------------------------

def record_digest(record) -> str:
    payload = json.dumps(record.to_report(), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


class Pass:
    """One run of the whole request list, in order, on a fresh engine."""

    def __init__(self, requests: Sequence) -> None:
        from repro.experiments.engine import SweepEngine
        engine = SweepEngine(jobs=1)
        self.requests = list(requests)
        self.records: List[Any] = []
        #: Run index -> why that run failed.
        self.failures: Dict[int, str] = {}
        # Free the previous pass's garbage first: otherwise the collector
        # reclaims it at arbitrary points inside this pass, which made
        # pass times vary by about 8 %.
        gc.collect()
        start = time.perf_counter()
        for index, request in enumerate(requests):
            try:
                record = engine.run_one(request)
            except Exception as exc:  # a failed run is counted, not fatal
                record = None
                self.failures[index] = (f"raised {type(exc).__name__}: "
                                        f"{exc}")
            else:
                if not record.correct:
                    self.failures[index] = "wrong result"
            self.records.append(record)
        self.wall_s = time.perf_counter() - start
        self.run_digests = [record_digest(r) if r is not None else "raised"
                            for r in self.records]
        self.digest = hashlib.sha256(
            "".join(self.run_digests).encode()).hexdigest()

    @property
    def attempted(self) -> int:
        return len(self.records)

    def totals(self) -> Dict[str, int]:
        done = [r for r in self.records if r is not None]
        return {"cycles": sum(r.cycles for r in done),
                "committed": sum(r.committed for r in done),
                "aborted": sum(r.aborted for r in done),
                "backoff_cycles": sum(r.backoff_cycles for r in done),
                "fallback_iterations": sum(r.fallback_iterations
                                           for r in done)}


class Ledger:
    """Attempts, failures and digest agreement across a run's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.reference: Optional[Pass] = None

    def add(self, p: Pass, check_digest: bool = True) -> Pass:
        """Count ``p``'s runs; with ``check_digest``, a run whose digest
        differs from the first pass's counts as failed too."""
        failures = dict(p.failures)
        if self.reference is None:
            self.reference = p
        elif check_digest:
            for index, (mine, first) in enumerate(
                    zip(p.run_digests, self.reference.run_digests)):
                if mine != first and index not in failures:
                    failures[index] = "digest differs from the first pass"
        self.attempted += p.attempted
        self.failed += len(failures)
        for index, why in sorted(failures.items()):
            request = p.requests[index]
            self.failures.append(f"run {index} {request.workload}/"
                                 f"{request.system}: {why}")
        return p


def timed_rounds(seconds: float, body) -> None:
    """Call ``body()`` at least once, then while another call fits."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------

def measure_end_to_end(workload, seconds: float,
                       ledger: Ledger) -> Dict[str, float]:
    walls: List[float] = []
    timed_rounds(seconds, lambda: walls.append(
        ledger.add(Pass(workload.requests)).wall_s))
    totals = ledger.reference.totals()
    decided = totals["committed"] + totals["aborted"]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": totals["cycles"],
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        "commit_frac": totals["committed"] / decided if decided else 1.0,
        "passes": len(walls),
        "samples": {"wall_s": walls},
    }


def measure_layers(workload, seconds: float,
                   ledger: Ledger) -> Dict[str, float]:
    from dataclasses import replace
    from perfbench.tracer import Tracer

    observed = any(r.observe for r in workload.requests)
    flipped = [replace(r, observe=not r.observe) for r in workload.requests]
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    flip: List[float] = []

    def round_() -> None:
        plain.append(ledger.add(Pass(workload.requests)).wall_s)
        with tracer:
            traced.append(ledger.add(Pass(workload.requests)).wall_s)
        flip.append(ledger.add(Pass(flipped), check_digest=False).wall_s)

    timed_rounds(seconds, round_)
    passes = len(traced)
    metrics: Dict[str, float] = {}
    self_total = 0
    for name, stat in tracer.stats.items():
        self_total += stat.self_ns
        metrics[f"{name}.calls"] = _per_pass(stat.calls, passes)
        metrics[f"{name}.self_s"] = stat.self_ns / 1e9 / passes
        metrics[f"{name}.p50_ns"] = stat.percentile_ns(0.50)
        metrics[f"{name}.p99_ns"] = stat.percentile_ns(0.99)
    counts = tracer.counts
    run = tracer.stats["runtime.run"]
    metrics["runtime.ns_per_op"] = (run.self_ns / counts["ops_executed"]
                                    if counts["ops_executed"] else 0.0)
    hits = sum(tracer.stats[f"hier.{c}.hit"].calls for c in ("load", "store"))
    misses = sum(tracer.stats[f"hier.{c}.miss"].calls
                 for c in ("load", "store"))
    metrics["hier.l1_hit_frac"] = hits / (hits + misses) if hits + misses \
        else 0.0
    for name, value in counts.items():
        if name != "ops_executed":
            metrics[name] = _per_pass(value, passes)
    totals = ledger.reference.totals()
    metrics["txctl.backoff_cycles"] = totals["backoff_cycles"]
    metrics["txctl.fallback_iterations"] = totals["fallback_iterations"]
    plain_s, traced_s, flip_s = (statistics.median(plain),
                                 statistics.median(traced),
                                 statistics.median(flip))
    metrics["obs.overhead_ratio"] = (plain_s / flip_s if observed
                                     else flip_s / plain_s)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    traced_total_ns = sum(traced) * 1e9
    metrics["ledger.residual_frac"] = ((traced_total_ns - self_total)
                                       / traced_total_ns)
    metrics["passes"] = passes
    metrics["samples"] = {"plain_s": plain, "traced_s": traced,
                          "obs_flipped_s": flip}
    return metrics


def _per_pass(total: int, passes: int):
    return total // passes if total % passes == 0 else total / passes


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------

def git_revision() -> str:
    """``git describe --always --dirty`` of this checkout, if it is one."""
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *argv],
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or pathlib.Path(top).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return git("describe", "--always", "--dirty") or "unknown"


def provenance(workload) -> Dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"revision": git_revision(),
            "python": platform.python_version(),
            "nproc": nproc,
            "platform": platform.platform(),
            **workload.provenance()}


def select(metrics: Dict[str, float], declared: List[Dict[str, str]],
           ) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, by name with unit, from what was measured."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def print_table(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else f"{value:,}"
        print(f"  {name:<40} {shown:>14} {entry['unit']}")


def print_runs(workload, first: Pass) -> None:
    print(f"runs of {workload.name} (digest of RunRecord.to_report()):")
    for index, (request, digest) in enumerate(zip(workload.requests,
                                                  first.run_digests)):
        options = dict(request.options)
        seed = f" seed={options['seed']}" if "seed" in options else ""
        print(f"  {index:3d} {request.workload:<15} {request.system:<13} "
              f"scale={request.scale:g}{seed} {digest[:16]}")
    print(f"workload digest {first.digest}")


# ----------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: float = 1.0, probes: int = SETUP_PROBES,
        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One benchmark run: prints its tables, returns (result, record)."""
    import_simulator()
    spec = load_spec()
    setups, imports = probe_setup(workload_name, seed, size, probes)
    workload = build(workload_name, seed, size)
    ledger = Ledger()
    if trace:
        measured = measure_layers(workload, seconds, ledger)
        measured["setup.import_s"] = statistics.median(imports)
        declared = spec["per_layer"]
    else:
        measured = measure_end_to_end(workload, seconds, ledger)
        measured["setup_s"] = statistics.median(setups)
        declared = spec["end_to_end"]
    metrics = select(measured, declared)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {"schema": "perfbench-record/1", "trace": trace,
              "provenance": provenance(workload),
              "passes": measured["passes"],
              "samples": measured["samples"],
              "digest": ledger.reference.digest,
              "run_digests": ledger.reference.run_digests,
              "failures": ledger.failures,
              "excluded_pairings": list(EXCLUDED_PAIRINGS),
              **result}
    print_runs(workload, ledger.reference)
    print_table(f"{workload_name}: {'per-layer' if trace else 'end-to-end'}"
                f" metrics over {measured['passes']} pass(es)", metrics)
    if not trace:
        # The complements of ok_frac and commit_frac, which stand in for
        # them in BENCHMARK.json because a reported metric must not be 0.
        print(f"  {'failed_frac':<40} "
              f"{ledger.failed / ledger.attempted:>14.6g} fraction")
        print(f"  {'abort_frac':<40} "
              f"{1.0 - measured['commit_frac']:>14.6g} fraction")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    return result, record


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale multiplier (tests use a tiny size)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe_main(args)
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), size=args.size)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
