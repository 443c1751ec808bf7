"""``python -m repro svc`` — tail latency, adversarial search, replay.

Three modes, all deterministic for a fixed seed (outputs carry no wall
clock, so equal invocations are byte-identical — the CI svc-smoke job
diffs exactly this):

latency (default)
    Run the open-loop KV workload observed on each backend and print
    per-backend p50/p90/p99/p999 commit-latency and queue-wait tables
    (``--format json`` for the ``hmtx-svc-latency/1`` document).

--search
    Seeded mutate-and-score hill-climb over adversarial genomes;
    optionally serialize the top survivors (``--survivors-dir``).

--replay FILE [FILE ...]
    Re-score committed survivor files; with ``--check``, exit non-zero
    unless every survivor reproduces its recorded abort rate within
    tolerance (the CI regression gate).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Optional

from .adversary import replay_survivor, search, write_survivors
from .latency import (
    DEFAULT_SYSTEMS,
    latency_report,
    render_json,
    render_text,
)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        pathlib.Path(output).write_text(text if text.endswith("\n")
                                        else text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def _cmd_latency(args) -> int:
    report = latency_report(workload=args.workload, scale=args.scale,
                            systems=args.systems or DEFAULT_SYSTEMS,
                            seed=args.seed, jobs=args.jobs)
    text = render_json(report) if args.format == "json" \
        else render_text(report)
    _emit(text, args.output)
    return 0 if all(row["correct"] for row in report["rows"]) else 1


def _cmd_search(args) -> int:
    report = search(seed=args.seed, rounds=args.rounds,
                    population=args.population)
    if args.survivors_dir:
        paths = write_survivors(report, args.survivors_dir,
                                count=args.survivors,
                                min_score=args.min_score)
        report["survivors"] = paths
    text = json.dumps(report, indent=2, sort_keys=True) + "\n" \
        if args.format == "json" else _render_search(report)
    _emit(text, args.output)
    return 0


def _render_search(report) -> str:
    lines = [f"svc adversarial search: seed {report['seed']}, "
             f"{report['rounds']} rounds x {report['population']}, "
             f"{report['evaluated']} genomes evaluated"]
    for entry in report["leaderboard"][:5]:
        genome = entry["genome"]
        metrics = entry["metrics"]
        genes = " ".join(f"{k}={v}" for k, v in sorted(genome.items()))
        lines.append(f"  score {entry['score']:>9}  "
                     f"aborts/commit {metrics['aborts_per_commit']}  "
                     f"esc {metrics['escalations']}  "
                     f"fallback {metrics['fallback_entries']}  | {genes}")
    for path in report.get("survivors", []):
        lines.append(f"  survivor: {path}")
    return "\n".join(lines)


def _cmd_replay(args) -> int:
    results = [replay_survivor(path, tolerance=args.tolerance)
               for path in args.replay]
    text = json.dumps({"schema": "hmtx-svc-replay/1", "results": results},
                      indent=2, sort_keys=True) + "\n" \
        if args.format == "json" else "\n".join(
            f"{r['name']}: recorded aborts/commit "
            f"{r['recorded_aborts_per_commit']} observed "
            f"{r['observed_aborts_per_commit']} (allowed delta "
            f"{r['allowed_delta']}) -> {'ok' if r['ok'] else 'FAIL'}"
            for r in results)
    _emit(text, args.output)
    if args.check and not all(r["ok"] for r in results):
        return 1
    return 0


def svc_command(args) -> int:
    """``python -m repro svc``: dispatch to the selected mode."""
    if args.search and args.replay:
        print("--search and --replay are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.search:
        return _cmd_search(args)
    if args.replay:
        return _cmd_replay(args)
    return _cmd_latency(args)
