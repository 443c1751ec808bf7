"""``python -m repro analyze`` — run the static/dynamic analysis passes.

With no pass flags the three default passes run (model check, racecheck,
lint); ``--explore`` opts into the interleaving-level stateful model
checker (``repro.analysis.explore``), which drives the real coherence
stack through every schedule of a bounded scenario preset.  Exit status
is 0 when every selected pass is clean, 1 when any pass produced an
error-severity finding — which is what the CI ``analysis`` job keys
off.  ``--format json`` emits the machine-readable
``hmtx-analysis-report/1`` schema for tooling; ``--output`` tees the
report to a file (the CI counterexample artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .explore import (DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, SHAPES,
                      explore_pass)
from .findings import AnalysisReport, PassReport
from .lint import lint_paths
from .modelcheck import check_protocol, check_topology_structure
from .traces import racecheck_backends


def run_passes(args: argparse.Namespace) -> AnalysisReport:
    selected_all = not (args.modelcheck or args.racecheck or args.lint
                        or args.explore)
    passes: List[PassReport] = []
    if args.modelcheck or selected_all:
        passes.append(check_protocol(vid_bits=args.vid_bits))
        passes.append(check_topology_structure())
    if args.racecheck or selected_all:
        passes.append(racecheck_backends(backends=args.backends,
                                         workloads=args.workloads,
                                         scale=args.scale))
    if args.lint or selected_all:
        paths = [Path(p) for p in args.paths] if args.paths else None
        passes.append(lint_paths(paths))
    if args.explore:
        # Opt-in only: deliberately not part of the default pass set —
        # exploring deep-copies the full hierarchy per transition.
        passes.append(explore_pass(
            preset=args.preset,
            shapes=args.shapes or SHAPES,
            inject=args.inject,
            reduce=not args.no_reduce,
            max_states=(args.max_states if args.max_states is not None
                        else DEFAULT_MAX_STATES),
            max_depth=(args.depth if args.depth is not None
                       else DEFAULT_MAX_DEPTH),
            emit_dir=args.emit_counterexamples))
    return AnalysisReport(passes=passes)


def analyze_command(args) -> int:
    report = run_passes(args)
    rendered = json.dumps(report.to_json(), indent=2, sort_keys=True) \
        if args.format == "json" else report.format_text()
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    sys.stdout.write(rendered + "\n")
    return 0 if report.ok else 1
