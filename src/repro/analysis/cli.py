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
from typing import List, Optional, Sequence

from .findings import AnalysisReport, PassReport


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="protocol model checker, MTX trace race detector and "
                    "repo lint (DESIGN.md section 10)")
    parser.add_argument("--modelcheck", action="store_true",
                        help="exhaustively check the coherence protocol "
                             "over the full VID space")
    parser.add_argument("--racecheck", action="store_true",
                        help="trace every backend over the workload suite "
                             "and replay MTX semantics")
    parser.add_argument("--lint", action="store_true",
                        help="run the repo-specific AST lint over src/")
    parser.add_argument("--explore", action="store_true",
                        help="run the interleaving explorer (EX001-EX004) "
                             "over a bounded scenario preset")
    parser.add_argument("--vid-bits", type=int, default=6, metavar="M",
                        help="VID width for the model checker "
                             "(default: the paper's m=6)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale for racecheck traces "
                             "(default 0.25, the CI quick scale)")
    parser.add_argument("--backends", default=None, metavar="A,B",
                        help="comma-separated backends to racecheck "
                             "(default: every registered backend)")
    parser.add_argument("--workloads", default=None, metavar="W,X",
                        help="comma-separated workloads to racecheck "
                             "(default: Table 1 suite + contended-list)")
    parser.add_argument("--paths", nargs="*", default=None,
                        help="files/directories to lint "
                             "(default: the repro package)")
    parser.add_argument("--preset", default="small", metavar="NAME",
                        help="explorer scenario preset "
                             "(small | chain | scrub; default small)")
    parser.add_argument("--shapes", default=None, metavar="S,T",
                        help="comma-separated machine shapes to explore "
                             "(default: flat,2socket,flat-spill)")
    parser.add_argument("--inject", default=None, metavar="BUG",
                        help="explore with a mutation hook enabled "
                             "(mutation-kill gate; see INJECTIONS)")
    parser.add_argument("--max-states", type=int, default=None, metavar="N",
                        help="explorer state budget "
                             "(default 20000; exhaustion is reported)")
    parser.add_argument("--depth", type=int, default=None, metavar="D",
                        help="explorer schedule-depth budget (default 80)")
    parser.add_argument("--no-reduce", action="store_true",
                        help="disable the canonicalization quotient "
                             "(VID renaming + socket mirror)")
    parser.add_argument("--emit-counterexamples", default=None,
                        metavar="DIR",
                        help="write each minimized counterexample as a "
                             "replayable JSON artifact under DIR")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the report (in the chosen "
                             "format) to FILE")
    return parser


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item for item in (part.strip() for part in value.split(","))
            if item]


def run_passes(args: argparse.Namespace) -> AnalysisReport:
    selected_all = not (args.modelcheck or args.racecheck or args.lint
                        or args.explore)
    passes: List[PassReport] = []
    if args.modelcheck or selected_all:
        from .modelcheck import check_protocol, check_topology_structure  # lint-ok: RL005 (each pass loads only when selected so `analyze --lint` stays import-light)
        passes.append(check_protocol(vid_bits=args.vid_bits))
        passes.append(check_topology_structure())
    if args.racecheck or selected_all:
        from .traces import racecheck_backends  # lint-ok: RL005 (pulls in the full backend/runtime stack; loaded only when the pass is selected)
        passes.append(racecheck_backends(backends=_split(args.backends),
                                         workloads=_split(args.workloads),
                                         scale=args.scale))
    if args.lint or selected_all:
        from .lint import lint_paths  # lint-ok: RL005 (symmetry with the other passes; loaded only when selected)
        paths = [Path(p) for p in args.paths] if args.paths else None
        passes.append(lint_paths(paths))
    if args.explore:
        # Opt-in only: deliberately not part of the default pass set —
        # exploring deep-copies the full hierarchy per transition.
        from .explore import DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, SHAPES, explore_pass  # lint-ok: RL005 (each pass loads only when selected so `analyze --lint` stays import-light)
        passes.append(explore_pass(
            preset=args.preset,
            shapes=tuple(_split(args.shapes) or SHAPES),
            inject=args.inject,
            reduce=not args.no_reduce,
            max_states=(args.max_states if args.max_states is not None
                        else DEFAULT_MAX_STATES),
            max_depth=(args.depth if args.depth is not None
                       else DEFAULT_MAX_DEPTH),
            emit_dir=args.emit_counterexamples))
    return AnalysisReport(passes=passes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = run_passes(args)
    rendered = json.dumps(report.to_json(), indent=2, sort_keys=True) \
        if args.fmt == "json" else report.format_text()
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    sys.stdout.write(rendered + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
