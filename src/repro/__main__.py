"""Command-line interface: regenerate artifacts and run benchmarks.

Examples::

    python -m repro list                      # what can I run?
    python -m repro fig8 --jobs 4             # one figure, 4 worker procs
    python -m repro evaluate --scale 0.5      # every table & figure
    python -m repro all --quick --jobs 2      # everything + merged report
    python -m repro run 130.li --system smtx  # one benchmark, one system
    python -m repro run ispell --trace        # with a protocol trace summary

Every command is one row of :data:`COMMANDS`: its words, a help line, a
function that declares its flags, and a ``"module:function"`` handler.
:func:`main` picks the longest row whose words prefix ``argv``, imports
that row's module, builds only that row's parser and calls the handler
with the parsed arguments.  Importing this module loads no simulator
code.

To add a command, write ``handler(args) -> int`` in the module that owns
the work, an ``_args(parser, module)`` function here (``module`` is the
handler's module, for the defaults it owns), and one row.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import textwrap
from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    Tuple)


class Command(NamedTuple):
    help: str
    #: ``add_args(parser, module)``; ``module`` is the handler's module.
    add_args: Callable[[argparse.ArgumentParser, Any], None]
    #: ``"module:function"``; imported only when the command is dispatched.
    handler: str


# ----------------------------------------------------------------------
# Flags shared by several commands (one declaration, one meaning)
# ----------------------------------------------------------------------

def _scale(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (default 1.0)")


def _jobs(p: argparse.ArgumentParser,
          help: str = "sweep-engine worker processes (default 1); "
                      "output is byte-identical for every value") -> None:
    p.add_argument("--jobs", type=int, default=1, help=help)


def _format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format")


def _history(p: argparse.ArgumentParser) -> None:
    p.add_argument("--history", nargs="?", const="", default=None,
                   metavar="DIR",
                   help="append the run's obs digests to the cross-run "
                        "history store (default dir .obs-history when no "
                        "DIR given)")


def _csv(value: str) -> Tuple[str, ...]:
    return tuple(item for item in (part.strip() for part in value.split(","))
                 if item)


def _names(p: argparse.ArgumentParser, flag: str, what: str,
           default: Sequence[str]) -> None:
    """A comma-separated list flag; None (absent) means ``default``."""
    p.add_argument(flag, type=_csv, default=None,
                   help=f"comma-separated {what} (default "
                        f"{','.join(default)})")


# ----------------------------------------------------------------------
# Per-command flags
# ----------------------------------------------------------------------

def _no_args(p, m) -> None:
    pass


def _artifact_args(p, m) -> None:
    _scale(p)
    _jobs(p)


def _all_args(p, m) -> None:
    _scale(p)
    p.add_argument("--quick", action="store_true",
                   help=f"reduced scale ({m.QUICK_SCALE}) for CI smoke")
    _jobs(p)
    p.add_argument("--output", default=m.DEFAULT_REPORT,
                   help=f"merged report file (default {m.DEFAULT_REPORT})")
    p.add_argument("--bench-output", default=None,
                   help="also record this invocation's wall time "
                        "(e.g. BENCH_sweep.json)")


def _run_args(p, m) -> None:
    p.add_argument("benchmark", choices=m.BENCHMARK_NAMES)
    p.add_argument("--system", default="hmtx", choices=m.RUN_SYSTEMS)
    _scale(p)
    p.add_argument("--trace", action="store_true",
                   help="attach a protocol tracer and print its summary")
    p.add_argument("--stats", action="store_true",
                   help="print the full statistics dump")


def _bench_args(p, m) -> None:
    p.add_argument("--quick", action="store_true",
                   help=f"reduced scale ({m.QUICK_SCALE}) for CI smoke")
    p.add_argument("--repeat", type=int, default=1,
                   help="best-of-N wall-clock per workload (default 1)")
    _jobs(p, help="sweep-engine worker processes (default 1; parallel "
                  "workers contend for CPU, so keep 1 when the wall "
                  "numbers matter)")
    p.add_argument("--output", default=m.DEFAULT_OUTPUT,
                   help=f"report file (default {m.DEFAULT_OUTPUT})")
    p.add_argument("--baseline", default=None,
                   help="baseline file for --check "
                        "(default: the output file before rewriting)")
    p.add_argument("--check", action="store_true",
                   help="fail when ops/sec regresses more than "
                        "--tolerance below the committed baseline")
    p.add_argument("--tolerance", type=float, default=m.DEFAULT_TOLERANCE,
                   help="allowed fractional ops/sec regression "
                        f"(default {m.DEFAULT_TOLERANCE})")
    _history(p)


def _analyze_args(p, m) -> None:
    p.add_argument("--modelcheck", action="store_true",
                   help="exhaustively check the coherence protocol "
                        "over the full VID space")
    p.add_argument("--racecheck", action="store_true",
                   help="trace every backend over the workload suite "
                        "and replay MTX semantics")
    p.add_argument("--lint", action="store_true",
                   help="run the repo-specific AST lint over src/")
    p.add_argument("--explore", action="store_true",
                   help="run the interleaving explorer (EX001-EX004) "
                        "over a bounded scenario preset")
    p.add_argument("--vid-bits", type=int, default=6, metavar="M",
                   help="VID width for the model checker "
                        "(default: the paper's m=6)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload scale for racecheck traces "
                        "(default 0.25, the CI quick scale)")
    p.add_argument("--backends", type=_csv, default=None, metavar="A,B",
                   help="comma-separated backends to racecheck "
                        "(default: every registered backend)")
    p.add_argument("--workloads", type=_csv, default=None, metavar="W,X",
                   help="comma-separated workloads to racecheck "
                        "(default: Table 1 suite + contended-list)")
    p.add_argument("--paths", nargs="*", default=None,
                   help="files/directories to lint "
                        "(default: the repro package)")
    p.add_argument("--preset", default="small", metavar="NAME",
                   help="explorer scenario preset "
                        "(small | chain | scrub; default small)")
    p.add_argument("--shapes", type=_csv, default=None, metavar="S,T",
                   help="comma-separated machine shapes to explore "
                        "(default: flat,2socket,flat-spill)")
    p.add_argument("--inject", default=None, metavar="BUG",
                   help="explore with a mutation hook enabled "
                        "(mutation-kill gate; see INJECTIONS)")
    p.add_argument("--max-states", type=int, default=None, metavar="N",
                   help="explorer state budget "
                        "(default 20000; exhaustion is reported)")
    p.add_argument("--depth", type=int, default=None, metavar="D",
                   help="explorer schedule-depth budget (default 80)")
    p.add_argument("--no-reduce", action="store_true",
                   help="disable the canonicalization quotient "
                        "(VID renaming + socket mirror)")
    p.add_argument("--emit-counterexamples", default=None, metavar="DIR",
                   help="write each minimized counterexample as a "
                        "replayable JSON artifact under DIR")
    _format(p)
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the report (in the chosen "
                        "format) to FILE")


def _obs_args(p, m) -> None:
    p.add_argument("workload",
                   help="suite benchmark or adversarial workload "
                        "(e.g. contended-list)")
    p.add_argument("--backend", "--system", dest="system", default="hmtx",
                   help="system label or registered backend (default hmtx)")
    p.add_argument("--paradigm", default=None,
                   help="force a parallelisation paradigm")
    p.add_argument("--policy", default=None,
                   help="txctl retry policy name")
    _scale(p)
    p.add_argument("--timeline", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON (Perfetto-loadable)")
    _format(p)
    p.add_argument("--gantt", action="store_true",
                   help="render the terminal Gantt view")
    p.add_argument("--gantt-width", type=int, default=72)
    p.add_argument("--top", type=int, default=5,
                   help="hot-line table size (default 5)")
    p.add_argument("--metrics", action="store_true",
                   help="also dump the full metrics registry")
    p.add_argument("--overhead-check", action="store_true",
                   help="time instrumented vs uninstrumented and "
                        "assert the overhead bound")
    p.add_argument("--overhead-limit", type=float, default=1.75,
                   help="max allowed wall-clock slowdown factor "
                        "(default 1.75)")
    p.add_argument("--repeat", type=int, default=3,
                   help="best-of-N runs for --overhead-check")
    _history(p)


def _obs_diff_args(p, m) -> None:
    p.add_argument("a", help="before: path or history ref")
    p.add_argument("b", help="after: path or history ref")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="history store for ref sources "
                        "(default .obs-history)")
    _format(p)
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the hmtx-obs-diff/1 artifact")
    p.add_argument("--top", type=int, default=3,
                   help="phases per pair in the text report (default 3)")
    p.add_argument("--check-zero", action="store_true",
                   help="exit non-zero unless the diff is exactly "
                        "zero (CI determinism gate)")


def _obs_history_args(p, m) -> None:
    p.add_argument("--store", default=None, metavar="DIR",
                   help="history store (default .obs-history)")
    p.add_argument("--limit", type=int, default=10,
                   help="generations to list (default 10)")
    p.add_argument("--ref", default="HEAD",
                   help="generation to export (default HEAD)")
    p.add_argument("--export", default=None, metavar="FILE",
                   help="write --ref as a hmtx-obs-digests/1 bundle")


def _whatif_args(p, m) -> None:
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: one preset, one backend, one "
                        "workload, reset_scrub knob only")
    _names(p, "--presets", "topology presets", m.DEFAULT_PRESETS)
    _names(p, "--systems", "backends", m.DEFAULT_SYSTEMS)
    _names(p, "--workloads", "workloads", m.DEFAULT_WORKLOADS)
    _names(p, "--knobs", "knob names", m.KNOB_NAMES)
    p.add_argument("--delta", type=float, default=m.DEFAULT_DELTA,
                   help=f"perturbation fraction (default {m.DEFAULT_DELTA})")
    _scale(p)
    _jobs(p)
    _format(p)
    p.add_argument("--output", default=m.DEFAULT_OUTPUT,
                   help=f"report file (default {m.DEFAULT_OUTPUT}; "
                        f"'-' to skip writing)")


def _svc_args(p, m) -> None:
    p.add_argument("--seed", type=int, default=42,
                   help="master seed (default 42); equal seeds give "
                        "byte-identical output")
    _format(p)
    p.add_argument("--output", default=None,
                   help="write the artifact to a file instead of stdout")
    # latency mode
    p.add_argument("--workload", default="svc-kv",
                   help="registered workload name (default svc-kv)")
    _names(p, "--systems", "backend list", m.DEFAULT_SYSTEMS)
    _scale(p)
    _jobs(p)
    # search mode
    p.add_argument("--search", action="store_true",
                   help="run the adversarial genome search instead "
                        "of the latency artifact")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--population", type=int, default=4)
    p.add_argument("--survivors-dir", default=None,
                   help="serialize top genomes as survivor JSON "
                        "files in this directory")
    p.add_argument("--survivors", type=int, default=2,
                   help="how many survivors to write (default 2)")
    p.add_argument("--min-score", type=float, default=0.0,
                   help="only genomes scoring at least this survive")
    # replay mode
    p.add_argument("--replay", nargs="+", default=None, metavar="FILE",
                   help="re-score survivor files instead of running "
                        "the latency artifact")
    p.add_argument("--check", action="store_true",
                   help="with --replay: fail unless every survivor "
                        "reproduces its recorded abort rate")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="relative abort-rate tolerance for --check "
                        "(default 0.25)")


def _scaling_args(p, m) -> None:
    _scale(p)
    _jobs(p)
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: 2-socket x 8-core machine, "
                        "reduced workload set, scale 0.25")
    _names(p, "--presets", "preset names", m.SCALING_PRESETS)
    _names(p, "--workloads", "workload names", m.SCALING_WORKLOADS)
    _names(p, "--systems", "system labels", m.SCALING_SYSTEMS)
    p.add_argument("--placement", default="pack", choices=["pack", "spread"],
                   help="thread placement policy (default pack)")
    p.add_argument("--survivor", default=None,
                   help="also replay one svc survivor JSON "
                        "(svc-survivor:<path>) on the first "
                        "multi-socket preset under hmtx")
    p.add_argument("--output", default=m.DEFAULT_OUTPUT,
                   help=f"report file (default {m.DEFAULT_OUTPUT})")
    _history(p)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

#: Artifacts ``python -m repro <name>`` regenerates one at a time; the
#: drivers live in ``repro.experiments.cli.ARTIFACTS`` under the same names.
ARTIFACT_NAMES = ("contention", "fig1", "fig2", "fig5", "fig8", "fig9",
                  "table1", "table3")

_EXPERIMENTS = "repro.experiments.cli"

COMMANDS: Dict[str, Command] = {
    "list": Command("list artifacts, benchmarks, systems", _no_args,
                    f"{_EXPERIMENTS}:list_command"),
    **{name: Command(f"regenerate {name}", _artifact_args,
                     f"{_EXPERIMENTS}:artifact_command")
       for name in ARTIFACT_NAMES},
    "evaluate": Command("regenerate everything", _artifact_args,
                        f"{_EXPERIMENTS}:artifact_command"),
    "all": Command("regenerate everything and write a merged JSON report",
                   _all_args, f"{_EXPERIMENTS}:all_command"),
    "run": Command("run one benchmark under one system", _run_args,
                   f"{_EXPERIMENTS}:run_command"),
    "bench": Command("measure simulator wall-clock throughput (Figure 8 "
                     "suite + contended workloads; BENCH_hotpath.json)",
                     _bench_args, "repro.experiments.bench:bench_command"),
    "scaling": Command("topology scaling sweep: sockets x cores presets, "
                       "VID-reset storm curve (REPORT_scaling.json)",
                       _scaling_args,
                       "repro.experiments.scaling_sweep:scaling_command"),
    "analyze": Command("protocol model checker, MTX trace race detector "
                       "and repo lint (DESIGN.md section 10)",
                       _analyze_args, "repro.analysis.cli:analyze_command"),
    "obs": Command("run one workload fully instrumented: metrics, "
                   "transaction timeline, simulated-cycle profile",
                   _obs_args, "repro.obs.cli:obs_command"),
    "obs diff": Command("differential digest attribution between two runs: "
                        "paths (digest/report/bundle/sweep JSON) or history "
                        "refs (HEAD, HEAD~N, gen:N, git:LABEL)",
                        _obs_diff_args, "repro.obs.cli:diff_command"),
    "obs history": Command("list or export the cross-run obs-digest history",
                           _obs_history_args,
                           "repro.obs.cli:history_command"),
    "obs whatif": Command("causal what-if profiler: perturb one machine knob "
                          "at a time, rank knobs by makespan sensitivity",
                          _whatif_args, "repro.obs.whatif:whatif_command"),
    "svc": Command("service workloads: tail-latency artifact, adversarial "
                   "search, survivor replay", _svc_args,
                   "repro.svc.cli:svc_command"),
}


def _parser(prog: str, description: str,
            formatter=argparse.HelpFormatter) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(prog=prog, description=description,
                                   formatter_class=formatter)


def _usage() -> argparse.ArgumentParser:
    """The top-level parser: only ``--help`` and the command listing."""
    width = max(len(key) for key in COMMANDS)
    listing = "\n".join(
        textwrap.fill(command.help, 79, initial_indent=f"  {key:<{width}}  ",
                      subsequent_indent=" " * (width + 4))
        for key, command in COMMANDS.items())
    parser = _parser("python -m repro",
                     "Hardware Multithreaded Transactions (ASPLOS 2018) "
                     "reproduction\n\ncommands:\n" + listing,
                     argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", metavar="command", choices=sorted(
        {key.split()[0] for key in COMMANDS}))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    key = next((" ".join(argv[:n]) for n in range(len(argv), 0, -1)
                if " ".join(argv[:n]) in COMMANDS), None)
    if key is None:
        _usage().parse_args(argv[:1])  # prints help or exits 2
        return 2
    command = COMMANDS[key]
    module_name, function = command.handler.split(":")
    module = importlib.import_module(module_name)
    parser = _parser(f"python -m repro {key}", command.help)
    command.add_args(parser, module)
    parser.set_defaults(command=key)
    args = parser.parse_args(argv[len(key.split()):])
    return getattr(module, function)(args)


if __name__ == "__main__":
    raise SystemExit(main())
