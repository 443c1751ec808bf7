"""Exhaustive model checker for the HMTX coherence protocol functions.

The paper's section 4.3 correctness argument rests on hit/miss/conflict
decisions being *purely local* functions of ``(state, modVID, highVID,
requestVID)``.  :mod:`repro.coherence.protocol` encodes them as
side-effect-free functions, which makes the whole decision space finitely
enumerable: 9 states x an m-bit ``modVID`` x an m-bit ``highVID`` x an
m-bit ``requestVID``.  This module walks that space — every tuple, the
full 2**m VID namespace, no sampling — and checks each invariant against
an *independent* specification transcribed from the paper's prose, so an
implementation bug and a spec transcription bug would have to coincide
exactly to slip through.

Invariants (rule catalog; see DESIGN.md section 10):

``MC001`` hit-window soundness
    ``version_hits`` equals the section 4.1 window spec: latest versions
    serve ``a >= modVID``, superseded versions serve ``modVID <= a <
    highVID``, valid non-speculative lines serve everything, Invalid
    nothing.
``MC002`` version partitioning
    Every version chain the protocol can create (a non-speculative backup
    plus superseded copies plus one latest version) partitions the VID
    space: each request VID hits *exactly one* version.
``MC003`` dependence-exact write aborts
    A speculative write aborts iff a flow/anti/output dependence would be
    violated — the hit version is superseded, or a logically-later access
    already touched the line (``a < highVID``) — and writes in place iff
    the same transaction re-writes its own version.
``MC004`` new-version partition preservation
    The Figure 4 copy-creating write splits the old service window
    exactly: backup ``S-O`` takes ``[modVID, a)``, the fresh ``S-M(a,a)``
    takes ``[a, ...)``; no request VID is gained, lost, or double-served.
``MC005`` read effects
    Superseded versions are immutable under reads; latest versions only
    ever raise ``highVID`` to the reading VID; non-speculative lines
    enter the speculative world as ``S-M(0,a)``/``S-E(0,a)`` preserving
    dirtiness.
``MC006`` lazy commit fold convergence
    Folding commits ``1..c`` one at a time equals applying
    ``commit_transition`` once with ``commit_vid=c`` — the property that
    lets a lazy cache process any backlog of commit broadcasts in a
    single step (section 5.3), in whatever order lines are touched.
``MC007`` abort convergence
    Abort after any commit prefix leaves no speculative state behind and
    is idempotent — lazy Committed/Aborted processing reaches the same
    final state regardless of when each line is touched.
``MC008`` VID-reset scrub
    The section 4.6 reset turns every surviving latest version into plain
    ``M``/``E`` data, kills every superseded copy, and zeroes all VIDs —
    so a recycled VID namespace can never alias a stale epoch.

On failure the report carries the exact counterexample: the input tuple,
the transition taken, and expected-vs-got.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, List, Optional, Tuple

from ..coherence import protocol as _protocol_module
from ..coherence.protocol import WriteOutcome
from ..coherence.states import State
from ..coherence.vid import DEFAULT_VID_BITS
from .findings import SEVERITY_ERROR, Finding, PassReport

#: Cap on reported counterexamples per rule (every violation is *counted*;
#: only the first few are materialised as findings).
MAX_FINDINGS_PER_RULE = 5

#: Schema tag of the structured counterexample attached to each finding.
COUNTEREXAMPLE_SCHEMA = "hmtx-modelcheck-counterex/1"

#: Longest superseded-version chain enumerated for MC002.  Chains are
#: built from strictly increasing write VIDs, so length 3 plus the
#: non-speculative backup already exercises every structural case
#: (below-all, between-any-two, above-all request VIDs).
DEFAULT_MAX_CHAIN = 3

_LATEST = (State.SM, State.SE)
_SUPERSEDED = (State.SO, State.SS)
_NONSPEC_VALID = (State.MODIFIED, State.OWNED, State.EXCLUSIVE, State.SHARED)


# ----------------------------------------------------------------------
# Independent specification (transcribed from the paper, NOT from the
# implementation — section 4.1 windows, Figure 4/6/7 transitions).
# ----------------------------------------------------------------------

def _spec_hits(state: State, m: int, h: int, a: int) -> bool:
    if state is State.INVALID:
        return False
    if state in _LATEST:
        return a >= m
    if state in _SUPERSEDED:
        return m <= a < h
    return True


def _spec_write(state: State, m: int, h: int, a: int) -> WriteOutcome:
    """Dependence analysis of a write hitting ``(state, m, h)`` with VID ``a``.

    * superseded version: a logically-later write already superseded this
      copy — writing it would violate an output dependence -> ABORT;
    * latest version with ``a < h``: a logically-later load or store
      already observed/extended the line — flow/anti dependence -> ABORT;
    * same transaction re-writes its own latest version -> IN_PLACE;
    * otherwise the write is dependence-safe and creates a new version.
    """
    if state in _SUPERSEDED:
        return WriteOutcome.ABORT
    if state in _LATEST:
        if a < h:
            return WriteOutcome.ABORT
        if a == m:
            return WriteOutcome.IN_PLACE
        return WriteOutcome.NEW_VERSION
    return WriteOutcome.NEW_VERSION


def reachable(state: State, m: int, h: int) -> bool:
    """Can the protocol ever create a version tagged ``(state, m, h)``?

    Non-speculative lines carry no VIDs.  ``S-M`` is created as ``(a,a)``
    and its ``highVID`` only rises (``modVID`` may drop to 0 when its
    creating store's transaction commits under it, section 5.3);
    ``S-E``'s ``modVID`` is always 0; ``S-O`` records a strictly-later
    superseding write in ``highVID``; ``S-S`` mirrors the version it was
    snooped from.
    """
    if not state.speculative:
        return m == 0 and h == 0
    if state is State.SO:
        return 0 <= m < h
    if state is State.SE:
        return m == 0 and h >= 1
    # S-M / S-S
    return 0 <= m <= h and h >= 1


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------

class _Collector:
    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.violations = 0

    def emit(self, rule: str, where: str, message: str, detail: str,
             counterexample: Optional[Dict[str, Any]] = None) -> None:
        self.violations += 1
        per_rule = sum(1 for f in self.findings if f.rule == rule)
        if per_rule < MAX_FINDINGS_PER_RULE:
            if counterexample is not None:
                counterexample = dict(counterexample)
                counterexample.setdefault("schema", COUNTEREXAMPLE_SCHEMA)
                counterexample.setdefault("rule", rule)
            self.findings.append(Finding(rule, SEVERITY_ERROR, where,
                                         message, detail,
                                         counterexample=counterexample))


def _tuple_repr(state: State, m: int, h: int,
                a: Optional[int] = None) -> str:
    text = f"({state.value}, modVID={m}, highVID={h}"
    if a is not None:
        text += f", reqVID={a}"
    return text + ")"


def _tuple_doc(state: State, m: int, h: int, a: Optional[int] = None,
               **extra: Any) -> Dict[str, Any]:
    """The exact input tuple as a machine-readable counterexample."""
    doc: Dict[str, Any] = {"state": state.value, "mod_vid": m,
                           "high_vid": h}
    if a is not None:
        doc["request_vid"] = a
    doc.update(extra)
    return doc


def check_protocol(vid_bits: int = DEFAULT_VID_BITS,
                   max_chain: int = DEFAULT_MAX_CHAIN,
                   protocol=None) -> PassReport:
    """Run every invariant over the full ``vid_bits`` decision space.

    ``protocol`` defaults to :mod:`repro.coherence.protocol`; the mutation
    tests pass a patched namespace to prove a broken transition yields a
    counterexample.
    """
    proto = protocol if protocol is not None else _protocol_module
    version_hits = proto.version_hits
    write_outcome = proto.write_outcome
    plan_new_version = proto.plan_new_version
    read_transition = proto.read_transition
    commit_transition = proto.commit_transition
    abort_transition = proto.abort_transition
    reset_transition = proto.reset_transition

    max_vid = (1 << vid_bits) - 1
    vids = range(max_vid + 1)
    out = _Collector()

    enumerated = 0
    reachable_versions = 0
    request_tuples = 0
    commit_fold_steps = 0
    abort_pairs = 0

    for state in State:
        latest = state in _LATEST
        superseded = state in _SUPERSEDED
        for m in vids:
            for h in vids:
                enumerated += 1
                if not reachable(state, m, h):
                    continue
                reachable_versions += 1
                where_v = _tuple_repr(state, m, h)

                # ---- MC006: lazy commit fold convergence (induction:
                # one-shot commit at c == incremental commit of c applied
                # to the one-shot result at c-1).
                prev = (state, (m, h))
                for c in range(1, max_vid + 1):
                    one_shot = commit_transition(state, m, h, c)
                    stepped = commit_transition(prev[0], prev[1][0],
                                                prev[1][1], c)
                    commit_fold_steps += 1
                    if stepped != one_shot:
                        out.emit(
                            "MC006", where_v,
                            "lazy commit fold diverges from one-shot commit",
                            f"commit_transition folded up to {c} gives "
                            f"{stepped}, one-shot commit({c}) gives "
                            f"{one_shot}",
                            _tuple_doc(state, m, h, commit_vid=c))
                        break
                    prev = one_shot

                # ---- MC007: abort convergence after any commit prefix.
                for c in (0, m, h, max_vid):
                    base = ((state, (m, h)) if c == 0
                            else commit_transition(state, m, h, c))
                    aborted = abort_transition(base[0], base[1][0],
                                               base[1][1])
                    abort_pairs += 1
                    if aborted[0].speculative:
                        out.emit(
                            "MC007", where_v,
                            "speculative state survives an abort",
                            f"abort after commit({c}) left {aborted}",
                            _tuple_doc(state, m, h, commit_vid=c))
                    again = abort_transition(aborted[0], aborted[1][0],
                                             aborted[1][1])
                    if again != aborted:
                        out.emit(
                            "MC007", where_v,
                            "abort is not idempotent",
                            f"abort(abort(v)) = {again} != abort(v) = "
                            f"{aborted} (after commit({c}))",
                            _tuple_doc(state, m, h, commit_vid=c))

                # ---- MC008: VID-reset scrub.
                if state.speculative:
                    expect = ((State.MODIFIED if state is State.SM
                               else State.EXCLUSIVE) if latest
                              else State.INVALID)
                    got = reset_transition(state, m, h)
                    if got != (expect, (0, 0)):
                        out.emit(
                            "MC008", where_v,
                            "VID reset does not scrub the version",
                            f"reset_transition gave {got}, the 4.6 scrub "
                            f"requires ({expect}, (0, 0))",
                            _tuple_doc(state, m, h))

                # ---- The request-VID dimension.
                for a in vids:
                    request_tuples += 1
                    where = _tuple_repr(state, m, h, a)

                    # MC001: hit-window soundness.
                    hits = version_hits(state, m, h, a)
                    if hits != _spec_hits(state, m, h, a):
                        out.emit(
                            "MC001", where,
                            "version_hits disagrees with the section 4.1 "
                            "window spec",
                            f"version_hits={hits}, spec="
                            f"{_spec_hits(state, m, h, a)}",
                            _tuple_doc(state, m, h, a))
                        continue
                    if not hits:
                        continue

                    # MC003: dependence-exact write classification
                    # (checked on hit tuples: the hierarchy only consults
                    # write_outcome for the version a request hits).
                    outcome = write_outcome(state, m, h, a)
                    expected = _spec_write(state, m, h, a)
                    if outcome is not expected:
                        out.emit(
                            "MC003", where,
                            "write_outcome violates the dependence rules",
                            f"write_outcome={outcome.value}, dependence "
                            f"analysis requires {expected.value}",
                            _tuple_doc(state, m, h, a))
                        continue

                    # MC004: the copy-creating write preserves the
                    # partition.  MC001 proved the windows are the spec
                    # intervals, so boundary request VIDs suffice.
                    if outcome is WriteOutcome.NEW_VERSION:
                        plan = plan_new_version(state, m, h, a)
                        src_m = m if state.speculative else 0
                        if (plan.old_state is not State.SO
                                or plan.old_vids != (src_m, a)
                                or plan.new_vids != (a, a)):
                            out.emit(
                                "MC004", where,
                                "new-version plan deviates from Figure 4",
                                f"got old={plan.old_state.value}"
                                f"{plan.old_vids} new=S-M{plan.new_vids}; "
                                f"expected old=S-O({src_m},{a}) "
                                f"new=S-M({a},{a})",
                                _tuple_doc(state, m, h, a))
                        else:
                            for q in {0, max(0, src_m - 1), src_m,
                                      max(0, a - 1), a, max_vid}:
                                before = version_hits(state, m, h, q)
                                after = (version_hits(State.SO, src_m, a, q)
                                         + version_hits(State.SM, a, a, q))
                                if after != (1 if before else 0):
                                    out.emit(
                                        "MC004", where,
                                        "copy-creating write gains/loses "
                                        "a request VID",
                                        f"reqVID {q}: hit {before} before "
                                        f"the write, {after} version(s) "
                                        f"after",
                                        _tuple_doc(state, m, h, a,
                                                   probe_vid=q))

                    # MC005: read effects (speculative reads carry a >= 1).
                    if a >= 1:
                        rt = read_transition(state, m, h, a)
                        if superseded:
                            ok = rt == (state, (m, h))
                            want = f"immutable {(state, (m, h))}"
                        elif latest:
                            ok = rt == (state, (m, max(h, a)))
                            want = f"({state}, ({m}, {max(h, a)}))"
                        elif state in (State.MODIFIED, State.OWNED):
                            ok = rt == (State.SM, (0, a))
                            want = f"(S-M, (0, {a}))"
                        else:
                            ok = rt == (State.SE, (0, a))
                            want = f"(S-E, (0, {a}))"
                        if not ok:
                            out.emit(
                                "MC005", where,
                                "read transition corrupts the version",
                                f"read_transition gave {rt}, expected "
                                f"{want}",
                                _tuple_doc(state, m, h, a))

    # ---- MC002: version-chain partitioning.  A chain is the backup
    # S-O(0,b1), superseded copies S-O(b_i, b_{i+1}), and the latest
    # S-M(b_k, b_k) — exactly what successive dependence-safe writes with
    # VIDs b1 < ... < bk build (MC004 verified each individual split).
    # MC001 proved every window is the spec interval, so checking the
    # interval boundaries covers all 2**m request VIDs.
    chains = 0
    chain_points = 0
    for k in range(1, max_chain + 1):
        for bases in combinations(range(1, max_vid + 1), k):
            chains += 1
            versions: List[Tuple[State, int, int]] = [(State.SO, 0, bases[0])]
            versions += [(State.SO, bases[i], bases[i + 1])
                         for i in range(k - 1)]
            versions.append((State.SM, bases[-1], bases[-1]))
            points = {0, max_vid}
            for b in bases:
                points.update((b - 1, b))
            for q in points:
                chain_points += 1
                serving = [v for v in versions
                           if version_hits(v[0], v[1], v[2], q)]
                if len(serving) != 1:
                    out.emit(
                        "MC002",
                        "chain " + " -> ".join(
                            f"{s.value}({m},{h})" for s, m, h in versions),
                        f"request VID {q} hits {len(serving)} versions "
                        "(must be exactly 1)",
                        f"serving: {[f'{s.value}({m},{h})' for s, m, h in serving]}",
                        {"chain": [[s.value, m, h] for s, m, h in versions],
                         "request_vid": q})
            if out.violations > 10_000:  # runaway mutant; coverage is moot
                break
        if out.violations > 10_000:
            break

    report = PassReport(name="modelcheck", findings=out.findings)
    report.coverage = {
        "vid_bits": vid_bits,
        "tuples_enumerated": enumerated,
        "version_tuples_reachable": reachable_versions,
        "request_tuples_checked": request_tuples,
        "commit_fold_steps": commit_fold_steps,
        "abort_pairs_checked": abort_pairs,
        "chains_checked": chains,
        "chain_points_checked": chain_points,
        "violations": out.violations,
    }
    return report


# ----------------------------------------------------------------------
# Structural pass: sliced-LLC / directory invariants on a live machine
# ----------------------------------------------------------------------

#: Deterministic op script for :func:`check_topology_structure` — enough
#: load/store/commit/abort/reset churn to populate every slice, force L1
#: victims into home slices, and exercise the presence map.
_STRUCTURE_VIDS = (1, 2, 3)


def check_topology_structure(hierarchy_factory=None,
                             lines: int = 48) -> PassReport:
    """Hold the sliced-LLC structural invariants on a 2-socket machine.

    The pure-function checker above cannot see *placement* bugs — a
    version installed in the wrong LLC slice, a holder missing from the
    presence map the directory probes — because those live in the
    hierarchy objects, not the protocol tables.  This pass builds a small 2-socket
    :class:`~repro.coherence.directory.DirectoryHierarchy`, drives a
    deterministic access script across both sockets, and re-checks after
    every step:

    ``MC009`` home-slice ownership
        Every LLC-resident version sits in its address's home slice
        (victim routing and installs never target a foreign slice).
    ``MC010`` sharer-set completeness
        Every cache holding a version of a line appears in the line's
        presence-map entry (the directory's sharer set), and the
        per-cache version indices mirror the set contents they summarise.

    ``hierarchy_factory`` defaults to the real machine; the mutation
    tests pass a factory producing a deliberately broken subclass (e.g.
    a ``_home_llc`` that picks the wrong slice) to prove a placement bug
    yields a counterexample instead of silently passing.
    """
    from ..coherence.directory import DirectoryConfig, DirectoryHierarchy  # lint-ok: RL005 (pulls in the full coherence stack; loaded only when the pass runs)
    from ..topology import TopologySpec  # lint-ok: RL005 (same)

    if hierarchy_factory is None:
        def hierarchy_factory():
            # Tiny L1s (16 lines, 2-way) so the script's working set
            # overflows them and victims actually flow into the LLC
            # slices — otherwise the home-slice invariant is vacuous.
            return DirectoryHierarchy(DirectoryConfig(
                num_cores=8, l1_size=16 * 64, l1_assoc=2,
                topology=TopologySpec(sockets=2, cores_per_socket=4)))

    out = _Collector()
    hierarchy = hierarchy_factory()
    line_size = hierarchy.config.line_size
    num_cores = hierarchy.config.num_cores

    def classify(message: str) -> str:
        return "MC010" if ("unrecorded" in message
                           or "presence map" in message
                           or "index" in message) else "MC009"

    steps = 0
    checks = 0

    def recheck(where: str) -> None:
        nonlocal checks
        for check in (hierarchy.check_invariants,
                      hierarchy.check_directory_invariant):
            checks += 1
            try:
                check()
            except AssertionError as exc:
                message = str(exc) or "structural invariant violated"
                out.emit(classify(message), where,
                         "sliced-LLC structural invariant violated",
                         message,
                         {"where": where, "phase": "recheck",
                          "assertion": message, "step": steps})

    def drive(op, where: str) -> bool:
        # A corrupted machine may trip an internal assertion mid-op (a
        # stale index serving two versions, say); that is a counterexample,
        # not a harness crash.
        nonlocal steps
        steps += 1
        try:
            op()
            return True
        except AssertionError as exc:
            message = str(exc) or "operation tripped internal assertion"
            out.emit(classify(message), where,
                     "access on the sliced machine tripped an internal "
                     "assertion", message,
                     {"where": where, "phase": "drive",
                      "assertion": message, "step": steps})
            return False

    addrs = [i * line_size for i in range(lines)]
    now = 0
    aborted_run = False
    for round_index, vid in enumerate(_STRUCTURE_VIDS):
        for i, addr in enumerate(addrs):
            core = (i + round_index) % num_cores
            far = (core + num_cores // 2) % num_cores
            where = f"round {round_index} addr 0x{addr:x}"
            # Read on one socket, write from the other, so versions and
            # victims cross the socket boundary both ways.
            if not (drive(lambda: hierarchy.load(core, addr, vid, now=now),
                          where)
                    and drive(lambda: hierarchy.store(
                        far, addr, vid, value=i + round_index, now=now),
                        where)):
                aborted_run = True
                break
            now += 1
            if i % 8 == 7:
                recheck(where)
        if aborted_run:
            break
        drive(hierarchy.abort if vid == 2
              else lambda: hierarchy.commit(vid),
              f"outcome of vid {vid}")
        recheck(f"after outcome of vid {vid}")
        if out.violations > 1_000:  # runaway mutant; coverage is moot
            break
    if not aborted_run:
        drive(hierarchy.vid_reset, "vid_reset")
        recheck("after vid_reset")

    report = PassReport(name="modelcheck-structure", findings=out.findings)
    report.coverage = {
        "sockets": getattr(hierarchy.config.topology, "sockets", 1),
        "cores": num_cores,
        "lines_driven": lines,
        "ops_executed": steps,
        "invariant_checks": checks,
        "violations": out.violations,
    }
    return report
