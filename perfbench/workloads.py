"""The benchmark's workloads: named, ordered request lists for the engine.

Each workload is the list of :class:`~repro.experiments.engine.RunRequest`
values one of the repo's drivers issues, rebuilt here from the drivers'
public spec builders so the benchmark measures what users run.  ``size``
multiplies every workload's scale (1.0 is the benchmark; the benchmark's
own tests use a tiny size).

Only ``svc`` depends on the seed.  It runs hmtx and smtx on the inputs
``python -m repro svc`` uses (its default seed, 42), plus smtx on
``SVC_SUBSEEDS`` inputs drawn from the benchmark seed.  hmtx is not run
on seeded svc inputs: it returns a wrong result, without raising, on
about 0.25-2.5 % of seeds (see ``EXCLUDED_PAIRINGS``), so a seeded hmtx
run would make the benchmark fail on an unlucky seed rather than on a
regression.  ``numa`` runs ``svc-kv`` on the default seed too, exactly
as ``python -m repro scaling`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Workload name -> (base scale, seeded?, why).
WORKLOADS: Dict[str, Tuple[float, bool, str]] = {
    "fig8": (1.0, False,
             "python -m repro fig8: 8 Table-1 models x sequential/hmtx/"
             "smtx-minimal, calibrated, flat snoopy machine; read-mostly "
             "L1-hit path, zero aborts"),
    "contention": (8.0, False,
                   "contended-list under backoff and lemming plus "
                   "capacity-hog under capacity-aware on the tiny machine; "
                   "write-heavy eviction, overflow and serial fallback"),
    "svc": (2.0, True,
            "svc-kv and svc-oltp, DOALL, observed, open-loop Zipfian: "
            "hmtx+smtx on seed 42, smtx on 8 seeds from --seed; workload "
            "generator, commits, VID resets; seeded hmtx excluded "
            "(wrong results)"),
    "numa": (1.0, False,
             "2s8c and 4s16c directory presets x 130.li/svc-kv x hmtx/smtx, "
             "observed; directory coherence, NUMA hops, machine-wide "
             "VID-reset quiesce; smtx-minimal excluded (unsound on svc-kv)"),
}

#: Seeded svc inputs (smtx only) one run draws from its seed.
SVC_SUBSEEDS = 8

#: Pairings deliberately left out of every workload because they return
#: wrong results without raising.  The benchmark must not time a wrong
#: run, and must not hide one either: these are recorded, not filtered.
EXCLUDED_PAIRINGS: Tuple[Dict[str, str], ...] = (
    {"pairing": "oracle on svc-oltp (scale 1, seed 42) and svc-kv "
                "(scale 16)",
     "reason": "oracle forwarding has no conflict detection, so it "
               "commits wrong values under write overlap"},
    {"pairing": "smtx-minimal on svc-kv on 4s16c at scale >= 0.5",
     "reason": "MINIMAL validation is unsound on shared keys"},
    {"pairing": "hmtx and smtx-minimal on svc-kv at 2s64c, 4s128c, 4s256c",
     "reason": "REPORT_scaling.json records these 6 rows as "
               "correct: false"},
    {"pairing": "hmtx (DOALL) on seeded svc-kv and svc-oltp inputs",
     "reason": "wrong result with conflict aborts on about 0.25-2.5 % of "
               "seeds, e.g. svc-kv seeds 41 and 76 and svc-oltp seed 56 at "
               "scale 1, svc-oltp seed 26 at scale 2, svc-kv seed 199 at "
               "scale 0.5; observed or not (smtx: 0 of 520 wrong)"},
    {"pairing": "ispell (DSWP), scale 0.25, 2-core directory machine "
                "with unbounded_sets and l2_assoc <= 4",
     "reason": "hmtx returns a wrong result with zero aborts (an open "
               "defect of the spill-to-version-table path under "
               "directory coherence)"},
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its name, scale, seed and request list."""

    name: str
    scale: float
    #: The benchmark seed (None for a seed-free workload).
    seed: Optional[int]
    #: The workload seeds the requests actually carry.
    subseeds: Tuple[int, ...]
    requests: tuple

    def provenance(self) -> Dict[str, object]:
        return {"workload": self.name, "scale": self.scale,
                "seed": self.seed, "subseeds": list(self.subseeds),
                "runs": len(self.requests)}


def svc_subseeds(seed: int) -> Tuple[int, ...]:
    """The workload seeds of one svc run: disjoint for distinct seeds."""
    return tuple(seed * SVC_SUBSEEDS + j for j in range(SVC_SUBSEEDS))


def _fig8(scale: float, seeds: Tuple[int, ...]) -> List:
    from repro.experiments.fig8_speedup import fig8_spec
    from repro.experiments.reporting import BenchmarkRunner
    return list(fig8_spec(BenchmarkRunner(scale=scale)).requests)


def _contention(scale: float, seeds: Tuple[int, ...]) -> List:
    from repro.experiments.contention_sweep import contention_spec
    lists = [r for r in contention_spec(scale, ["backoff", "lemming"]).requests
             if r.workload == "contended-list"]
    hogs = [r for r in contention_spec(scale, ["capacity-aware"]).requests
            if r.workload == "capacity-hog"]
    return lists + hogs


def _svc(scale: float, seeds: Tuple[int, ...]) -> List:
    from repro.svc.latency import latency_spec
    names = ("svc-kv", "svc-oltp")
    requests: List = []
    for name in names:
        requests.extend(latency_spec(workload=name, scale=scale,
                                     systems=("hmtx", "smtx")).requests)
    for seed in seeds:
        for name in names:
            requests.extend(latency_spec(workload=name, scale=scale,
                                         systems=("smtx",),
                                         seed=seed).requests)
    return requests


def _numa(scale: float, seeds: Tuple[int, ...]) -> List:
    from repro.experiments.scaling_sweep import scaling_spec
    return list(scaling_spec(scale=scale, presets=("2s8c", "4s16c"),
                             systems=("hmtx", "smtx"),
                             workloads=("130.li", "svc-kv")).requests)


_BUILDERS: Dict[str, Callable[[float, Tuple[int, ...]], List]] = {
    "fig8": _fig8, "contention": _contention, "svc": _svc, "numa": _numa,
}


def build(name: str, seed: int, size: float = 1.0) -> Workload:
    """The request list of workload ``name`` at ``size`` x its scale."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    base, seeded, _why = WORKLOADS[name]
    scale = base * size
    subseeds = svc_subseeds(seed) if seeded else ()
    return Workload(name=name, scale=scale, seed=seed if seeded else None,
                    subseeds=subseeds,
                    requests=tuple(_BUILDERS[name](scale, subseeds)))
