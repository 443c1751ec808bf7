"""The benchmark's own tests: every workload runs at a tiny size.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, build

TINY = 0.05

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec()


def test_spec_follows_its_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_workload_reports_every_metric(spec, workload, trace):
    result, record = bench.run(workload, seed=7, seconds=0, trace=trace,
                               size=TINY, probes=1)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    prov = record["provenance"]
    assert {"revision", "python", "nproc", "platform", "scale",
            "seed"} <= set(prov)
    assert prov["seed"] == (7 if WORKLOADS[workload][1] else None)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_reproduces_untraced_digest(workload):
    requests = build(workload, seed=3, size=TINY).requests
    plain = bench.Pass(requests)
    with Tracer() as tracer:
        traced = bench.Pass(requests)
    assert not plain.failures and not traced.failures
    assert traced.run_digests == plain.run_digests
    assert tracer.stats["engine.request"].calls == len(requests)
    assert tracer.stats["runtime.run"].calls >= len(requests)


def test_tracer_restores_every_patch():
    from repro.core.system import HMTXSystem
    from repro.experiments import engine
    from repro.runtime.scheduler import Scheduler
    before = (engine.execute_request, HMTXSystem.__dict__["load"],
              Scheduler.__dict__["run"])
    with Tracer():
        assert engine.execute_request is not before[0]
    assert (engine.execute_request, HMTXSystem.__dict__["load"],
            Scheduler.__dict__["run"]) == before


def test_seed_changes_svc_inputs_only():
    assert build("svc", 1).requests != build("svc", 2).requests
    assert build("svc", 1).requests == build("svc", 1).requests
    for name in ("fig8", "contention", "numa"):
        assert build(name, 1).requests == build(name, 2).requests


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
