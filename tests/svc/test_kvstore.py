"""KV/OLTP workload family: correctness, determinism, registry wiring."""

from __future__ import annotations

import pytest

from repro.experiments.engine import RunRequest, SweepEngine, request_options
from repro.runtime.paradigms import run_doall, run_workload
from repro.svc.kvstore import KVStoreWorkload, kv_workload, oltp_workload
from repro.workloads import make_workload, workload_names


def _small(**kwargs):
    params = dict(requests=16, keys=512, seed=42)
    params.update(kwargs)
    return KVStoreWorkload(**params)


class TestConstruction:
    def test_mix_must_sum_to_100(self):
        with pytest.raises(ValueError):
            _small(mix=(50, 30, 10, 0))

    def test_plans_deterministic_for_equal_seeds(self):
        assert _small().plans() == _small().plans()
        assert _small().arrival_schedule() == _small().arrival_schedule()

    def test_plans_diverge_across_seeds(self):
        assert _small(seed=1).plans() != _small(seed=2).plans()

    def test_arrivals_nondecreasing(self):
        schedule = _small().arrival_schedule()
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))

    def test_transfer_mix_produces_multi_key_transactions(self):
        workload = _small(mix=(0, 0, 0, 100))
        for plan in workload.plans():
            assert plan.kind == "transfer"
            assert len(plan.ops) == 3
            # A transfer must move value between two distinct keys.
            assert plan.ops[1][1] != plan.ops[2][1]


class TestCorrectness:
    @pytest.mark.parametrize("system", ["hmtx", "smtx", "oracle"])
    def test_kv_preserves_sequential_semantics(self, system):
        record = SweepEngine().run_one(RunRequest(
            workload="svc-kv", system=system, scale=0.1,
            paradigm="DOALL", options=request_options(seed=42)))
        assert record.correct
        assert record.committed > 0

    def test_oltp_preserves_sequential_semantics_on_hmtx(self):
        workload = oltp_workload(scale=0.1, seed=42)
        result = run_workload(workload, paradigm="DOALL")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_sequential_run_matches_expected(self):
        workload = _small()
        result = run_workload(workload, paradigm="Sequential")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


class TestRegistry:
    def test_svc_names_registered(self):
        names = workload_names()
        for name in ("svc-kv", "svc-kv-read", "svc-oltp", "svc-adversary"):
            assert name in names

    def test_make_workload_passes_seed_option(self):
        a = make_workload("svc-kv", 0.1, seed=1)
        b = make_workload("svc-kv", 0.1, seed=1)
        c = make_workload("svc-kv", 0.1, seed=2)
        assert a.plans() == b.plans()
        assert a.plans() != c.plans()

    def test_factory_scale_shrinks_requests(self):
        assert kv_workload(scale=0.1).iterations < \
            kv_workload(scale=1.0).iterations


class TestLatencyObservability:
    def test_observed_run_carries_svc_histograms(self):
        record = SweepEngine().run_one(RunRequest(
            workload="svc-kv", system="hmtx", scale=0.1,
            paradigm="DOALL", observe=True,
            options=request_options(seed=42)))
        histograms = record.obs_digest["histograms"]
        assert "svc_queue_wait_cycles" in histograms
        assert "svc_commit_latency_cycles" in histograms
        sojourn = histograms["svc_commit_latency_cycles"]
        # Every committed request contributes exactly one sojourn sample.
        assert sojourn["count"] == record.committed

    def test_unobserved_non_svc_runs_have_no_svc_series(self):
        record = SweepEngine().run_one(RunRequest(
            workload="130.li", system="hmtx", scale=0.1, observe=True))
        histograms = record.obs_digest["histograms"]
        assert "svc_queue_wait_cycles" not in histograms
        assert "svc_commit_latency_cycles" not in histograms


_LOST_STORE = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: HMTX loses a committed store after a conflict "
           "abort; the stale S copy and the M copy disagree at run end")


class TestSeededKvCommittedView:
    """Whole-run pins for the seeds on which svc-kv under HMTX goes wrong.

    Seed 42 is the control; 173 and 199 each lose one committed store.
    When item 1 is fixed these start passing and the strict xfail fails,
    which is the signal to drop the marks.
    """

    @pytest.mark.parametrize("seed", [
        42,
        pytest.param(173, marks=_LOST_STORE),
        pytest.param(199, marks=_LOST_STORE),
    ])
    def test_correct_and_invariants_hold(self, seed):
        workload = kv_workload(scale=0.5, seed=seed)
        result = run_doall(workload, backend="hmtx")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        result.system.hierarchy.check_invariants()
