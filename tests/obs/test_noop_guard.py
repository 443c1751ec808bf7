"""S6: the instrumentation-off regression guard.

Three guarantees, in increasing strength:

1. The hook point defaults to ``None`` — no session, no wrapping, the
   simulator runs its unmodified methods (the fast-path goldens in
   ``tests/integration/test_fastpath_golden.py`` then pin bit-identical
   behaviour end to end).
2. Activating and detaching a session leaves no residue: a run *after*
   an observed run is bit-identical to a run that never saw one.
3. Observation itself is behaviour-free: the snapshot of an *observed*
   run equals the snapshot of an unobserved run, counter for counter.

Observed runs also keep the scheduler's fused per-op loop: the session
observes through the scheduler's ``observer`` slot, never by wrapping
``CoreExecutor.execute``.
"""

from __future__ import annotations

from repro.cpu.core_model import CoreExecutor
from repro.cpu.isa import Branch, Load, Store, Work
from repro.obs import hooks
from repro.obs.session import ObsSession

from tests.integration.test_fastpath_golden import (
    _run_capacity_hog,
    _run_contended_list,
    _run_fig8_slice,
)


class TestHookDefault:
    def test_hook_point_defaults_to_none(self):
        assert hooks.active is None

    def test_deactivate_is_idempotent(self):
        hooks.deactivate()
        assert hooks.active is None


class TestNoResidue:
    def test_run_after_observed_run_is_bit_identical(self):
        baseline = _run_contended_list()
        session = ObsSession()
        with session.activate():
            _run_contended_list()
        session.detach()
        assert hooks.active is None
        again = _run_contended_list()
        assert again == baseline

    def test_detach_clears_every_scheduler_observer(self):
        session = ObsSession()
        with session.activate():
            _run_contended_list()
        assert session._schedulers
        assert all(s.observer is session for s in session._schedulers)
        session.detach()
        assert all(s.observer is None for s in session._schedulers)

    def test_exception_inside_activation_clears_hook(self):
        try:
            with ObsSession().activate():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert hooks.active is None


class TestObservationIsBehaviourFree:
    """An instrumented run must be simulation-identical: same makespan,
    same stats, same cache counters, same workload result."""

    def _observed(self, run):
        session = ObsSession()
        with session.activate():
            snap = run()
        session.detach()
        return snap

    def test_contended_list_identical_under_observation(self):
        assert self._observed(_run_contended_list) == _run_contended_list()

    def test_capacity_hog_identical_under_observation(self):
        assert self._observed(_run_capacity_hog) == _run_capacity_hog()

    def test_fig8_benchmark_identical_under_observation(self):
        run = lambda: _run_fig8_slice("ispell")  # noqa: E731
        assert self._observed(run) == run()


class TestObservedRunsStayFused:
    def test_plain_ops_never_reach_execute(self, monkeypatch):
        # Class-level spy: Scheduler.run still sees a plain CoreExecutor,
        # so it fuses exactly as it would without the spy.
        executed = []
        original = CoreExecutor.execute

        def spy(self, tid, op, now=0):
            executed.append(op.__class__)
            return original(self, tid, op, now)

        monkeypatch.setattr(CoreExecutor, "execute", spy)
        session = ObsSession()
        with session.activate():
            _run_contended_list()
        session.detach()
        assert session.samples.seq
        assert executed, "the spy saw no op at all"
        assert not {Work, Load, Store, Branch} & set(executed)
