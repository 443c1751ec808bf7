"""Attach/detach roundtrip over the fast-path version indices.

A tracer occupies the hierarchy's one ``observer`` slot; observed
accesses must flow through the same epoch/index bookkeeping as
unobserved ones, a traced run must produce bit-identical statistics, a
second tracer is refused, and ``detach()`` empties the slot idempotently.
"""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.runtime.paradigms import run_workload
from repro.trace import ProtocolTracer
from repro.workloads import make_benchmark

SCALE = 0.2


def run_traced(attach):
    """Run ispell on HMTX; ``attach`` hooks each fresh system."""
    tracers = []

    def factory():
        system = HMTXSystem(MachineConfig())
        attach(system, tracers)
        return system

    result = run_workload(make_benchmark("ispell", SCALE),
                          system_factory=factory)
    return result, tracers


class TestRoundtrip:
    def test_traced_run_is_bit_identical(self):
        """Wrapping adds observation, never behaviour."""
        plain, _ = run_traced(lambda system, tracers: None)
        traced, tracers = run_traced(
            lambda system, tracers: tracers.append(
                ProtocolTracer.attach(system.hierarchy)))
        assert tracers and tracers[-1].events
        assert traced.cycles == plain.cycles
        assert traced.system.stats == plain.system.stats
        assert traced.system.last_committed == plain.system.last_committed

    def test_indices_intact_under_tracing(self):
        """The PR-2 fast-path indices stay coherent through wrapped calls."""
        traced, tracers = run_traced(
            lambda system, tracers: tracers.append(
                ProtocolTracer.attach(system.hierarchy)))
        traced.system.hierarchy.check_invariants()  # includes index checks
        for tracer in tracers:
            tracer.detach()
        traced.system.hierarchy.check_invariants()

    def test_detach_is_idempotent(self):
        system = HMTXSystem(MachineConfig())
        system.thread(0, core=0)
        hierarchy = system.hierarchy
        tracer = ProtocolTracer.attach(hierarchy)
        assert hierarchy.observer is tracer
        # The slot replaces no method: nothing lands in the instance dict.
        assert not set(vars(hierarchy)) & {
            "load", "store", "commit", "abort", "vid_reset"}
        system.store(0, 0x40, 1)
        tracer.detach()
        tracer.detach()
        assert hierarchy.observer is None
        system.store(0, 0x80, 2)              # nobody records any more
        assert len(tracer.of_kind("store")) == 1
        hierarchy.check_invariants()

    def test_second_attach_raises(self):
        """A hierarchy reports to one observer: a second tracer is refused
        with the current one named, and the first keeps recording."""
        system = HMTXSystem(MachineConfig())
        system.thread(0, core=0)
        first = ProtocolTracer.attach(system.hierarchy)
        with pytest.raises(RuntimeError,
                           match="already observed by ProtocolTracer"):
            ProtocolTracer.attach(system.hierarchy)
        assert system.hierarchy.observer is first
        system.store(0, 0x40, 1)
        assert len(first.of_kind("store")) == 1
        first.detach()
        ProtocolTracer.attach(system.hierarchy).detach()
