"""BackendTracer event streams, pinned per registered backend.

Each digest is the sha1 of the rendered events (kind, VID at issue,
address, value, detail) plus the ring's ``dropped`` count, so any change
to what a backend reports to its observer — or when — shows up here.
The scenarios cover accesses, conflict and commit-validation aborts, the
trace ring's eviction, interrupt-handler (kernel) accesses, the section
4.6 VID reset and an explicit ``abortMTX``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backends import PROTOCOL_METHODS, get_backend
from repro.core.config import MachineConfig
from repro.cpu.interrupts import InterruptInjector
from repro.errors import MisspeculationError
from repro.runtime.paradigms import run_workload
from repro.trace import BackendTracer
from repro.workloads import executor_factory_for, make_workload

#: (backend, scenario) -> sha1 of the rendered stream.
PINNED = {
    ("hmtx", "contended"): "29ddbcf7e50c7f7068b1ec891b895c2441d9918c",
    ("smtx", "contended"): "8e005d87849c71fd3ea51e1878bbc5c205d18ef6",
    ("oracle", "contended"): "a11871214647820bfaaf96e68c03df8495cd92c7",
    ("hmtx", "ring"): "4773c5963c8ee162404233cf4d0c9a2bad069df9",
    ("smtx", "ring"): "e61ea8dafc7c892e60ab30b7b3e3f62b2d4818b6",
    ("oracle", "ring"): "c7c4774ccd578a7fa77be579f2839db62094313b",
    ("hmtx", "interrupts"): "8a481e77fad4395627cb4609101aeb84119e9cba",
    ("smtx", "interrupts"): "6b6bb73e45f44923234244be3b29b96e34169ab4",
    ("oracle", "interrupts"): "f6ae3474c5adc1820a94e759acb2222402ff59a3",
    ("hmtx", "explicit"): "f77177bd989041f9182ac2aa85684ef27e8df119",
    ("smtx", "explicit"): "f77177bd989041f9182ac2aa85684ef27e8df119",
    ("oracle", "explicit"): "f77177bd989041f9182ac2aa85684ef27e8df119",
}

ADDR = 0x1000


def _stream_sha1(tracer: BackendTracer) -> str:
    lines = [event.render() for event in tracer.events]
    lines.append(f"dropped={tracer.dropped}")
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def _traced_run(backend: str, capacity=None, config=None,
                interrupts=None) -> BackendTracer:
    """contended-list at a tiny scale with a tracer on the one system."""
    workload = make_workload("contended-list", 0.05)
    factory = get_backend(backend)
    tracers = []

    def system_factory():
        system = factory(config=config)
        tracer = BackendTracer.attach(system)
        if capacity is not None:
            tracer.capacity = capacity
        tracers.append(tracer)
        return system

    result = run_workload(workload,
                          executor_factory=executor_factory_for(workload),
                          system_factory=system_factory,
                          interrupts=interrupts)
    assert workload.observed_result(result.system) \
        == workload.expected_result(result.system)
    (tracer,) = tracers
    tracer.detach()
    return tracer


def _explicit_abort(backend: str) -> BackendTracer:
    """Every access kind, a commit and an explicit abortMTX, driven by hand."""
    system = get_backend(backend)(config=MachineConfig())
    tracer = BackendTracer.attach(system)
    system.thread(0, core=0)
    system.begin_mtx(0, system.allocate_vid())
    system.store(0, ADDR, 5)
    system.load(0, ADDR)
    system.kernel_store(0, ADDR + 64, 9)
    system.kernel_load(0, ADDR + 64)
    system.commit_mtx(0, 1)
    vid = system.allocate_vid()
    system.begin_mtx(0, vid)
    system.store(0, ADDR, 6)
    with pytest.raises(MisspeculationError):
        system.abort_mtx(0, vid)
    tracer.detach()
    return tracer


SCENARIOS = {
    "contended": lambda backend: _traced_run(backend),
    "ring": lambda backend: _traced_run(backend, capacity=64),
    "interrupts": lambda backend: _traced_run(
        backend, config=MachineConfig(vid_bits=3),
        interrupts=InterruptInjector(period=300)),
    "explicit": _explicit_abort,
}


@pytest.mark.parametrize("backend,scenario", sorted(PINNED))
def test_stream_is_pinned(backend, scenario):
    tracer = SCENARIOS[scenario](backend)
    assert _stream_sha1(tracer) == PINNED[(backend, scenario)]


def test_ring_scenario_evicts():
    tracer = _traced_run("hmtx", capacity=64)
    assert len(tracer.events) == 64 and tracer.dropped > 0


@pytest.mark.parametrize("backend", ["hmtx", "smtx", "oracle"])
def test_tracer_replaces_no_method(backend):
    system = get_backend(backend)(config=MachineConfig())
    tracer = BackendTracer.attach(system)
    assert system.observer is tracer
    assert not set(vars(system)) & set(PROTOCOL_METHODS)
    tracer.detach()


def test_second_tracer_is_rejected():
    system = get_backend("hmtx")(config=MachineConfig())
    first = BackendTracer.attach(system)
    with pytest.raises(RuntimeError, match="already observed"):
        BackendTracer.attach(system)
    assert system.observer is first
    first.detach()
    first.detach()  # idempotent
    assert system.observer is None
    BackendTracer.attach(system).detach()
