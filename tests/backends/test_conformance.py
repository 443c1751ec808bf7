"""Backend conformance suite: every registered backend honours TMBackend.

``runtime_checkable`` protocols only verify method *presence*, so this
suite holds each backend to the full contract the paradigm executors
rely on:

* every name in ``PROTOCOL_METHODS`` exists with the same parameter
  names and defaults as the protocol (annotations are free to differ);
* every name in ``PROTOCOL_ATTRIBUTES`` exists after construction, with
  ``stats`` a real :class:`SystemStats` (same field set everywhere);
* the behavioural core — begin/store/commit updates ``last_committed``
  and buffers output until commit; ``abort_mtx`` raises
  :class:`MisspeculationError` stamped ``AbortCause.EXPLICIT`` and lands
  in the txctl taxonomy; a wrong-path load is counted in
  ``stats.wrong_path_loads`` — is identical across backends;
* the shared lifecycle rejects the same misuse on every backend (an
  out-of-range core, a VID outside the space, committing a VID never
  begun) and ``abort_mtx`` leaves every context at VID 0 with the next
  allocation right after ``last_committed``;
* every backend actually runs a workload end-to-end through the
  paradigm executors (``run_workload(backend=...)``) and preserves
  sequential semantics.
"""

import dataclasses
import inspect

import pytest

from repro.backends import (
    PROTOCOL_ATTRIBUTES,
    PROTOCOL_METHODS,
    TMBackend,
    backend_names,
    get_backend,
)
from repro.core.config import MachineConfig
from repro.core.stats import SystemStats
from repro.errors import MisspeculationError, TransactionUsageError
from repro.runtime.paradigms import run_workload
from repro.smtx.system import SMTXSystem
from repro.txctl.causes import AbortCause
from repro.workloads import make_benchmark

BACKENDS = sorted(backend_names())

ADDR = 0x1000


def fresh(name):
    return get_backend(name)(config=MachineConfig())


@pytest.fixture(params=BACKENDS)
def backend(request):
    return fresh(request.param)


class TestRegistry:
    def test_known_backends_registered(self):
        assert {"hmtx", "smtx", "oracle"} <= set(BACKENDS)

    def test_unknown_backend_is_loud(self):
        with pytest.raises(KeyError, match="hmtx"):
            get_backend("tsx")

    def test_factories_accept_config(self, backend):
        assert backend.config.line_size == MachineConfig().line_size


class TestSurface:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, TMBackend)

    def test_attributes_present(self, backend):
        for attr in PROTOCOL_ATTRIBUTES:
            assert hasattr(backend, attr), attr

    def test_method_signatures_match_protocol(self, backend):
        """Same parameter names and defaults as the protocol stubs.

        Annotations are excluded on purpose: the contract is structural
        (an executor passes positionally or by these names), not
        nominal.
        """
        for name in PROTOCOL_METHODS:
            spec = inspect.signature(getattr(TMBackend, name))
            impl = inspect.signature(getattr(backend, name))
            spec_params = [(p.name, p.default, p.kind)
                           for p in spec.parameters.values()
                           if p.name != "self"]
            impl_params = [(p.name, p.default, p.kind)
                           for p in impl.parameters.values()]
            assert impl_params == spec_params, \
                f"{type(backend).__name__}.{name}: {impl_params} != {spec_params}"

    def test_stats_shape_is_shared(self, backend):
        assert isinstance(backend.stats, SystemStats)
        assert {f.name for f in dataclasses.fields(backend.stats)} == \
            {f.name for f in dataclasses.fields(SystemStats)}


class TestBehaviour:
    def test_commit_discipline(self, backend):
        backend.thread(0, core=0)
        vid = backend.allocate_vid()
        assert vid == 1
        backend.begin_mtx(0, vid)
        backend.store(0, ADDR, 42)
        backend.output(0, "buffered")
        assert backend.committed_output == []
        backend.commit_mtx(0, vid)
        assert backend.last_committed == vid
        assert backend.stats.committed == 1
        assert backend.committed_output == ["buffered"]
        assert backend.load(0, ADDR).value == 42

    def test_explicit_abort_taxonomy(self, backend):
        """abort_mtx: MisspeculationError + EXPLICIT in the txctl taxonomy."""
        backend.thread(0, core=0)
        vid = backend.allocate_vid()
        backend.begin_mtx(0, vid)
        backend.store(0, ADDR, 7)
        backend.output(0, "doomed")
        with pytest.raises(MisspeculationError) as err:
            backend.abort_mtx(0, vid)
        assert err.value.cause is AbortCause.EXPLICIT
        assert backend.stats.aborted == 1
        assert backend.stats.explicit_aborts == 1
        assert backend.stats.contention.by_cause.get("explicit") == 1
        # Speculative state and buffered output are gone.
        assert backend.committed_output == []
        assert backend.last_committed == 0

    def test_wrong_path_load_is_counted(self, backend):
        """Table 1's wrong-path count must not depend on the backend."""
        backend.thread(0, core=0)
        backend.begin_mtx(0, backend.allocate_vid())
        backend.wrong_path_load(0, ADDR)
        assert backend.stats.wrong_path_loads == 1

    def test_runs_a_workload_end_to_end(self):
        """Every backend drives the paradigm executors unchanged."""
        for name in BACKENDS:
            workload = make_benchmark("ispell", 0.2)
            result = run_workload(workload, backend=name)
            system = result.system
            assert workload.observed_result(system) == \
                workload.expected_result(system), name
            assert system.stats.committed > 0, name


class TestLifecycleContract:
    """One MTX lifecycle: every backend rejects the same misuse."""

    def test_thread_rejects_out_of_range_core(self, backend):
        with pytest.raises(ValueError, match="out of range"):
            backend.thread(0, core=backend.config.num_cores)
        assert backend.contexts == {}

    def test_begin_rejects_vid_outside_the_space(self, backend):
        backend.thread(0, core=0)
        for vid in (-1, backend.vid_space.max_vid + 1):
            with pytest.raises(TransactionUsageError):
                backend.begin_mtx(0, vid)
        assert backend.contexts[0].vid == 0

    def test_commit_rejects_a_vid_never_begun(self, backend):
        backend.thread(0, core=0)
        with pytest.raises(TransactionUsageError, match="unknown VID"):
            backend.commit_mtx(0, 1)
        assert backend.last_committed == 0
        assert backend.stats.committed == 0

    def test_abort_resets_contexts_and_rewinds_vids(self, backend):
        for tid in range(2):
            backend.thread(tid, core=tid)
        first = backend.allocate_vid()
        backend.begin_mtx(0, first)
        backend.commit_mtx(0, first)
        vids = [backend.allocate_vid() for _ in range(2)]
        for tid, vid in enumerate(vids):
            backend.begin_mtx(tid, vid)
            backend.store(tid, ADDR + 64 * tid, vid)
        with pytest.raises(MisspeculationError):
            backend.abort_mtx(0, vids[0])
        assert all(ctx.vid == 0 for ctx in backend.contexts.values())
        assert backend.active_vids == set()
        assert backend.stats.contention.vid_cause_count(
            vids[0], AbortCause.EXPLICIT) == 1
        assert backend.allocate_vid() == backend.last_committed + 1 == 2


class TestSmtxConflictCause:
    def test_validation_failure_stamps_conflict(self):
        """A real SMTX read-validation failure carries AbortCause.CONFLICT."""
        system = SMTXSystem(config=MachineConfig())
        system.thread(0, core=0)
        system.thread(1, core=1)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.load(0, ADDR)              # logged read of committed value 0
        system.contexts[1].vid = 0
        system.kernel_store(1, ADDR, 99)  # committed state changes under us
        with pytest.raises(MisspeculationError) as err:
            system.commit_mtx(0, vid)
        assert err.value.cause is AbortCause.CONFLICT
        assert system.stats.contention.by_cause.get("conflict") == 1
        assert system.stats.aborted == 1
        assert system.stats.explicit_aborts == 0
