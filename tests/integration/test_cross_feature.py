"""Cross-feature integration tests: features composed, as users would.

Each test exercises combinations the unit suites cover separately:
benchmark models x interrupts, directory coherence x benchmark suite,
unbounded sets x recovery, compiled loops x interrupts, VID resets under
long runs, and thread migration mid-transaction during pipeline execution.
"""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.cpu import InterruptInjector
from repro.runtime.paradigms import run_ps_dswp, run_sequential, run_workload
from repro.workloads import (
    LinkedListWorkload,
    executor_factory_for,
    make_benchmark,
)

FAST = 0.3


def _verify(workload, result) -> bool:
    return workload.observed_result(result.system) == \
        workload.expected_result(result.system)


class TestInterruptsAcrossSuite:
    """Section 5.2 at suite scale: interrupts never cause misspeculation."""

    @pytest.mark.parametrize("name", ["ispell", "456.hmmer", "130.li"])
    def test_benchmark_survives_interrupts(self, name):
        workload = make_benchmark(name, FAST)
        result = run_workload(
            workload,
            interrupts=InterruptInjector(period=3000, handler_accesses=6),
            executor_factory=executor_factory_for(workload))
        assert result.system.stats.aborted == 0
        assert _verify(workload, result)

    def test_interrupt_frequency_costs_time_not_correctness(self):
        quiet = run_ps_dswp(LinkedListWorkload(nodes=24))
        workload = LinkedListWorkload(nodes=24)
        stormy = run_ps_dswp(
            workload, interrupts=InterruptInjector(period=500,
                                                   handler_accesses=12))
        assert stormy.cycles > quiet.cycles
        assert _verify(workload, stormy)


class TestDirectoryAcrossSuite:
    @pytest.mark.parametrize("name", ["ispell", "164.gzip", "052.alvinn"])
    def test_benchmark_on_directory_machine(self, name):
        workload = make_benchmark(name, FAST)
        result = run_workload(
            workload, MachineConfig(num_cores=4, coherence="directory"),
            executor_factory=executor_factory_for(workload))
        assert result.system.stats.aborted == 0
        assert _verify(workload, result)
        result.system.hierarchy.check_directory_invariant()

    def test_directory_with_interrupts(self):
        workload = LinkedListWorkload(nodes=24)
        result = run_ps_dswp(
            workload, MachineConfig(num_cores=4, coherence="directory"),
            interrupts=InterruptInjector(period=2000))
        assert _verify(workload, result)


class TestDirectorySpillRegression:
    """Directory coherence x unbounded sets: spilled versions stay visible.

    A version spilled into the section 8 overflow table must appear in the
    directory's sharer set; otherwise a miss never probes the table and
    memory serves stale data (``correct=False`` with zero aborts).  The
    small LLCs force the spills.
    """

    @pytest.mark.parametrize("l2_assoc", [1, 2, 4])
    def test_ispell_is_correct_when_the_llc_spills(self, monkeypatch,
                                                   l2_assoc):
        from repro.experiments import engine

        hierarchies = []
        real_snapshot = engine.snapshot

        def capture(request, workload, result, *args, **kwargs):
            hierarchies.append(result.system.hierarchy)
            return real_snapshot(request, workload, result, *args, **kwargs)

        monkeypatch.setattr(engine, "snapshot", capture)
        machine = MachineConfig(num_cores=2, coherence="directory",
                                unbounded_sets=True, l2_assoc=l2_assoc)
        record = engine.execute_request(engine.RunRequest(
            "ispell", "hmtx", scale=0.25, machine=machine))
        assert record.correct
        (hierarchy,) = hierarchies
        assert hierarchy.stats.spec_overflow_spills > 0
        hierarchy.check_invariants()
        hierarchy.check_directory_invariant()


class TestUnboundedSetsAcrossSuite:
    def test_bzip2_on_small_caches(self):
        """The big-set benchmark on caches far too small for it."""
        from repro.workloads import Bzip2Workload
        config = MachineConfig(num_cores=4, l1_size=2 * 1024, l1_assoc=4,
                               l2_size=8 * 1024, l2_assoc=8,
                               unbounded_sets=True)
        workload = Bzip2Workload(iterations=4, block_lines=32)
        result = run_workload(workload, config,
                              executor_factory=executor_factory_for(workload))
        assert result.system.stats.aborted == 0
        assert result.system.hierarchy.stats.spec_overflow_spills > 0
        assert _verify(workload, result)

    def test_unbounded_sets_with_directory(self):
        config = MachineConfig(num_cores=4, coherence="directory",
                               l1_size=4 * 1024, l1_assoc=4,
                               l2_size=16 * 1024, l2_assoc=8,
                               unbounded_sets=True)
        workload = LinkedListWorkload(nodes=24)
        result = run_ps_dswp(workload, config)
        assert _verify(workload, result)


class TestVidResetsUnderLongRuns:
    def test_many_epochs(self):
        """More iterations than 3 full VID epochs, tiny VID space."""
        config = MachineConfig(num_cores=4, vid_bits=3)   # 7 VIDs/epoch
        workload = LinkedListWorkload(nodes=50)
        result = run_ps_dswp(workload, config)
        assert result.system.vid_space.resets >= 6
        assert result.system.stats.aborted == 0
        assert _verify(workload, result)

    def test_resets_with_interrupts_and_directory(self):
        config = MachineConfig(num_cores=4, vid_bits=3, coherence="directory")
        workload = LinkedListWorkload(nodes=30)
        result = run_ps_dswp(workload, config,
                             interrupts=InterruptInjector(period=4000))
        assert result.system.vid_space.resets >= 3
        assert _verify(workload, result)


class TestMigrationDuringPipeline:
    def test_thread_migrates_mid_transaction(self):
        """Section 5.2: a speculative thread moves cores mid-MTX; its
        versions are found via the VID wherever they are cached."""
        system = HMTXSystem(MachineConfig(num_cores=4))
        system.thread(0, core=0)
        vids = []
        for step in range(6):
            vid = system.allocate_vid()
            vids.append(vid)
            system.begin_mtx(0, vid)
            system.store(0, 0x7000 + step * 64, 100 + step)
            system.migrate(0, core=(step + 1) % 4)
            # Re-read after migrating: must see its own uncommitted store.
            assert system.load(0, 0x7000 + step * 64).value == 100 + step
        for vid in vids:
            system.begin_mtx(0, vid)
            system.commit_mtx(0, vid)
        for step in range(6):
            assert system.load(0, 0x7000 + step * 64).value == 100 + step


class TestCompiledLoopsComposed:
    def test_compiled_loop_with_interrupts_and_small_vids(self):
        from repro.compiler import Loop, compile_loop
        loop = Loop("composed", iterations=20)
        loop.scalar("cursor", init=3)
        loop.array("out")
        loop.statement("advance", reads=("cursor",), writes=("cursor",),
                       compute=lambda i, e: {"cursor": (e["cursor"] * 7 + 1) % 997},
                       work=20)
        loop.statement("emit", reads=("cursor",), writes=("out",),
                       compute=lambda i, e: {"out": e["cursor"] ^ i},
                       work=120, branches=3)
        workload = compile_loop(loop)
        config = MachineConfig(num_cores=4, vid_bits=3)
        result = run_ps_dswp(workload, config,
                             interrupts=InterruptInjector(period=2500))
        assert _verify(workload, result)
        assert result.system.vid_space.resets >= 1
