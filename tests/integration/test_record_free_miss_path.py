"""Guard: the miss/eviction path builds no ``CacheLine`` records.

Lines move between memory, the L1s and the LLC as slot columns and word
lists (DESIGN.md §13, "Miss path").  ``CacheLine`` records are only for
the cold read API, ``VersionedCache.install`` callers and the §8
overflow-table spill, so a scheduler run on a machine without
``unbounded_sets`` must construct none — even the capacity hog, whose
every store misses and evicts.  Spill configurations are exempt: a spill
hands the table a record by design.
"""

import pytest

from repro.coherence.line import CacheLine
from repro.experiments.engine import RunRequest, execute_request
from repro.runtime.scheduler import Scheduler
from repro.workloads.contended import CapacityHogWorkload

REQUESTS = {
    "capacity-hog": RunRequest(
        workload="capacity-hog", system="hmtx", paradigm="PS-DSWP",
        policy="capacity-aware", machine=CapacityHogWorkload.tiny_config()),
    "contended-list": RunRequest(
        workload="contended-list", system="hmtx", paradigm="PS-DSWP",
        policy="backoff"),
}


@pytest.fixture
def record_counter(monkeypatch):
    """Counts ``CacheLine.__init__`` calls made inside ``Scheduler.run``."""
    counts = {"in_run": 0, "outside": 0}
    depth = [0]
    original_init = CacheLine.__init__
    original_run = Scheduler.run

    def counting_init(self, *args, **kwargs):
        counts["in_run" if depth[0] else "outside"] += 1
        original_init(self, *args, **kwargs)

    def counted_run(self):
        depth[0] += 1
        try:
            return original_run(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(CacheLine, "__init__", counting_init)
    monkeypatch.setattr(Scheduler, "run", counted_run)
    return counts


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_scheduler_run_builds_no_records(name, record_counter):
    record = execute_request(REQUESTS[name])
    assert record.correct
    assert record.ops_executed > 0
    assert record_counter["in_run"] == 0


def test_counter_sees_records_outside_the_run(record_counter):
    # Control: the hook is live — the cold read API still builds records.
    from repro.coherence import HierarchyConfig, MemoryHierarchy

    hierarchy = MemoryHierarchy(HierarchyConfig(num_cores=1))
    hierarchy.store(0, 0x40, 0, value=1)
    assert hierarchy.versions_everywhere(0x40)
    assert record_counter["outside"] > 0
    assert record_counter["in_run"] == 0
