"""The paper's primary contribution: the HMTX programming interface.

Quick example (two threads collaborating on one transaction)::

    from repro.core import HMTXSystem

    sys = HMTXSystem()
    sys.thread(0, core=0)
    sys.thread(1, core=1)

    vid = sys.allocate_vid()
    sys.begin_mtx(0, vid)
    sys.store(0, 0x1000, 42)        # speculative store by thread 0
    sys.begin_mtx(0, 0)             # thread 0 done (not committing!)

    sys.begin_mtx(1, vid)           # thread 1 continues the same MTX
    value = sys.load(1, 0x1000).value   # sees the uncommitted 42
    sys.commit_mtx(1, vid)          # atomic group commit
"""

from .config import MachineConfig, small_test_config, table2_config
from .context import ThreadContext
from .sla import SlaTracker
from .stats import CommittedTransaction, OpenTransaction, SystemStats
from .system import HMTXSystem
from .tm import TMSystem

__all__ = [
    "CommittedTransaction",
    "HMTXSystem",
    "MachineConfig",
    "OpenTransaction",
    "SlaTracker",
    "SystemStats",
    "TMSystem",
    "ThreadContext",
    "small_test_config",
    "table2_config",
]
