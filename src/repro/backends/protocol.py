"""The formal TM-backend interface every system object implements.

:class:`TMBackend` is the contract between the paradigm executors of
:mod:`repro.runtime.paradigms` and a transactional-memory implementation.
The seed grew two such implementations by duck typing —
:class:`~repro.core.system.HMTXSystem` (the paper's hardware) and
:class:`~repro.smtx.system.SMTXSystem` (the software baseline) — and the
hybrid-TM literature (Alistarh et al.; Brown & Ravi) makes the case that
the interesting experiments are *comparisons across backends under one
harness*.  That requires the interface to be explicit: this protocol
names every method and attribute an executor may touch, and
``tests/backends/test_conformance.py`` holds each registered backend to
it (same signatures, same :class:`~repro.core.stats.SystemStats` shape,
same abort-cause taxonomy from :mod:`repro.txctl`).

A backend models one machine running one TM scheme.  The surface:

* **lifecycle** — ``thread`` registers a hardware thread; ``allocate_vid``
  / ``ready_for_vid_reset`` / ``vid_reset`` implement the section 4.6
  VID-window protocol (backends with unbounded software VIDs simply never
  become ready).
* **the four MTX instructions** — ``begin_mtx`` / ``commit_mtx`` /
  ``abort_mtx`` / ``init_mtx`` (section 3.1), enforcing in-order commit.
* **memory** — ``load`` / ``store`` carry the issuing thread's VID;
  ``wrong_path_load`` models branch-speculative loads; ``kernel_load`` /
  ``kernel_store`` model handler code (section 5.2); ``output`` buffers
  program output until commit (4.7).
* **observability** — ``stats`` (a :class:`SystemStats`), ``config``,
  ``hierarchy`` (values + latency), ``active_vids`` / ``last_committed``
  / ``committed_output``, and the ``observer`` slot: ``None`` by default,
  else a :class:`BackendObserver` the backend reports each access,
  begin, commit, abort, VID allocation and reset to, at the place it
  happens, behind one ``is not None`` test.

Aborts are reported by raising :class:`~repro.errors.MisspeculationError`
with a :class:`~repro.txctl.causes.AbortCause` stamped at the raise site;
recovery policy belongs to the contention manager, never the backend.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from ..coherence.hierarchy import AccessResult
from ..coherence.vid import VidSpace
from ..core.config import MachineConfig
from ..core.context import ThreadContext
from ..core.stats import SystemStats

#: The methods every backend must expose with *identical* signatures
#: (checked by the conformance suite; ``runtime_checkable`` protocols
#: only verify presence, not shape).
PROTOCOL_METHODS = (
    "thread",
    "allocate_vid",
    "ready_for_vid_reset",
    "vid_reset",
    "begin_mtx",
    "init_mtx",
    "commit_mtx",
    "abort_mtx",
    "load",
    "store",
    "wrong_path_load",
    "kernel_load",
    "kernel_store",
    "output",
)

#: The attributes executors and experiment drivers read.
PROTOCOL_ATTRIBUTES = (
    "config",
    "stats",
    "vid_space",
    "hierarchy",
    "contexts",
    "active_vids",
    "last_committed",
    "committed_output",
    "observer",
)


class BackendObserver(Protocol):
    """The events a backend reports to its ``observer`` slot.

    Each is made right after the backend's own state change, with the
    reporting backend as ``system``.  ``access`` follows a ``load``/
    ``store``/``kernel_load``/``kernel_store`` (``op``): ``vid`` is the
    issuing VID (0 for kernel accesses), ``value`` the data moved,
    ``overflowed`` whether the access moved the hierarchy's overflow
    counters.  ``abort`` follows the flush of all uncommitted state by
    ``op``, just before it raises ``err`` (``addr`` is the accessed
    address when ``op`` is a memory access).
    """

    def access(self, system: Any, op: str, tid: int, addr: int, vid: int,
               value: int, result: AccessResult,
               overflowed: bool = False) -> None: ...

    def begin(self, system: Any, tid: int, vid: int,
              previous: int) -> None: ...

    def commit(self, system: Any, tid: int, vid: int,
               latency: int) -> None: ...

    def abort(self, system: Any, op: str, err: Any,
              addr: Optional[int] = None) -> None: ...

    def allocate(self, system: Any, vid: int) -> None: ...

    def vid_reset(self, system: Any) -> None: ...


def attach_observer(system: Any, observer: BackendObserver) -> None:
    """Point ``system.observer`` at ``observer``; a backend reports to one
    observer, so attaching a second one is an error."""
    current = system.observer
    if current is not None:
        raise RuntimeError(
            f"{type(system).__name__} is already observed by "
            f"{type(current).__name__}; detach it first")
    system.observer = observer


def detach_observer(system: Any, observer: BackendObserver) -> None:
    """Clear ``system.observer`` if it is ``observer`` (idempotent)."""
    if system.observer is observer:
        system.observer = None


@runtime_checkable
class TMBackend(Protocol):
    """Structural interface of a transactional-memory system object."""

    config: MachineConfig
    stats: SystemStats
    vid_space: VidSpace
    contexts: Dict[int, ThreadContext]
    active_vids: Set[int]
    last_committed: int
    committed_output: list
    observer: Optional[BackendObserver]

    # -- lifecycle ------------------------------------------------------

    def thread(self, tid: int, core: int) -> ThreadContext: ...

    def allocate_vid(self) -> int: ...

    def ready_for_vid_reset(self) -> bool: ...

    def vid_reset(self) -> int: ...

    # -- the four MTX instructions (section 3.1) ------------------------

    def begin_mtx(self, tid: int, vid: int) -> int: ...

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int: ...

    def commit_mtx(self, tid: int, vid: int) -> int: ...

    def abort_mtx(self, tid: int, vid: int) -> int: ...

    # -- memory ---------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult: ...

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult: ...

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]: ...

    def kernel_load(self, tid: int, addr: int) -> AccessResult: ...

    def kernel_store(self, tid: int, addr: int, value: int) -> AccessResult: ...

    def output(self, tid: int, value: Any) -> None: ...
