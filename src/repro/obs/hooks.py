"""The one nullable hook point the hot path checks.

Observability attaches to a run through exactly one module-level name:
``active``.  It is ``None`` by default, and every instrumentation site in
the runtime guards on that *before* doing anything else::

    from ..obs import hooks as _obs
    ...
    if _obs.active is not None:
        _obs.active.attach_system(system)

With ``active is None`` the guard is a single attribute load and identity
compare on a code path that runs a handful of times per run (system and
scheduler construction, spin-loop entry) — never inside the scheduler's
fused per-op loop — so instrumentation-off runs execute the exact same op
stream and produce bit-identical results (pinned by
``tests/obs/test_noop_guard.py`` and the fastpath goldens).

This module deliberately imports nothing from the rest of the package:
``runtime.paradigms.base`` imports it at module load, and any repro import
here would cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

#: The currently active run observer, or None: an
#: :class:`~repro.obs.session.ObsSession`, or any object with its
#: ``attach_system`` / ``attach_scheduler`` / ``record_spin`` methods
#: (``python -m repro run --trace`` attaches its tracers this way).
#: Only :func:`activate` / :func:`deactivate` should write this.
active: Optional[object] = None


def deactivate() -> None:
    """Clear the active session (idempotent)."""
    global active
    active = None


@contextmanager
def activate(session) -> Iterator[object]:
    """Install ``session`` as the active observer for the dynamic extent.

    Nesting is rejected rather than silently shadowed: a run observed by
    two sessions would need two observers in each backend's one
    ``observer`` slot.
    """
    global active
    if active is not None:
        raise RuntimeError("an ObsSession is already active")
    active = session
    try:
        yield session
    finally:
        active = None
