"""``repro.backends`` — the formal TM-backend interface and registry.

``protocol``
    :class:`TMBackend`, the structural contract between the paradigm
    executors and a transactional-memory implementation, plus the
    method/attribute lists the conformance suite enforces, and
    :class:`BackendObserver`, the events a backend reports to its
    ``observer`` slot (set with ``attach_observer``).
``registry``
    ``get_backend(name)`` / ``register_backend`` — named factories for
    ``"hmtx"`` (the paper's hardware), ``"smtx"`` (the software
    baseline) and ``"oracle"`` (an ideal TM for upper-bound curves).
``oracle``
    The ideal backend implementation.

Backend implementations are imported lazily by the registry, so this
package is cheap and cycle-free to import from the runtime layer.
"""

from .protocol import (
    PROTOCOL_ATTRIBUTES,
    PROTOCOL_METHODS,
    BackendObserver,
    TMBackend,
    attach_observer,
    detach_observer,
)
from .registry import BackendFactory, backend_names, get_backend, register_backend

__all__ = [
    "BackendFactory",
    "BackendObserver",
    "PROTOCOL_ATTRIBUTES",
    "PROTOCOL_METHODS",
    "TMBackend",
    "attach_observer",
    "backend_names",
    "detach_observer",
    "get_backend",
    "register_backend",
]
