"""Abort taxonomy: *why* a multithreaded transaction aborted.

The paper's lazy abort machinery (per-cache ``LC_VID`` snapshots,
Committed/Aborted processing, section 5.4's overflow-triggered aborts)
reports *that* an MTX aborted; recovering intelligently additionally needs
to know *why*.  Real HTM deployments (Intel RTM being the canonical
example) expose exactly such a cause word in the abort status register,
and the software fallback path branches on it: conflicts are transient and
worth retrying, capacity overflows are deterministic and are not, explicit
aborts are the program's own decision.

Every abort in this reproduction is classified at its source:

==================  =====================================================
cause               raised by
==================  =====================================================
CONFLICT            :mod:`repro.coherence.protocol` write-outcome logic —
                    a store's VID fell inside another version's window
                    (``hierarchy._raise_misspeculation``)
CAPACITY_OVERFLOW   :mod:`repro.coherence.hierarchy` /
                    :mod:`repro.coherence.overflow` — a speculative
                    version was selected as an LLC (or overflow-table)
                    victim, section 5.4
WRONG_PATH          :mod:`repro.core.system` in the no-SLA ablation — a
                    branch-mispredicted load marked a line and caused a
                    *false* conflict the SLA mechanism would have avoided
                    (section 5.1)
INTERRUPT           :mod:`repro.core.system` kernel accesses — an
                    interrupt/exception handler's non-speculative store
                    landed on live speculative state (section 5.2)
EXPLICIT            ``abortMTX`` — software-detected misspeculation
                    (section 3.1)
==================  =====================================================

The cause travels on the :class:`~repro.errors.MisspeculationError`
itself (its ``cause`` attribute), so it crosses the coherence/runtime
boundary without any side channel; :func:`classify` reads it back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import MisspeculationError


class AbortCause(enum.Enum):
    """Why a transaction aborted (the RTM-style abort status word)."""

    #: A genuine data-dependence violation between transactions.
    CONFLICT = "conflict"
    #: A speculative version was evicted past the last-level cache (5.4);
    #: deterministic — retrying the same speculative execution cannot
    #: succeed.
    CAPACITY_OVERFLOW = "capacity"
    #: A branch-mispredicted (wrong-path) load marked a line (no-SLA mode)
    #: and triggered a false conflict (5.1).
    WRONG_PATH = "wrong-path"
    #: An interrupt/exception handler's non-speculative access collided
    #: with live speculative state (5.2).
    INTERRUPT = "interrupt"
    #: Software called ``abortMTX`` (3.1).
    EXPLICIT = "explicit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def transient(self) -> bool:
        """Can a plain speculative retry plausibly succeed?

        Conflicts, wrong-path false aborts and interrupt collisions depend
        on interleaving and go away under a different schedule; capacity
        overflows are a property of the transaction's footprint and
        recur deterministically.  Explicit aborts are the program's call —
        the runtime retries them (the recovery handler re-executes from
        committed state), so they count as transient too.
        """
        return self is not AbortCause.CAPACITY_OVERFLOW


def classify(exc: MisspeculationError) -> AbortCause:
    """The :class:`AbortCause` stamped on a misspeculation error at its
    raise site (``exc.cause``)."""
    return exc.cause


@dataclass(frozen=True)
class AbortEvent:
    """One classified abort, as seen by the contention manager."""

    #: VID of the transaction whose access detected the misspeculation.
    vid: int
    cause: AbortCause
    #: Address involved (``-1`` when not address-related, e.g. explicit).
    addr: int = -1
    #: Human-readable reason from the raise site.
    reason: str = ""
    #: Transactions committed system-wide when the abort fired.
    committed: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" @0x{self.addr:x}" if self.addr >= 0 else ""
        return f"abort[{self.cause}] vid={self.vid}{where}"


def event_from_exception(exc: MisspeculationError,
                         committed: int = 0) -> AbortEvent:
    """Build an :class:`AbortEvent` from a raised misspeculation error."""
    return AbortEvent(
        vid=exc.vid,
        cause=classify(exc),
        addr=exc.addr,
        reason=str(exc),
        committed=committed,
    )
