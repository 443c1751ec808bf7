"""Cache line model with HMTX version tags.

Since the struct-of-arrays rewrite (DESIGN.md §13) resident versions live
only as *slots* in a per-cache :class:`~repro.coherence.store.LineStore`;
:class:`CacheLine` objects are the **in-flight record**: the value a caller
hands to ``install()``, the detached victim record an eviction returns, and
the detached snapshot the cold read API (``lookup``, ``versions``,
``all_lines``) returns.  A snapshot never writes back: mutating a resident
version goes through the owning cache's slot funnels.

Each physical cache line carries, on top of its MOESI/speculative state and
data, the two VIDs of section 4.1:

``modVID``
    VID of the transaction whose speculative store created this version.
    0 for every non-speculative version.
``highVID``
    Highest VID that has accessed this version.

and the lazy-processing tags of section 5.3:

``seen_aborts``
    The simulator's exact formulation of the paper's CB/AB bits: the cache
    records each abort broadcast (with the ``LC_VID`` in force at that
    moment) in a tiny history; a line remembers how many aborts it has
    already processed.  On the next touch the deferred Figure 6/7
    transitions replay in order — commit up to the pre-abort ``LC_VID``,
    then the abort, then the current commit level.  Broadcasts are O(1),
    per-line processing is O(1), and the CB-set-then-abort race of the
    flash-bit scheme (see DESIGN.md) cannot occur.
``epoch``
    Fast-path tag (DESIGN.md, "Fast-path indexing"): the owning cache's
    event epoch at which this line was last lazily processed.  The cache
    bumps its epoch on every commit/abort/reset broadcast, so
    ``epoch == cache epoch`` proves the line has no pending events and
    :meth:`~repro.coherence.cache.VersionedCache._process_lazy_slot` can
    return immediately — the replay it skips would have been an exact no-op.

Records are plain ``__slots__`` objects (no dataclass machinery): one is
built per install, victim and snapshot.  The ``cache`` back-reference and
the :meth:`CacheLine.retag` funnel serve object-per-line containers (the
legacy reference store the differential tests replay against); records the
slot arena hands out carry ``cache = None``, so retagging one is plain
assignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .states import State


class CacheLine:
    """One physical cache line (one *version* of an address).

    Multiple :class:`CacheLine` objects with the same ``addr`` but different
    ``mod_vid``/``high_vid`` may coexist in a single cache set — that is how
    HMTX materialises multiple memory versions (section 4.1).

    State and VID changes on an installed line must go through
    :meth:`retag`/:meth:`set_vids` so the owning cache's
    maintained counters (speculative footprint, live ``S-M`` filter) stay
    exact; ``high_vid`` alone may be assigned directly since no filter
    depends on it.
    """

    __slots__ = ("addr", "state", "data", "mod_vid", "high_vid",
                 "seen_aborts", "lru_tick", "epoch", "cache")

    def __init__(self, addr: int, state: State, data: List[int],
                 mod_vid: int = 0, high_vid: int = 0,
                 seen_aborts: int = 0, lru_tick: int = 0) -> None:
        if mod_vid < 0 or high_vid < 0:
            raise ValueError("VIDs are non-negative")
        self.addr = addr
        self.state = state
        self.data = data
        self.mod_vid = mod_vid
        self.high_vid = high_vid
        #: Abort broadcasts this line has already lazily processed (stamped
        #: to the owning cache's abort count at install time).
        self.seen_aborts = seen_aborts
        #: Monotonic per-cache counter for LRU victim selection.
        self.lru_tick = lru_tick
        #: Owning cache's event epoch at the last lazy processing; -1 means
        #: "never processed by any cache".
        self.epoch = -1
        #: The cache currently holding this line (None while in flight).
        self.cache: Optional[object] = None

    @property
    def vids(self) -> Tuple[int, int]:
        """The ``(modVID, highVID)`` tuple used throughout the paper."""
        return (self.mod_vid, self.high_vid)

    def is_speculative(self) -> bool:
        return self.state.speculative

    def is_dirty(self) -> bool:
        return self.state.dirty

    def copy_data(self) -> List[int]:
        """A defensive copy of the line's words (new versions must not alias)."""
        return list(self.data)

    # ------------------------------------------------------------------
    # Tag mutation funnel (keeps owning-cache filter counters exact)
    # ------------------------------------------------------------------

    def retag(self, state: State, mod_vid: int, high_vid: int) -> None:
        """Change state and VIDs, notifying the owning cache's filters."""
        cache = self.cache
        if cache is not None:
            cache._on_retag(self, state, mod_vid)
        self.state = state
        self.mod_vid = mod_vid
        self.high_vid = high_vid

    def set_vids(self, mod_vid: int, high_vid: int) -> None:
        self.retag(self.state, mod_vid, high_vid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(0x{self.addr:x}, {self.state}"
            f"({self.mod_vid},{self.high_vid}))"
        )
