"""Word-granular backing store (main memory) for the simulated machine.

The simulator models memory values at word granularity (8 bytes by default,
8 words per 64-byte line as in Table 2).  Only committed, non-speculative
data ever reaches main memory; speculative versions live exclusively in the
cache hierarchy (or, for superseded non-speculative ``S-O`` copies, are
written back here per section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

DEFAULT_LINE_SIZE = 64
DEFAULT_WORD_SIZE = 8


@dataclass
class MainMemory:
    """Sparse word-addressable main memory.

    Unwritten words read as zero, which matches a zero-initialised address
    space and keeps workload setup cheap.
    """

    line_size: int = DEFAULT_LINE_SIZE
    word_size: int = DEFAULT_WORD_SIZE
    latency: int = 200
    _words: Dict[int, int] = field(default_factory=dict, init=False)
    reads: int = field(default=0, init=False)
    writebacks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.word_size <= 0 or self.word_size & (self.word_size - 1):
            raise ValueError(
                f"word_size must be a power of two, got {self.word_size}")
        if self.line_size % self.word_size:
            raise ValueError("line size must be a multiple of word size")

    @property
    def words_per_line(self) -> int:
        return self.line_size // self.word_size

    def line_addr(self, addr: int) -> int:
        """Base address of the line containing byte address ``addr``."""
        return addr - (addr % self.line_size)

    def word_index(self, addr: int) -> int:
        """Index of ``addr``'s word within its line."""
        return (addr % self.line_size) // self.word_size

    def read_word(self, addr: int) -> int:
        """Read the word containing byte address ``addr`` (no timing)."""
        return self._words.get(addr - (addr % self.word_size), 0)

    def write_word(self, addr: int, value: int) -> None:
        """Write ``value`` to the word containing ``addr`` (no timing)."""
        self._words[addr - (addr % self.word_size)] = value

    def read_line(self, addr: int) -> List[int]:
        """Fetch a whole line as a list of word values (counts as a read)."""
        base = self.line_addr(addr)
        self.reads += 1
        return [
            self._words.get(base + i * self.word_size, 0)
            for i in range(self.words_per_line)
        ]

    def write_line(self, addr: int, data: List[int]) -> None:
        """Write back a whole line (counts as a writeback)."""
        if len(data) != self.words_per_line:
            raise ValueError(
                f"line data must have {self.words_per_line} words, got {len(data)}"
            )
        base = self.line_addr(addr)
        self.writebacks += 1
        for i, value in enumerate(data):
            self._words[base + i * self.word_size] = value

    def footprint_lines(self) -> int:
        """Number of distinct lines ever written (for reporting)."""
        lines = {addr - (addr % self.line_size) for addr in self._words}
        return len(lines)
