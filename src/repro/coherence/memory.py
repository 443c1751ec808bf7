"""Line-granular backing store (main memory) for the simulated machine.

Values are words (8 bytes by default, 8 words per 64-byte line as in
Table 2), stored one ``base -> [word, ...]`` list per line, so a line fill
or writeback is one dict operation plus a copy.  Only committed,
non-speculative data ever reaches main memory; speculative versions live
exclusively in the cache hierarchy (or, for superseded non-speculative
``S-O`` copies, are written back here per section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

DEFAULT_LINE_SIZE = 64
DEFAULT_WORD_SIZE = 8


@dataclass
class MainMemory:
    """Sparse line-granular, word-addressable main memory.

    Unwritten words read as zero, which matches a zero-initialised address
    space and keeps workload setup cheap.  Lines go in and out as copies,
    so no caller ever aliases a stored line.
    """

    line_size: int = DEFAULT_LINE_SIZE
    word_size: int = DEFAULT_WORD_SIZE
    latency: int = 200
    _lines: Dict[int, List[int]] = field(default_factory=dict, init=False)
    reads: int = field(default=0, init=False)
    writebacks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.word_size <= 0 or self.word_size & (self.word_size - 1):
            raise ValueError(
                f"word_size must be a power of two, got {self.word_size}")
        if self.line_size < self.word_size \
                or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power-of-two multiple of "
                             f"word_size, got {self.line_size}")
        self.words_per_line = self.line_size // self.word_size
        self._offset_mask = self.line_size - 1
        self._base_mask = ~self._offset_mask
        self._word_shift = self.word_size.bit_length() - 1
        self._zeros = (0,) * self.words_per_line

    def line_addr(self, addr: int) -> int:
        """Base address of the line containing byte address ``addr``."""
        return addr & self._base_mask

    def word_index(self, addr: int) -> int:
        """Index of ``addr``'s word within its line."""
        return (addr & self._offset_mask) >> self._word_shift

    def read_word(self, addr: int) -> int:
        """Read the word containing byte address ``addr`` (no timing)."""
        return self._lines.get(addr & self._base_mask, self._zeros)[
            (addr & self._offset_mask) >> self._word_shift]

    def write_word(self, addr: int, value: int) -> None:
        """Write ``value`` to the word containing ``addr`` (no timing)."""
        line = self._lines.get(addr & self._base_mask)
        if line is None:
            line = self._lines[addr & self._base_mask] = list(self._zeros)
        line[(addr & self._offset_mask) >> self._word_shift] = value

    def read_line(self, addr: int) -> List[int]:
        """Fetch a copy of a whole line's words (counts as a read)."""
        self.reads += 1
        return list(self._lines.get(addr & self._base_mask, self._zeros))

    def write_line(self, addr: int, data: List[int]) -> None:
        """Write back a copy of a whole line (counts as a writeback)."""
        if len(data) != self.words_per_line:
            raise ValueError(
                f"line data must have {self.words_per_line} words, got {len(data)}"
            )
        self.writebacks += 1
        self._lines[addr & self._base_mask] = list(data)

    def footprint_lines(self) -> int:
        """Number of distinct lines ever written (for reporting)."""
        return len(self._lines)
