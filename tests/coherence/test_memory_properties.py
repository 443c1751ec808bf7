"""Property test: line-granular MainMemory against a word-dict reference.

Random interleavings of ``write_word``/``read_word``/``read_line``/
``write_line`` at unaligned addresses must observe exactly what a plain
``word address -> value`` dict would, for several line/word geometries.
Along the way it checks that unwritten lines read as zeros, that
``read_line`` hands out a copy and ``write_line`` keeps one (mutating
either list afterwards changes nothing), and that the ``reads`` /
``writebacks`` counters and ``footprint_lines()`` match the model.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.memory import MainMemory

#: (line_size, word_size) pairs the hierarchy and SMTX can be built with.
GEOMETRIES = [(64, 8), (32, 8), (128, 8), (64, 4), (16, 16)]

#: Six lines' worth of byte addresses (any alignment), plus a far line.
ADDRS = st.one_of(st.integers(0, 6 * 128 - 1),
                  st.integers(0x350_0000, 0x350_0000 + 255))
VALUES = st.integers(-(2 ** 63), 2 ** 63 - 1)


@st.composite
def scenario(draw):
    line_size, word_size = draw(st.sampled_from(GEOMETRIES))
    words = line_size // word_size
    op = st.one_of(
        st.tuples(st.just("write_word"), ADDRS, VALUES),
        st.tuples(st.just("read_word"), ADDRS),
        st.tuples(st.just("read_line"), ADDRS),
        st.tuples(st.just("write_line"), ADDRS,
                  st.lists(VALUES, min_size=words, max_size=words)),
    )
    return line_size, word_size, draw(st.lists(op, max_size=60))


class WordModel:
    """The reference: a word-granular dict, unwritten words read zero."""

    def __init__(self, line_size: int, word_size: int) -> None:
        self.line_size = line_size
        self.word_size = word_size
        self.words = {}
        self.lines_written = set()
        self.reads = 0
        self.writebacks = 0

    def base(self, addr: int) -> int:
        return addr - addr % self.line_size

    def word(self, addr: int) -> int:
        return addr - addr % self.word_size

    def line(self, addr: int):
        base = self.base(addr)
        return [self.words.get(base + i * self.word_size, 0)
                for i in range(self.line_size // self.word_size)]

    def write_word(self, addr: int, value: int) -> None:
        self.words[self.word(addr)] = value
        self.lines_written.add(self.base(addr))

    def write_line(self, addr: int, data) -> None:
        base = self.base(addr)
        for i, value in enumerate(data):
            self.words[base + i * self.word_size] = value
        self.lines_written.add(base)
        self.writebacks += 1


@settings(max_examples=200, deadline=None)
@given(case=scenario())
def test_line_memory_matches_word_model(case):
    line_size, word_size, ops = case
    memory = MainMemory(line_size=line_size, word_size=word_size)
    model = WordModel(line_size, word_size)
    for op in ops:
        kind, addr = op[0], op[1]
        if kind == "write_word":
            memory.write_word(addr, op[2])
            model.write_word(addr, op[2])
        elif kind == "read_word":
            assert memory.read_word(addr) == model.words.get(
                model.word(addr), 0)
        elif kind == "read_line":
            got = memory.read_line(addr)
            model.reads += 1
            assert got == model.line(addr)
            if model.base(addr) not in model.lines_written:
                assert got == [0] * (line_size // word_size)
            # A copy: scribbling on it must not reach memory.
            got[0] ^= 1
            assert memory.read_word(model.base(addr)) == model.words.get(
                model.base(addr), 0)
        else:
            data = list(op[2])
            memory.write_line(addr, data)
            model.write_line(addr, data)
            # Not aliased: the caller's list stays the caller's.
            data[-1] ^= 1
            last = model.base(addr) + line_size - word_size
            assert memory.read_word(last) == model.words[last]
        assert memory.reads == model.reads
        assert memory.writebacks == model.writebacks
        assert memory.footprint_lines() == len(model.lines_written)
    for addr in {model.base(op[1]) for op in ops}:
        assert memory.read_line(addr) == model.line(addr)
