from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtesim import TaggedMemory, tag_storage_overhead
from mtesim.memory import address_tag, untagged


def test_same_granule_shares_tag():
    mem = TaggedMemory()
    mem.set_granule_tag(0x1000, 0xA)
    assert mem.get_granule_tag(0x100F) == 0xA


def test_adjacent_granule_untouched():
    mem = TaggedMemory()
    mem.set_granule_tag(0x1000, 0xA)
    assert mem.get_granule_tag(0x1010) == 0


def test_mid_granule_address_maps_to_granule_base():
    mem = TaggedMemory()
    mem.set_granule_tag(0x1004, 0x3)
    assert mem.get_granule_tag(0x1000) == 0x3


def test_default_tag_is_zero():
    assert TaggedMemory().get_granule_tag(0xDEAD0) == 0


def test_last_tag_write_wins():
    mem = TaggedMemory()
    mem.set_granule_tag(0x20, 7)
    mem.set_granule_tag(0x20, 5)
    assert mem.get_granule_tag(0x2F) == 5


def test_tag_out_of_range_rejected():
    with pytest.raises(ValueError):
        TaggedMemory().set_granule_tag(0, 16)


def test_bytes_round_trip():
    mem = TaggedMemory()
    mem.write_bytes(0x100, bytes([1, 2, 3]))
    assert mem.read_bytes(0x100, 3) == bytes([1, 2, 3])


def test_fresh_memory_reads_zero():
    assert TaggedMemory().read_bytes(0x9999, 2) == b"\x00\x00"


def test_write_read_across_granule_boundary():
    mem = TaggedMemory()
    data = bytes(range(32))
    mem.write_bytes(0x1008, data)
    assert mem.read_bytes(0x1008, 32) == data


def test_tagged_addresses_are_masked():
    mem = TaggedMemory()
    raw = 0x1000 | 0xB << 56
    mem.write_bytes(raw, b"\x42")
    assert mem.read_byte(0x1000) == 0x42
    mem.set_granule_tag(raw, 0xB)
    assert mem.get_granule_tag(0x1000) == 0xB


def test_helpers_strip_whole_top_byte():
    raw = (0x0A << 56) | 0x1234
    assert untagged(raw) == 0x1234
    assert address_tag(raw) == 0xA


class TestOverhead:
    def test_default_is_one_thirty_third(self):
        assert tag_storage_overhead() == Fraction(1, 33)

    def test_one_byte_granules_cost_a_third(self):
        assert tag_storage_overhead(granule_size=1) == Fraction(1, 3)

    def test_32_byte_granules(self):
        # 4 / (8*32 + 4) = 4/260, computed by hand
        assert tag_storage_overhead(granule_size=32) == Fraction(4, 260)


# property: tags and data are independent maps under any interleaving

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tag"), st.integers(0, 0x4000), st.integers(0, 15)),
        st.tuples(st.just("data"), st.integers(0, 0x4000), st.integers(0, 255)),
    ),
    max_size=60,
)


@given(_ops)
def test_tag_data_independence(ops):
    mem = TaggedMemory()
    shadow_tags = {}
    shadow_data = {}
    for kind, addr, value in ops:
        if kind == "tag":
            mem.set_granule_tag(addr, value)
            shadow_tags[addr // 16] = value
        else:
            mem.write_byte(addr, value)
            shadow_data[addr] = value
    for g, tag in shadow_tags.items():
        assert mem.get_granule_tag(g * 16) == tag
    for addr, b in shadow_data.items():
        assert mem.read_byte(addr) == b


@given(st.integers(0, 2**56 - 1), st.integers(0, 15))
def test_granule_partition(addr, tag):
    mem = TaggedMemory()
    mem.set_granule_tag(addr, tag)
    base = addr // 16 * 16
    assert all(mem.get_granule_tag(base + i) == tag for i in range(16))


def test_set_tag_idempotent():
    mem = TaggedMemory()
    mem.set_granule_tag(0x40, 9)
    snapshot = mem.snapshot()
    mem.set_granule_tag(0x40, 9)
    assert mem.snapshot() == snapshot


class TestSetTagRange:
    def test_tag_out_of_range_rejected(self):
        mem = TaggedMemory()
        for tag in (-1, 16):
            with pytest.raises(ValueError):
                mem.set_tag_range(0x1000, 32, tag)
        assert mem.nonzero_tags() == []

    def test_tagged_address_is_masked(self):
        mem = TaggedMemory()
        mem.set_tag_range(0x1000 | 0x5 << 56, 32, 0xB)
        assert mem.nonzero_tags() == [(0x1000, 0xB), (0x1010, 0xB)]

    def test_partial_last_granule_is_covered(self):
        mem = TaggedMemory()
        mem.set_tag_range(0x1000, 33, 0x7)
        assert [mem.get_granule_tag(0x1000 + 16 * i) for i in range(4)] == [7, 7, 7, 0]

    def test_neighbours_and_data_untouched(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x0FF0, 0x3)
        mem.set_granule_tag(0x1040, 0x4)
        mem.write_bytes(0x0FF8, bytes(range(1, 0x50)))
        data = mem.nonzero_bytes()
        mem.set_tag_range(0x1000, 64, 0x9)
        assert mem.get_granule_tag(0x0FF0) == 0x3
        assert mem.get_granule_tag(0x1040) == 0x4
        assert all(mem.get_granule_tag(0x1000 + 16 * i) == 0x9 for i in range(4))
        assert mem.nonzero_bytes() == data


@given(st.lists(st.tuples(st.integers(0, 0x4000), st.integers(0, 1100), st.integers(0, 15)),
                max_size=20))
def test_set_tag_range_equals_per_granule_loop(writes):
    ranged, looped = TaggedMemory(), TaggedMemory()
    for addr, size, tag in writes:
        ranged.set_tag_range(addr, size, tag)
        for g in range(addr // 16 * 16, addr + size, 16):
            looped.set_granule_tag(g, tag)
    assert ranged.snapshot() == looped.snapshot()


# property: the byte movers match a per-byte reference, whatever the top byte

_top_byte = st.integers(0, 0xFF)


@given(st.lists(st.tuples(_top_byte, st.integers(0x0FF0, 0x1040), st.binary(max_size=32)),
                max_size=20),
       _top_byte, st.integers(0x0FF0, 0x1040), st.integers(0, 40))
def test_byte_moves_match_per_byte_reference(writes, read_top, read_addr, read_len):
    mem, ref = TaggedMemory(), {}
    for top, addr, data in writes:
        mem.write_bytes((top << 56) | addr, data)
        for i, b in enumerate(data):
            ref[addr + i] = b
    assert mem.nonzero_bytes() == sorted((a, b) for a, b in ref.items() if b)
    expected = bytes(ref.get(read_addr + i, 0) for i in range(read_len))
    assert mem.read_bytes((read_top << 56) | read_addr, read_len) == expected


# property: at the top of the address space the byte movers wrap to address
# 0, byte by byte as `read_byte`/`write_byte` (and the tag check) do

_TOP = 1 << 56


@given(st.lists(st.tuples(_top_byte, st.integers(_TOP - 40, _TOP - 1), st.binary(max_size=32)),
                max_size=10),
       _top_byte, st.integers(_TOP - 40, _TOP - 1), st.integers(0, 40))
def test_byte_moves_wrap_at_top_of_address_space(writes, read_top, read_addr, read_len):
    mem, ref = TaggedMemory(), TaggedMemory()
    for top, addr, data in writes:
        mem.write_bytes((top << 56) | addr, data)
        for i, b in enumerate(data):
            ref.write_byte(addr + i, b)
    assert mem.snapshot() == ref.snapshot()
    assert all(0 <= a < _TOP for a, _ in mem.nonzero_bytes())
    expected = bytes(ref.read_byte(read_addr + i) for i in range(read_len))
    assert mem.read_bytes((read_top << 56) | read_addr, read_len) == expected


def test_store_across_the_top_lands_at_address_0():
    mem = TaggedMemory()
    base = _TOP - 4
    mem.write_bytes(base, bytes(range(1, 9)))
    assert [a for a, _ in mem.nonzero_bytes()] == [0, 1, 2, 3,
                                                   _TOP - 4, _TOP - 3, _TOP - 2, _TOP - 1]
    assert mem.read_byte(0) == mem.read_byte(base + 4) == 5
    assert mem.read_bytes(base, 8) == bytes(range(1, 9))
    assert mem.read_bytes(0, 4) == bytes([5, 6, 7, 8])


# -- pages against the representation they replaced -------------------------
# `DictMemory` keeps one dict entry per byte and one per granule, as memory
# was stored before pages, with every address masked and moves wrapping at
# the top of the address space byte by byte.

_MASK = _TOP - 1


class DictMemory:
    def __init__(self):
        self.data, self.tags = {}, {}

    def write_bytes(self, addr, data):
        for i, b in enumerate(data):
            self.data[(addr + i) & _MASK] = b

    def read_bytes(self, addr, length):
        return bytes(self.data.get((addr + i) & _MASK, 0) for i in range(length))

    def write_byte(self, addr, value):
        self.data[addr & _MASK] = value & 0xFF

    def set_granule_tag(self, addr, tag):
        self.tags[(addr & _MASK) >> 4] = tag

    def set_tag_range(self, addr, size, tag):
        start = addr & _MASK
        for g in range(start >> 4, (start + size + 15) >> 4):
            self.tags[g & (_MASK >> 4)] = tag

    def get_granule_tag(self, addr):
        return self.tags.get((addr & _MASK) >> 4, 0)

    def nonzero_bytes(self):
        return sorted((a, b) for a, b in self.data.items() if b)

    def nonzero_tags(self):
        return sorted((g << 4, t) for g, t in self.tags.items() if t)


# a page edge, a region over 8 KiB (three pages), and the top of the space
_WINDOWS = [(0x0FF0, 0x1040), (0x0F00, 0x3100), (_TOP - 0x60, _TOP - 1)]


@st.composite
def _memory_op(draw):
    lo, hi = draw(st.sampled_from(_WINDOWS))
    addr = draw(st.integers(lo, hi)) | draw(_top_byte) << 56
    kind = draw(st.sampled_from(["write_bytes", "read_bytes", "write_byte",
                                 "set_granule_tag", "set_tag_range"]))
    length = draw(st.one_of(st.integers(0, 40), st.integers(0x2000, 0x2400)))
    value = draw(st.integers(0, 0xFF))
    return kind, addr, length, value


def _apply(mem, op):
    kind, addr, length, value = op
    if kind == "write_bytes":
        # distinct nonzero and zero bytes, so a misplaced slice shows
        mem.write_bytes(addr, bytes((value + 7 * i) & 0xFF for i in range(length)))
    elif kind == "read_bytes":
        return mem.read_bytes(addr, length)
    elif kind == "write_byte":
        mem.write_byte(addr, value)
    elif kind == "set_granule_tag":
        mem.set_granule_tag(addr, value & 0xF)
    else:
        mem.set_tag_range(addr, length, value & 0xF)
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(_memory_op(), max_size=12))
def test_pages_match_per_byte_and_per_granule_dicts(ops):
    mem, ref = TaggedMemory(), DictMemory()
    for op in ops:
        assert _apply(mem, op) == _apply(ref, op)
    assert mem.nonzero_bytes() == ref.nonzero_bytes()
    assert mem.nonzero_tags() == ref.nonzero_tags()
    for lo, hi in _WINDOWS:
        for addr in (lo, hi - 15, (lo + hi) // 2):
            assert mem.get_granule_tag(addr) == ref.get_granule_tag(addr)
            assert mem.read_bytes(addr, 32) == ref.read_bytes(addr, 32)


class TestSnapshot:
    def test_snapshot_shares_no_page_with_memory(self):
        mem = TaggedMemory()
        mem.write_bytes(0x1000, b"\x01" * 4)
        mem.set_granule_tag(0x1000, 3)
        snap = mem.snapshot()
        mem.write_bytes(0x1000, b"\x02" * 4)
        mem.set_granule_tag(0x1000, 4)
        old = TaggedMemory()
        old.write_bytes(0x1000, b"\x01" * 4)
        old.set_granule_tag(0x1000, 3)
        assert snap == old.snapshot()
        assert mem.snapshot() != snap

    def test_equal_contents_compare_equal(self):
        a, b = TaggedMemory(), TaggedMemory()
        a.write_bytes(0x5000, bytes(8))       # a page holding only zeros
        a.set_tag_range(0x9000, 64, 0)
        assert a.snapshot() == b.snapshot()
        a.write_byte(0x5003, 1)
        assert a.snapshot() != b.snapshot()
        b.write_byte(0x5003, 1)
        assert a.snapshot() == b.snapshot()

    def test_nonzero_views_are_ascending_and_skip_zeros(self):
        mem = TaggedMemory()
        mem.write_bytes(0x2FFE, b"\x05\x00\x06")
        mem.write_byte(0x10, 9)
        mem.set_granule_tag(0x3000, 2)
        mem.set_granule_tag(0x20, 1)
        mem.set_granule_tag(0x40, 0)
        assert mem.nonzero_bytes() == [(0x10, 9), (0x2FFE, 5), (0x3000, 6)]
        assert mem.nonzero_tags() == [(0x20, 1), (0x3000, 2)]
