from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtesim import TaggedMemory, TaggedPointer, tag_storage_overhead
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
    raw = TaggedPointer.make(0x1000, 0xB).raw
    mem.write_bytes(raw, b"\x42")
    assert mem.read_byte(0x1000) == 0x42
    mem.set_granule_tag(raw, 0xB)
    assert mem.get_granule_tag(0x1000) == 0xB


class TestTaggedPointer:
    def test_tag_and_address(self):
        p = TaggedPointer.make(0x1234, 0xA)
        assert p.raw == (0xA << 56) | 0x1234
        assert p.tag == 0xA
        assert p.address == 0x1234

    def test_high_nibble_canary_rejected(self):
        with pytest.raises(ValueError):
            TaggedPointer((1 << 60) | 0x1000)

    def test_zero_tag_pointer(self):
        p = TaggedPointer.make(0x4000, 0)
        assert p.raw == 0x4000

    def test_helpers_strip_whole_top_byte(self):
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
    snapshot = dict(mem.tags)
    mem.set_granule_tag(0x40, 9)
    assert mem.tags == snapshot


class TestSetTagRange:
    def test_tag_out_of_range_rejected(self):
        mem = TaggedMemory()
        for tag in (-1, 16):
            with pytest.raises(ValueError):
                mem.set_tag_range(0x1000, 32, tag)
        assert mem.tags == {}

    def test_tagged_address_is_masked(self):
        mem = TaggedMemory()
        mem.set_tag_range(TaggedPointer.make(0x1000, 0x5).raw, 32, 0xB)
        assert mem.tags == {0x100: 0xB, 0x101: 0xB}

    def test_partial_last_granule_is_covered(self):
        mem = TaggedMemory()
        mem.set_tag_range(0x1000, 33, 0x7)
        assert [mem.get_granule_tag(0x1000 + 16 * i) for i in range(4)] == [7, 7, 7, 0]

    def test_neighbours_and_data_untouched(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x0FF0, 0x3)
        mem.set_granule_tag(0x1040, 0x4)
        mem.write_bytes(0x0FF8, bytes(range(1, 0x50)))
        data = dict(mem.data)
        mem.set_tag_range(0x1000, 64, 0x9)
        assert mem.get_granule_tag(0x0FF0) == 0x3
        assert mem.get_granule_tag(0x1040) == 0x4
        assert all(mem.get_granule_tag(0x1000 + 16 * i) == 0x9 for i in range(4))
        assert mem.data == data


@given(st.lists(st.tuples(st.integers(0, 0x4000), st.integers(0, 1100), st.integers(0, 15)),
                max_size=20))
def test_set_tag_range_equals_per_granule_loop(writes):
    ranged, looped = TaggedMemory(), TaggedMemory()
    for addr, size, tag in writes:
        ranged.set_tag_range(addr, size, tag)
        for g in range(addr // 16 * 16, addr + size, 16):
            looped.set_granule_tag(g, tag)
    assert ranged.tags == looped.tags


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
    assert mem.data == ref
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
    assert mem.data == ref.data
    assert all(0 <= a < _TOP for a in mem.data)
    expected = bytes(ref.read_byte(read_addr + i) for i in range(read_len))
    assert mem.read_bytes((read_top << 56) | read_addr, read_len) == expected


def test_store_across_the_top_lands_at_address_0():
    mem = TaggedMemory()
    base = _TOP - 4
    mem.write_bytes(base, bytes(range(1, 9)))
    assert sorted(mem.data) == [0, 1, 2, 3, _TOP - 4, _TOP - 3, _TOP - 2, _TOP - 1]
    assert mem.read_byte(0) == mem.read_byte(base + 4) == 5
    assert mem.read_bytes(base, 8) == bytes(range(1, 9))
    assert mem.read_bytes(0, 4) == bytes([5, 6, 7, 8])
