import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mtesim import (
    Allocator,
    AllocatorConfig,
    TaggedMemory,
    TripwireSampler,
    generate_tag,
    size_class,
    tripwire_armed,
)
from mtesim.allocator import (
    AllocState,
    TagSpaceExhausted,
    access_count,
    metadata_capacity,
    metadata_span,
    stashed_tag,
)


class AlwaysArm:
    def should_arm(self):
        return True


class NeverArm:
    def should_arm(self):
        self.consulted = getattr(self, "consulted", 0) + 1
        return False


def make_allocator(seed=0, sampler=None, **cfg):
    mem = TaggedMemory()
    return mem, Allocator(mem, random.Random(seed), AllocatorConfig(**cfg), sampler)


class TestSizeClass:
    def test_rounds_up(self):
        assert size_class(40) == 48

    def test_exact_class(self):
        assert size_class(16) == 16

    def test_minimum(self):
        assert size_class(1) == 16

    def test_zero_rounds_to_minimum(self):
        assert size_class(0) == 16


class TestGenerateTag:
    def test_uniform_over_nonzero_tags(self):
        rng = random.Random(42)
        draws = [generate_tag(set(), rng) for _ in range(15_000)]
        counts = [draws.count(t) for t in range(1, 16)]
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_forced_tag(self):
        rng = random.Random(0)
        assert all(generate_tag(set(range(1, 15)), rng) == 15 for _ in range(20))

    def test_never_zero(self):
        rng = random.Random(1)
        assert all(generate_tag(set(), rng) != 0 for _ in range(2000))

    def test_exhausted_space_raises(self):
        with pytest.raises(TagSpaceExhausted):
            generate_tag(set(range(1, 16)), random.Random(0))

    def test_include_zero_widens_pool(self):
        rng = random.Random(2)
        draws = {generate_tag(set(), rng, include_zero=True) for _ in range(2000)}
        assert draws == set(range(16))


class TestAllocate:
    def test_short_granule_layout_when_armed(self):
        mem, alloc = make_allocator(seed=1, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        tag = ptr.tag
        base = ptr.address
        assert tag != 0
        assert mem.get_granule_tag(base) == tag
        assert mem.get_granule_tag(base + 16) == tag
        assert mem.get_granule_tag(base + 32) == 8  # addressable byte count
        assert mem.read_byte(base + 47) & 0xF == tag
        rec = alloc.records[-1]
        assert rec.usable_size == 48 and tripwire_armed(mem, rec)

    def test_multiple_of_16_never_consults_sampler(self):
        sampler = NeverArm()
        mem, alloc = make_allocator(seed=2, sampler=sampler)
        ptr = alloc.allocate(32)
        assert getattr(sampler, "consulted", 0) == 0
        assert mem.get_granule_tag(ptr.address) == ptr.tag
        assert mem.get_granule_tag(ptr.address + 16) == ptr.tag

    def test_adjacent_allocations_have_opposite_parity(self):
        _, alloc = make_allocator(seed=3)
        tags = [alloc.allocate(32).tag for _ in range(40)]
        for left, right in zip(tags, tags[1:]):
            assert (left & 1) != (right & 1)

    def test_neighbor_exact_tags_excluded_without_odd_even(self):
        _, alloc = make_allocator(seed=4, odd_even=False)
        tags = [alloc.allocate(16).tag for _ in range(60)]
        for left, right in zip(tags, tags[1:]):
            assert left != right

    def test_short_granule_tag_never_equals_addressable_count(self):
        # a real tag equal to the tripwire value would never fault
        for seed in range(40):
            _, alloc = make_allocator(seed=seed, sampler=AlwaysArm())
            assert alloc.allocate(40).tag != 8
            assert alloc.allocate(47).tag != 15

    def test_unarmed_short_granule_keeps_real_tag(self):
        mem, alloc = make_allocator(seed=5)  # no sampler: never arm
        ptr = alloc.allocate(40)
        assert mem.get_granule_tag(ptr.address + 32) == ptr.tag
        assert mem.read_byte(ptr.address + 47) == 0

    def test_large_path_untagged(self):
        mem, alloc = make_allocator(seed=6, sampler=AlwaysArm())
        ptr = alloc.allocate(100_000)
        assert ptr.tag == 0
        assert mem.get_granule_tag(ptr.address) == 0
        rec = alloc.records[-1]
        assert not tripwire_armed(mem, rec) and not rec.ever_armed

    def test_zero_tag_reservation_for_primary_path(self):
        _, alloc = make_allocator(seed=7, sampler=AlwaysArm())
        for requested in (1, 16, 40, 64, 47, 1000):
            assert alloc.allocate(requested).tag != 0


class TestFree:
    def test_retag_at_free_changes_every_granule(self):
        mem, alloc = make_allocator(seed=8)
        ptr = alloc.allocate(48)
        old = ptr.tag
        assert alloc.free(ptr.raw) is None
        for g in range(ptr.address, ptr.address + 48, 16):
            assert mem.get_granule_tag(g) != old

    def test_double_free_is_mismatch(self):
        _, alloc = make_allocator(seed=9)
        ptr = alloc.allocate(40)
        assert alloc.free(ptr.raw) is None
        verdict = alloc.free(ptr.raw)
        assert verdict is not None and verdict.reason == "not-live"

    def test_free_of_never_allocated_address(self):
        _, alloc = make_allocator(seed=10)
        assert alloc.free(0x5555).reason == "not-live"

    def test_free_with_wrong_tag_is_mismatch(self):
        _, alloc = make_allocator(seed=11)
        ptr = alloc.allocate(40)
        stale = (ptr.raw & ~(0xF << 56)) | (((ptr.tag + 1) % 16) << 56)
        assert alloc.free(stale).reason == "stale-tag"

    def test_free_with_canary_bits_is_mismatch(self):
        _, alloc = make_allocator(seed=12)
        ptr = alloc.allocate(40)
        assert alloc.free(ptr.raw | (1 << 63)).reason == "bad-canary"

    def test_free_clears_short_granule_metadata(self):
        mem, alloc = make_allocator(seed=13, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        assert mem.read_byte(ptr.address + 47) != 0
        alloc.free(ptr.raw)
        assert mem.read_byte(ptr.address + 47) == 0
        assert mem.read_byte(ptr.address + 46) == 0

    def test_reuse_serves_free_time_tag_fifo(self):
        mem, alloc = make_allocator(seed=14)
        a = alloc.allocate(40)
        b = alloc.allocate(40)
        alloc.free(a.raw)
        alloc.free(b.raw)
        free_tag_a = mem.get_granule_tag(a.address)
        free_tag_b = mem.get_granule_tag(b.address)
        r1 = alloc.allocate(33)  # same class
        r2 = alloc.allocate(33)
        assert (r1.address, r1.tag) == (a.address, free_tag_a)
        assert (r2.address, r2.tag) == (b.address, free_tag_b)

    def test_reuse_redraws_free_time_tag_equal_to_tripwire_value(self):
        # a free-time tag equal to the addressable count would make the
        # reused region's tripwire silent; the region gets a fresh draw
        redrawn = 0
        for seed in range(60):
            mem, alloc = make_allocator(seed=seed, sampler=AlwaysArm())
            ptr = alloc.allocate(40)
            alloc.free(ptr.raw)
            free_tag = mem.get_granule_tag(ptr.address)
            reused = alloc.allocate(40)
            assert reused.address == ptr.address
            assert reused.tag != 8
            assert tripwire_armed(mem, alloc.records[-1])
            assert mem.get_granule_tag(ptr.address) == reused.tag
            if free_tag == 8:
                redrawn += 1
            else:
                assert reused.tag == free_tag
        assert redrawn > 0


class TestMetadataInBand:
    def test_reconstruction_needs_no_registry(self):
        mem, alloc = make_allocator(seed=18, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        expected_tag = ptr.tag
        short_base = ptr.address + 32
        # throw the registry away; only memory reads remain
        del alloc
        count = mem.get_granule_tag(short_base)
        assert count == 8
        assert stashed_tag(mem, short_base) == expected_tag
        assert access_count(mem, short_base, count) == 0
        assert metadata_capacity(count) == 4095

    def test_capacity_for_single_byte_padding(self):
        assert metadata_capacity(15) == 15
        assert metadata_capacity(14) == 4095
        assert metadata_capacity(1) == 4095

    def test_span_is_last_padding_byte_plus_one_when_there_is_room(self):
        assert list(metadata_span(0x1000, 15)) == [0x100F]
        assert list(metadata_span(0x1000, 14)) == [0x100E, 0x100F]
        assert list(metadata_span(0x1000, 1)) == [0x100E, 0x100F]


# no-overlap property over random alloc/free interleavings

@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 200)),
    st.tuples(st.just("free"), st.integers(0, 30)),
), max_size=60), st.integers(0, 2**30))
def test_live_allocations_never_overlap(ops, seed):
    mem = TaggedMemory()
    alloc = Allocator(mem, random.Random(seed), AllocatorConfig(),
                      TripwireSampler(random.Random(seed + 1), 4, 3))
    live = []
    for op, value in ops:
        if op == "alloc":
            live.append(alloc.allocate(value))
        elif live:
            ptr = live.pop(value % len(live))
            assert alloc.free(ptr.raw) is None
        intervals = sorted((r.base, r.end) for r in alloc.records
                           if r.state is AllocState.LIVE)
        for (_, e1), (b2, _) in zip(intervals, intervals[1:]):
            assert e1 <= b2
