import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import mtesim.allocator
from mtesim import (
    Allocator,
    SimConfig,
    TaggedMemory,
    TripwireSampler,
    generate_tag,
    size_class,
    tripwire_armed,
)
from mtesim.allocator import (
    HEAP_BASE,
    HEAP_CEILING,
    ZERO_TAG,
    AllocationError,
    AllocationRecord,
    TagSpaceExhausted,
)
from mtesim.cpu import RunCounters
from mtesim.detector import (access_count, arm_tripwire, clear_metadata, metadata_capacity,
                             metadata_span, read_tripwire, revoke_tripwire)
from mtesim.memory import address_tag, untagged
from stepwise import ref_arm, ref_clear, ref_load, ref_swap


class AlwaysArm:
    def should_arm(self):
        return True


class NeverArm:
    def should_arm(self):
        self.consulted = getattr(self, "consulted", 0) + 1
        return False


def make_allocator(seed=0, sampler=None, **cfg):
    mem = TaggedMemory()
    return mem, Allocator(mem, random.Random(seed), SimConfig(**cfg), sampler)


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
        draws = [generate_tag(ZERO_TAG, rng) for _ in range(15_000)]
        counts = [draws.count(t) for t in range(1, 16)]
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_forced_tag(self):
        rng = random.Random(0)
        assert all(generate_tag(0x7FFF, rng) == 15 for _ in range(20))

    def test_never_zero(self):
        rng = random.Random(1)
        assert all(generate_tag(ZERO_TAG, rng) != 0 for _ in range(2000))

    def test_exhausted_space_raises(self):
        with pytest.raises(TagSpaceExhausted):
            generate_tag(0xFFFF, random.Random(0))

    def test_include_zero_widens_pool(self):
        rng = random.Random(2)
        draws = {generate_tag(0, rng) for _ in range(2000)}
        assert draws == set(range(16))

    def test_only_zero_left_draws_zero(self):
        assert generate_tag(0xFFFE, random.Random(3)) == 0


def set_based_generate_tag(exclude, rng, include_zero=False):
    """The set-based draw the mask draw replaced, kept as its reference."""
    lo = 0 if include_zero else 1
    pool = [t for t in range(lo, 16) if t not in exclude]
    if not pool:
        raise TagSpaceExhausted
    return rng.choice(pool)


def exclusion_mask(exclude, include_zero):
    mask = 0 if include_zero else ZERO_TAG
    for t in exclude:
        mask |= 1 << t
    return mask


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 15)), min_size=1, max_size=30),
       st.booleans(), st.integers(0, 2**32))
def test_mask_draw_matches_set_based_draw(exclusions, include_zero, seed):
    masked, reference = random.Random(seed), random.Random(seed)
    for exclude in exclusions:
        try:
            want = set_based_generate_tag(exclude, reference, include_zero)
        except TagSpaceExhausted:
            with pytest.raises(TagSpaceExhausted):
                generate_tag(exclusion_mask(exclude, include_zero), masked)
            continue
        assert generate_tag(exclusion_mask(exclude, include_zero), masked) == want
    assert masked.getstate() == reference.getstate()


@pytest.mark.parametrize("size", range(1, 17))
def test_generate_tag_is_rng_choice_over_the_pool(size):
    # sizes 1, 2, 4, 8 and 16 draw one bit more than the pool needs, and
    # reject more often: the draw must consume the generator as choice does
    pools = random.Random(size)
    for seed in range(30):
        drawn, reference = random.Random(seed), random.Random(seed)
        for _ in range(20):
            pool = sorted(pools.sample(range(16), size))
            mask = exclusion_mask(set(range(16)) - set(pool), True)
            assert generate_tag(mask, drawn) == reference.choice(pool)
        assert drawn.getstate() == reference.getstate()


def test_exhausted_mask_leaves_the_generator_untouched():
    rng = random.Random(5)
    state = rng.getstate()
    for _ in range(2):  # the second call finds nothing cached either
        with pytest.raises(TagSpaceExhausted):
            generate_tag(0xFFFF, rng)
    assert rng.getstate() == state


def spy_on_masks(monkeypatch):
    """The exclusion mask of every `generate_tag` call the allocator makes."""
    masks, draw = [], mtesim.allocator.generate_tag

    def spy(exclude, rng):
        masks.append(exclude)
        return draw(exclude, rng)

    monkeypatch.setattr(mtesim.allocator, "generate_tag", spy)
    return masks


@pytest.mark.parametrize("left_tag", range(1, 16))
def test_odd_even_mask_equals_parity_set(left_tag, monkeypatch):
    # the draw of a fresh region and a redraw on reuse, each right of a live
    # region tagged `left_tag`
    masks = spy_on_masks(monkeypatch)
    _, alloc = make_allocator()
    alloc.live[HEAP_BASE] = alloc._by_end[HEAP_BASE + 16] = AllocationRecord(
        HEAP_BASE, 16, 16, left_tag)
    alloc._bump = HEAP_BASE + 16
    parity = {left_tag} | {t for t in range(1, 16) if (t & 1) == (left_tag & 1)}
    fresh = alloc.allocate(16)
    assert untagged(fresh) == HEAP_BASE + 16
    assert masks == [exclusion_mask(parity, False)]

    # the region again, queued with a free-time tag of the other parity,
    # reused under an addressable count equal to that tag
    del alloc.live[HEAP_BASE + 16]
    rec = alloc._by_end[HEAP_BASE + 32]
    rec.tag = tripwire = 8 if left_tag & 1 else 7
    alloc._free_lists[16] = deque([rec])
    masks.clear()
    reused = alloc.allocate(tripwire)
    assert untagged(reused) == HEAP_BASE + 16
    assert masks == [exclusion_mask(parity | {tripwire}, False)]


def test_freed_left_neighbour_is_not_excluded(monkeypatch):
    # a freed region stays in the end map, so a draw finds it as the left
    # neighbour; its tag and parity must not narrow a fresh region's draw
    # next to it, nor a redraw on reuse next to it
    masks = spy_on_masks(monkeypatch)
    _, alloc = make_allocator(seed=3)
    a = alloc.allocate(32)
    b = alloc.allocate(32)
    alloc.free(b)
    alloc.free(a)   # the 32-byte FIFO serves b first
    masks.clear()
    right = alloc.allocate(48)   # fresh, right of the freed b
    assert masks == [ZERO_TAG]
    tag_b = alloc._free_lists[32][0].tag
    masks.clear()
    # b again, under an addressable count equal to its free-time tag: a
    # redraw between the freed a and the live 48-byte region
    assert untagged(alloc.allocate(16 + tag_b)) == untagged(b)
    assert masks == [ZERO_TAG | 1 << tag_b | 1 << address_tag(right)]


class TestAllocate:
    def test_short_granule_layout_when_armed(self):
        mem, alloc = make_allocator(seed=1, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        tag = address_tag(ptr)
        base = untagged(ptr)
        assert tag != 0
        assert ptr >> 56 == tag  # canary bits [63:60] clear
        assert mem.get_granule_tag(base) == tag
        assert mem.get_granule_tag(base + 16) == tag
        assert mem.get_granule_tag(base + 32) == 8  # addressable byte count
        assert mem.read_byte(base + 47) & 0xF == tag
        rec = alloc.live[base]
        assert rec.usable_size == 48 and tripwire_armed(mem, rec)

    @pytest.mark.parametrize("granules", [1, 64, 256])
    def test_in_page_fresh_region_matches_per_granule_loop(self, granules):
        # a fresh region within one tag page is tagged with one fill:
        # mid-page for 1 and 64 granules, a whole page (at HEAP_BASE) for 256
        mem, alloc = make_allocator(seed=8)
        if granules < 256:
            alloc.allocate(48)
        expected = TaggedMemory()
        expected.tags = {i: bytearray(p) for i, p in mem.tags.items()}
        ptr = alloc.allocate(16 * granules)
        base = untagged(ptr)
        assert (base & 0xFFF) + 16 * granules <= 0x1000
        for g in range(base, base + 16 * granules, 16):
            expected.set_granule_tag(g, address_tag(ptr))
        assert mem.snapshot() == expected.snapshot()

    @pytest.mark.parametrize("granules", [1, 64, 256])
    def test_in_page_redraw_matches_per_granule_loop(self, granules):
        # a reused region whose free-time tag equals its addressable count
        # is redrawn and refilled with one fill, with a live right neighbour
        mem, alloc = make_allocator(seed=8)
        if granules < 256:
            alloc.allocate(48)
        ptr = alloc.allocate(16 * granules)
        alloc.allocate(16)
        alloc.free(ptr)
        free_tag = alloc._free_lists[16 * granules][0].tag
        expected = TaggedMemory()
        expected.tags = {i: bytearray(p) for i, p in mem.tags.items()}
        reused = alloc.allocate(16 * granules - 16 + free_tag)
        base = untagged(reused)
        assert base == untagged(ptr) and address_tag(reused) != free_tag
        assert (base & 0xFFF) + 16 * granules <= 0x1000
        for g in range(base, base + 16 * granules, 16):
            expected.set_granule_tag(g, address_tag(reused))
        assert mem.snapshot() == expected.snapshot()

    def test_multiple_of_16_never_consults_sampler(self):
        sampler = NeverArm()
        mem, alloc = make_allocator(seed=2, sampler=sampler)
        ptr = alloc.allocate(32)
        assert getattr(sampler, "consulted", 0) == 0
        assert mem.get_granule_tag(untagged(ptr)) == address_tag(ptr)
        assert mem.get_granule_tag(untagged(ptr) + 16) == address_tag(ptr)

    def test_adjacent_allocations_have_opposite_parity(self):
        _, alloc = make_allocator(seed=3)
        tags = [address_tag(alloc.allocate(32)) for _ in range(40)]
        for left, right in zip(tags, tags[1:]):
            assert (left & 1) != (right & 1)

    def test_neighbor_exact_tags_excluded_without_odd_even(self):
        _, alloc = make_allocator(seed=4, odd_even=False)
        tags = [address_tag(alloc.allocate(16)) for _ in range(60)]
        for left, right in zip(tags, tags[1:]):
            assert left != right

    def test_short_granule_tag_never_equals_addressable_count(self):
        # a real tag equal to the tripwire value would never fault
        for seed in range(40):
            _, alloc = make_allocator(seed=seed, sampler=AlwaysArm())
            assert address_tag(alloc.allocate(40)) != 8
            assert address_tag(alloc.allocate(47)) != 15

    def test_unarmed_short_granule_keeps_real_tag(self):
        mem, alloc = make_allocator(seed=5)  # no sampler: never arm
        ptr = alloc.allocate(40)
        assert mem.get_granule_tag(untagged(ptr) + 32) == address_tag(ptr)
        assert mem.read_byte(untagged(ptr) + 47) == 0

    def test_large_path_untagged(self):
        mem, alloc = make_allocator(seed=6, sampler=AlwaysArm())
        ptr = alloc.allocate(100_000)
        assert address_tag(ptr) == 0
        assert mem.get_granule_tag(untagged(ptr)) == 0
        assert not tripwire_armed(mem, alloc.live[untagged(ptr)])
        assert alloc.counters.tripwires_armed == 0

    @pytest.mark.parametrize("requested", [32, 100_000], ids=["primary", "large"])
    def test_reservation_past_the_ceiling_changes_nothing(self, requested):
        mem, alloc = make_allocator(seed=7)
        alloc.allocate(48)
        alloc._bump = HEAP_CEILING - 16
        before = (alloc._bump, dict(alloc.live), dict(alloc._by_end), mem.snapshot(),
                  alloc.rng.getstate(), dict(vars(alloc.counters)))
        with pytest.raises(AllocationError):
            alloc.allocate(requested)
        assert before == (alloc._bump, alloc.live, alloc._by_end, mem.snapshot(),
                          alloc.rng.getstate(), vars(alloc.counters))
        # a region ending exactly at the ceiling still fits
        assert untagged(alloc.allocate(16)) == HEAP_CEILING - 16

    def test_zero_tag_reservation_for_primary_path(self):
        _, alloc = make_allocator(seed=7, sampler=AlwaysArm())
        for requested in (1, 16, 40, 64, 47, 1000):
            assert address_tag(alloc.allocate(requested)) != 0


class TestFree:
    def test_retag_at_free_changes_every_granule(self):
        mem, alloc = make_allocator(seed=8)
        ptr = alloc.allocate(48)
        old = address_tag(ptr)
        assert alloc.free(ptr) is True
        for g in range(untagged(ptr), untagged(ptr) + 48, 16):
            assert mem.get_granule_tag(g) != old

    def test_free_retags_a_1023_byte_region_in_one_tag(self):
        mem, alloc = make_allocator(seed=8)
        ptr = alloc.allocate(1023)
        right = alloc.allocate(16)
        right_tag = mem.get_granule_tag(untagged(right))
        assert alloc.free(ptr) is True
        tags = {mem.get_granule_tag(untagged(ptr) + 16 * i) for i in range(64)}
        assert len(tags) == 1 and tags != {address_tag(ptr)} and tags != {0}
        assert untagged(right) == untagged(ptr) + 1024
        assert mem.get_granule_tag(untagged(right)) == right_tag

    @pytest.mark.parametrize("granules", [1, 64, 256])
    def test_in_page_retag_matches_per_granule_loop(self, granules):
        # a region within one tag page is retagged with one fill: mid-page
        # for 1 and 64 granules, a whole page (at HEAP_BASE) for 256
        mem, alloc = make_allocator(seed=8)
        if granules < 256:
            alloc.allocate(48)
        ptr = alloc.allocate(16 * granules)
        alloc.allocate(16)
        base = untagged(ptr)
        assert (base & 0xFFF) + 16 * granules <= 0x1000
        expected = TaggedMemory()
        expected.data = {i: bytearray(p) for i, p in mem.data.items()}
        expected.tags = {i: bytearray(p) for i, p in mem.tags.items()}
        rec = alloc.live[base]
        assert alloc.free(ptr) is True
        assert rec.tag != address_tag(ptr)
        for g in range(base, base + 16 * granules, 16):
            expected.set_granule_tag(g, rec.tag)
        assert mem.snapshot() == expected.snapshot()

    def test_free_retags_and_queues_a_primary_region_that_drew_tag_0(self):
        drew_zero = [seed for seed in range(100)
                     if address_tag(make_allocator(seed, include_zero_tag=True)[1]
                                    .allocate(48)) == 0]
        assert drew_zero
        for seed in drew_zero:
            mem, alloc = make_allocator(seed, include_zero_tag=True)
            ptr = alloc.allocate(48)
            assert alloc.free(ptr) is True
            new_tag = mem.get_granule_tag(ptr)
            assert new_tag != 0
            assert [mem.get_granule_tag(ptr + 16 * i) for i in range(3)] == [new_tag] * 3
            # queued like any primary region: reused with its free-time tag
            assert alloc.allocate(48) == untagged(ptr) | new_tag << 56

    @staticmethod
    def refused(alloc, raw):
        """True when `free` refuses `raw` and changes nothing."""
        before = (alloc.mem.snapshot(), dict(alloc.live), alloc.counters.frees,
                  alloc.rng.getstate())
        return alloc.free(raw) is False and before == (
            alloc.mem.snapshot(), dict(alloc.live), alloc.counters.frees, alloc.rng.getstate())

    def test_double_free_is_mismatch(self):
        _, alloc = make_allocator(seed=9)
        ptr = alloc.allocate(40)
        assert alloc.free(ptr) is True
        assert self.refused(alloc, ptr)

    def test_free_of_never_allocated_address(self):
        _, alloc = make_allocator(seed=10)
        assert self.refused(alloc, 0x5555)

    def test_free_with_wrong_tag_is_mismatch(self):
        _, alloc = make_allocator(seed=11)
        ptr = alloc.allocate(40)
        stale = (ptr & ~(0xF << 56)) | (((address_tag(ptr) + 1) % 16) << 56)
        assert self.refused(alloc, stale)

    def test_free_with_canary_bits_is_mismatch(self):
        _, alloc = make_allocator(seed=12)
        ptr = alloc.allocate(40)
        assert self.refused(alloc, ptr | (1 << 63))

    def test_free_clears_short_granule_metadata(self):
        mem, alloc = make_allocator(seed=13, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        assert mem.read_byte(untagged(ptr) + 47) != 0
        alloc.free(ptr)
        assert mem.read_byte(untagged(ptr) + 47) == 0
        assert mem.read_byte(untagged(ptr) + 46) == 0

    def test_reuse_serves_free_time_tag_fifo(self):
        mem, alloc = make_allocator(seed=14)
        a = alloc.allocate(40)
        b = alloc.allocate(40)
        alloc.free(a)
        alloc.free(b)
        free_tag_a = mem.get_granule_tag(untagged(a))
        free_tag_b = mem.get_granule_tag(untagged(b))
        r1 = alloc.allocate(33)  # same class
        r2 = alloc.allocate(33)
        assert (untagged(r1), address_tag(r1)) == (untagged(a), free_tag_a)
        assert (untagged(r2), address_tag(r2)) == (untagged(b), free_tag_b)

    def test_reused_region_keeps_its_record(self):
        # one record per region: live while allocated, queued while free,
        # and in the end map from its reservation on
        _, alloc = make_allocator(seed=14, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        rec = alloc.live[untagged(ptr)]
        alloc.free(ptr)
        assert untagged(ptr) not in alloc.live and alloc._by_end == {rec.end: rec}
        assert list(alloc._free_lists[48]) == [rec]
        reused = alloc.allocate(33)
        assert alloc.live[untagged(reused)] is rec and not alloc._free_lists[48]
        assert alloc._by_end == {rec.end: rec}
        assert (rec.requested_size, rec.tag) == (33, address_tag(reused))

    def test_reuse_redraws_free_time_tag_equal_to_tripwire_value(self):
        # a free-time tag equal to the addressable count would make the
        # reused region's tripwire silent; the region gets a fresh draw
        redrawn = 0
        for seed in range(60):
            mem, alloc = make_allocator(seed=seed, sampler=AlwaysArm())
            ptr = alloc.allocate(40)
            alloc.free(ptr)
            free_tag = mem.get_granule_tag(untagged(ptr))
            reused = alloc.allocate(40)
            assert untagged(reused) == untagged(ptr)
            assert address_tag(reused) != 8
            assert tripwire_armed(mem, alloc.live[untagged(reused)])
            assert mem.get_granule_tag(untagged(ptr)) == address_tag(reused)
            if free_tag == 8:
                redrawn += 1
            else:
                assert address_tag(reused) == free_tag
        assert redrawn > 0


class TestMetadataInBand:
    def test_reconstruction_needs_no_registry(self):
        mem, alloc = make_allocator(seed=18, sampler=AlwaysArm())
        ptr = alloc.allocate(40)
        expected_tag = address_tag(ptr)
        short_base = untagged(ptr) + 32
        # throw the registry away; only memory reads remain
        del alloc
        count, stashed = read_tripwire(mem, short_base)
        assert count == 8
        assert stashed == expected_tag
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
    alloc = Allocator(mem, random.Random(seed), SimConfig(),
                      TripwireSampler(random.Random(seed + 1), 4, 3))
    live = []
    for op, value in ops:
        if op == "alloc":
            live.append(alloc.allocate(value))
        elif live:
            ptr = live.pop(value % len(live))
            assert alloc.free(ptr) is True
        intervals = sorted((r.base, r.end) for r in alloc.live.values())
        for (_, e1), (b2, _) in zip(intervals, intervals[1:]):
            assert e1 <= b2


# -- the fused metadata operations against the stepwise reference ----------
# (tests/stepwise.py)

def _twin_memories(granule, memtag, padding, neighbours):
    """Two identical memories: the short granule at `granule` with tag
    `memtag`, its last two bytes from `padding` (None leaves a byte
    unwritten), and bytes around the metadata that must stay untouched."""
    pair = (TaggedMemory(), TaggedMemory())
    for mem in pair:
        mem.set_granule_tag(granule, memtag)
        mem.set_granule_tag(granule + 16, neighbours[0] & 0xF)
        mem.write_byte(granule + 13, neighbours[0])
        mem.write_byte(granule + 16, neighbours[1])
        for a, byte in zip((granule + 14, granule + 15), padding):
            if byte is not None:
                mem.write_byte(a, byte)
    return pair


def _same(fused, ref):
    assert fused.snapshot() == ref.snapshot()


# near the heap, and the last granule under the top of the address space;
# a tagged top byte must not matter
_granules = st.tuples(st.sampled_from([HEAP_BASE + 0x40, (1 << 56) - 16]),
                      st.integers(0, 0xFF)).map(lambda g: g[0] | g[1] << 56)
_bytes = st.one_of(st.none(), st.integers(0, 0xFF))
# arbitrary padding, plus words whose counter sits at either capacity edge
_edge_padding = st.tuples(st.sampled_from([13, 14, 15, 16, 4093, 4094, 4095]),
                          st.integers(0, 15)).map(lambda c: ((c[0] >> 4) & 0xFF,
                                                             (c[0] << 4 | c[1]) & 0xFF))
_padding = st.one_of(st.tuples(_bytes, _bytes), _edge_padding)


@given(granule=_granules, memtag=st.integers(0, 15), padding=_padding,
       neighbours=st.tuples(st.integers(0, 0xFF), st.integers(0, 0xFF)))
def test_revoke_and_read_match_stepwise_reference(granule, memtag, padding, neighbours):
    fused, ref = _twin_memories(granule, memtag, padding, neighbours)
    assert read_tripwire(fused, granule + 3) == (ref.get_granule_tag(granule),
                                                 ref.read_byte(granule + 15) & 0xF)
    for addressable in range(1, 16):
        assert access_count(fused, granule, addressable) == \
            ref_load(ref, granule, addressable) >> 4
    revoke_tripwire(fused, granule)
    ref_swap(ref, granule)
    _same(fused, ref)


@given(granule=_granules, memtag=st.integers(0, 15), padding=_padding,
       neighbours=st.tuples(st.integers(0, 0xFF), st.integers(0, 0xFF)),
       addressable=st.integers(1, 15), real_tag=st.integers(0, 15))
@example(granule=HEAP_BASE, memtag=0, padding=(0xFF, 0xFF), neighbours=(0xFF, 0xFF),
         addressable=14, real_tag=3)   # the largest count with two metadata bytes
def test_arm_and_clear_match_stepwise_reference(granule, memtag, padding, neighbours,
                                                addressable, real_tag):
    fused, ref = _twin_memories(granule, memtag, padding, neighbours)
    arm_tripwire(fused, granule, addressable, real_tag)
    ref_arm(ref, granule, addressable, real_tag)
    _same(fused, ref)
    fused, ref = _twin_memories(granule, memtag, padding, neighbours)
    clear_metadata(fused, granule, addressable)
    ref_clear(ref, granule, addressable)
    _same(fused, ref)


# short granules near the heap's start, first in their page, and last under
# the heap's ceiling (also the last in their page)
_heap_granules = st.sampled_from([HEAP_BASE + 0x40, HEAP_BASE + 0x1000, HEAP_CEILING - 16])


@given(granule=_heap_granules, addressable=st.integers(1, 15), granules=st.integers(1, 3),
       seed=st.integers(0, 2**32), padding=_padding,
       neighbours=st.tuples(st.integers(0, 0xFF), st.integers(0, 0xFF)))
def test_arm_and_free_clear_match_stepwise_reference(granule, addressable, granules, seed,
                                                     padding, neighbours):
    # a fresh region of `granules` granules whose short granule is at
    # `granule`, armed by `allocate` and cleared and retagged by `free`
    fused, ref = _twin_memories(granule, 0, padding, neighbours)
    usable = 16 * granules
    alloc = Allocator(fused, random.Random(seed), SimConfig(), AlwaysArm())
    alloc._bump = base = granule + 16 - usable
    ptr = alloc.allocate(usable - 16 + addressable)
    real_tag = address_tag(ptr)
    ref.set_tag_range(base, usable, real_tag)
    ref_arm(ref, granule, addressable, real_tag)
    _same(fused, ref)
    assert read_tripwire(fused, granule) == (addressable, real_tag)
    assert access_count(fused, granule, addressable) == 0
    assert alloc.free(ptr)
    ref_clear(ref, granule, addressable)
    ref.set_tag_range(base, usable, alloc._free_lists[usable][0].tag)
    _same(fused, ref)


# -- the one-pass allocator against the allocator it replaced ---------------
# `ReferenceAllocator` is `Allocator` as it was before `allocate` and `free`
# each took one pass: it validates a pointer in a separate step, probes both
# neighbours of every new region, registers through `rec.end` and draws a
# tag with `rng.choice` over a listed pool.  It writes tags through
# `set_tag_range` and the tripwire's bytes through the stepwise `ref_arm` and
# `ref_clear`, where the allocator retags in-page regions at free itself.  Its
# `free`, like the allocator's, tells a large region by its size, so a
# primary region that drew tag 0 is retagged and queued too.  Both its maps
# hold live allocations only, where the allocator's end map keeps every
# region it has reserved; a reuse builds a new record where the allocator
# takes back the queued one.

def _choice_generate_tag(exclude, rng):
    pool = [t for t in range(16) if not exclude >> t & 1]
    if not pool:
        raise TagSpaceExhausted
    return rng.choice(pool)


class ReferenceAllocator:
    def __init__(self, mem, rng, config, sampler=None):
        self.mem, self.rng, self.config, self.sampler = mem, rng, config, sampler
        self.counters = RunCounters()
        self._bump = HEAP_BASE
        self.live, self._by_end, self._free_lists = {}, {}, {}

    def _neighbor_tags_and_parity(self, base, usable):
        exclude = 0
        left = self._by_end.get(base)
        if left is not None and left.tag:
            exclude = 1 << left.tag
            if self.config.odd_even:
                exclude |= 0xAAAA if left.tag & 1 else 0x5554
        right = self.live.get(base + usable)
        if right is not None and right.tag:
            exclude |= 1 << right.tag
        return exclude

    def _reserve_fresh(self, usable):
        base = self._bump
        self._bump += usable
        return base

    def _add(self, rec):
        self.live[rec.base] = rec
        self._by_end[rec.end] = rec

    def allocate(self, requested):
        usable = size_class(requested)
        self.counters.allocations += 1
        if usable > self.config.large_threshold:
            base = self._reserve_fresh(usable)
            self._add(AllocationRecord(base, requested, usable, tag=0))
            return base
        reused = None
        fifo = self._free_lists.get(usable)
        if fifo:
            reused = fifo.popleft()
        base = reused.base if reused is not None else self._reserve_fresh(usable)
        short = requested % 16
        if reused is not None and reused.tag != short:
            tag = reused.tag
        else:
            exclude = self._neighbor_tags_and_parity(base, usable)
            if short:
                exclude |= 1 << short
            if not self.config.include_zero_tag:
                exclude |= ZERO_TAG
            tag = _choice_generate_tag(exclude, self.rng)
            self.mem.set_tag_range(base, usable, tag)
        rec = AllocationRecord(base, requested, usable, tag)
        if short and self.sampler is not None and self.sampler.should_arm():
            ref_arm(self.mem, base + usable - 16, short, tag)
            self.counters.tripwires_armed += 1
        self._add(rec)
        return base | tag << 56

    def _validate_pointer(self, raw):
        addr, tag = untagged(raw), address_tag(raw)
        if (raw >> 60) & 0xF:
            return None
        rec = self.live.get(addr)
        if rec is None or tag != rec.tag:
            return None
        return rec

    def free(self, raw):
        rec = self._validate_pointer(raw)
        if rec is None:
            return False
        self.counters.frees += 1
        del self.live[rec.base], self._by_end[rec.end]
        if rec.addressable_count:
            ref_clear(self.mem, rec.short_granule_base, rec.addressable_count)
        if rec.usable_size <= self.config.large_threshold:
            rec.tag = _choice_generate_tag(ZERO_TAG | 1 << rec.tag, self.rng)
            self.mem.set_tag_range(rec.base, rec.usable_size, rec.tag)
            self._free_lists.setdefault(rec.usable_size, deque()).append(rec)
        return True


_THRESHOLDS = (64, 512, 1024)


def _alloc_op():
    # plain sizes, sizes around each large threshold, and "tag": a size in
    # the class of the next reused region whose addressable count equals
    # that region's free-time tag
    near = st.sampled_from(_THRESHOLDS).flatmap(lambda t: st.integers(t - 17, t + 17))
    return st.one_of(st.tuples(st.just("alloc"), st.integers(0, 1100)),
                     st.tuples(st.just("alloc"), near),
                     st.tuples(st.just("tag"), st.integers(0, 63)))


def _free_op():
    # a pointer handed out earlier as it was (live, stale or already freed),
    # with a canary nibble set, or with another tag; or a wild address
    return st.one_of(
        st.tuples(st.just("free"), st.integers(0, 63), st.just(0)),
        st.tuples(st.just("canary"), st.integers(0, 63), st.integers(1, 15)),
        st.tuples(st.just("retag"), st.integers(0, 63), st.integers(1, 15)),
        st.tuples(st.just("wild"), st.sampled_from([0, 0x5555, HEAP_BASE + 8, HEAP_BASE + 16,
                                                    HEAP_BASE - 16, 1 << 48]),
                  st.integers(0, 15)))


def _pointer_for(op, handed_out):
    kind, i, value = op
    if kind == "wild":
        return i | value << 56
    ptr = handed_out[i % len(handed_out)]
    if kind == "canary":
        return ptr | value << 60
    if kind == "retag":
        return ptr ^ value << 56
    return ptr


def _state(alloc):
    return (alloc.mem.snapshot(),
            [(base, r.base, r.requested_size, r.usable_size, r.tag)
             for base, r in alloc.live.items()],
            # live regions found by their end, as a left neighbour is
            {end for end, r in alloc._by_end.items() if alloc.live.get(r.base) is r},
            {size: [(r.base, r.tag) for r in fifo]
             for size, fifo in alloc._free_lists.items() if fifo},
            alloc.counters, alloc.rng.getstate())


def _edge_case(*sizes):
    """Allocate `sizes` in order; free the last region, reuse it, free it
    again, reuse it under a size whose addressable count equals its free-time
    tag (a redraw) and free it once more."""
    last = len(sizes) - 1
    return ([("alloc", size) for size in sizes]
            + [("free", last, 0), ("alloc", sizes[-1]), ("free", last + 1, 0), ("tag", 0),
               ("free", last + 2, 0)])


# Regions at 4 KiB page edges (the heap starts on one), each fresh, reused
# and redrawn on reuse: one that ends exactly at an edge, the largest region
# a free retags with one slice; one that straddles an edge; and a short
# granule first in its page, in a region of its own and at the end of a
# straddling one.  Then the middle of three regions, freed and redrawn on
# reuse while both neighbours are live: odd-even is off, so only the
# exclusion of the right neighbour's tag keeps that tag out of the draw.
@settings(max_examples=150, deadline=None)
@example(ops=_edge_case(1024, 1024, 1024, 1020), odd_even=True, include_zero_tag=False,
         large_threshold=1024, sampler="always", seed=1)
@example(ops=_edge_case(1000, 1000, 1000, 1000, 100), odd_even=True, include_zero_tag=False,
         large_threshold=1024, sampler="always", seed=1)
@example(ops=_edge_case(1024, 1024, 1024, 1024, 8), odd_even=True, include_zero_tag=False,
         large_threshold=1024, sampler="always", seed=1)
@example(ops=_edge_case(1024, 1024, 1024, 1008, 20), odd_even=True, include_zero_tag=False,
         large_threshold=1024, sampler="always", seed=1)
@example(ops=[("alloc", 32)] * 3 + [("free", 1, 0), ("tag", 0), ("free", 3, 0)], odd_even=False,
         include_zero_tag=False, large_threshold=1024, sampler="always", seed=1)
@given(ops=st.lists(st.one_of(_alloc_op(), _free_op()), max_size=50),
       odd_even=st.booleans(), include_zero_tag=st.booleans(),
       large_threshold=st.sampled_from(_THRESHOLDS),
       sampler=st.sampled_from([None, "always", "sampled"]), seed=st.integers(0, 2**32))
def test_allocator_matches_reference_allocator(ops, odd_even, include_zero_tag,
                                               large_threshold, sampler, seed):
    config = SimConfig(odd_even=odd_even, include_zero_tag=include_zero_tag,
                       large_threshold=large_threshold)

    def make(cls):
        arms = {None: None, "always": AlwaysArm(),
                "sampled": TripwireSampler(random.Random(seed + 1), 2, 3)}[sampler]
        return cls(TaggedMemory(), random.Random(seed), config, arms)

    alloc, ref = make(Allocator), make(ReferenceAllocator)
    handed_out = []
    for op in ops:
        if op[0] in ("alloc", "tag"):
            size = op[1]
            if op[0] == "tag":
                queued = [fifo[0] for fifo in ref._free_lists.values() if fifo]
                if not queued:
                    continue
                head = queued[op[1] % len(queued)]
                size = head.usable_size - 16 + head.tag  # same class, count == tag
            ptr = alloc.allocate(size)
            assert ptr == ref.allocate(size)
            handed_out.append(ptr)
        elif handed_out or op[0] == "wild":
            raw = _pointer_for(op, handed_out)
            assert alloc.free(raw) == ref.free(raw)
        assert _state(alloc) == _state(ref)
    if sampler == "sampled":
        assert alloc.sampler.rng.getstate() == ref.sampler.rng.getstate()
