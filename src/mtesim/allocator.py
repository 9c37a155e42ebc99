"""Hardened primary allocator over tagged memory.

Size classes are multiples of 16 up to a large-allocation threshold.
Primary allocations get a random nonzero tag; tags of adjacent live
allocations are excluded and, with odd-even tagging on, the new tag's
parity must differ from the left neighbor's.  Allocations above the
threshold take an untagged large path (tag 0, never armed).

Tag exclusions are 16-bit masks: bit t set means tag t may not be drawn.
`Allocator._tag_exclusion` builds the mask of every region's tag draw.

Short-granule allocations (requested size not a multiple of 16) may get a
tripwire: the final granule's memory tag is set to its addressable byte
count and the allocation's real tag is stashed in the granule's padding,
alongside an access counter (layout and states: README.md, "Short-granule
metadata").  The real-tag draw for a short-granule allocation also
excludes the addressable count itself; a tag equal to the tripwire value
would make the tripwire silent, and the draw must not depend on whether
the sampler armed so that runs with and without tripwires see identical
tags.

Freeing retags the whole region with a fresh tag (excluding 0 and the old
tag) and clears the short granule's metadata bytes.  `allocate` arms a
tripwire and `free` zeroes the metadata bytes themselves, one page lookup
each; `free` also retags a region within one tag page with one slice.  A
new region, a region that crosses a page edge and a redraw on reuse are
tagged through `TaggedMemory.set_tag_range`.  Freed regions queue
in a FIFO per size class and are reused with their free-time tag unchanged:
a reuse draws no tag and writes no granule tag, since the granules already
carry it.  The one exception is a free-time tag equal to the new
allocation's addressable count: the region then gets a fresh draw under the
same exclusions as a new region.
The tripwire state itself lives only in memory (see `tripwire_armed`).
One record stands for one region for its whole life: it sits in the live
maps while the region is allocated and in its size class's FIFO while it
is free.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .cpu import Machine, RunCounters
from .memory import (_TAG_FILLS, ADDRESS_MASK, GRANULE_MASK, GRANULE_SHIFT, GRANULE_SIZE,
                     PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, TAG_SHIFT, TaggedMemory)

if TYPE_CHECKING:
    from .runner import SimConfig

# Bump allocation starts here and grows upward; reused regions keep their
# original base.  Must stay within the 56-bit addressable range.
HEAP_BASE = 0x10_0000
HEAP_CEILING = 1 << 48


class AllocationError(Exception):
    """Out of simulated address space."""


class TagSpaceExhausted(Exception):
    """The exclusion set left no tag to draw; misconfiguration."""


@dataclass(slots=True)
class AllocationRecord:
    base: int
    requested_size: int
    usable_size: int
    tag: int

    @property
    def end(self) -> int:
        return self.base + self.usable_size

    @property
    def addressable_count(self) -> int:
        """Addressable bytes in the short granule; 0 when there is none."""
        return self.requested_size % GRANULE_SIZE

    @property
    def short_granule_base(self) -> Optional[int]:
        if self.addressable_count == 0:
            return None
        return self.end - GRANULE_SIZE


# -- short-granule metadata: the padding layout ---------------------------
# The last padding byte, plus the one before it when there are two or more,
# read as one big-endian word: counter bits above a 4-bit stashed tag.  This
# section and two writes in `Allocator` are the only code that knows it:
# `allocate` arms a tripwire and `free` zeroes the metadata bytes inline.
#
# Every tripwire event (arm, benign hit, trap, free) is one read-modify-write
# of the granule tag and the metadata bytes.  The operations look the
# granule's tag page and data page up once each and index them, as the
# machine's tag check does: a method call per byte costs more than the event
# itself.  `pages.get(i) or mem.tag_page(i)` makes a page only when none
# exists (a page is never empty, so never false).  Reads and clears make no
# page.  `granule` is the base address of a granule; its last byte sits at
# page offset `granule & PAGE_MASK | _LAST`.
#
# A benign hit is one call, `pass_benign_hit`: the read, the benign/bug
# rule (`check_access`, or the allow-listed overread rule), the count and
# the delegate/retire write.  When the trap that would revoke a delegation
# fires in the same `Machine.run` call, the hit writes only the counter and
# leaves the tripwire armed: delegate, access, trap and revoke have no other
# net effect.  The bug report reads the granule with `read_tripwire`.

_LAST = GRANULE_SIZE - 1    # offset of a granule's last byte


def metadata_span(granule: int, addressable: int) -> range:
    """Addresses of the metadata bytes of the short granule at `granule`."""
    last = granule + _LAST
    return range(last - 1 if addressable <= 14 else last, last + 1)


def metadata_capacity(addressable: int) -> int:
    """Counter capacity: 4 bits (15) with one padding byte, else 12 bits (4095)."""
    return 15 if addressable == 15 else 4095


def check_access(f: int, start: int, size: int, addrtag: int, memtag: int,
                 metadata: int) -> bool:
    """Byte-granular benign/bug decision for a faulting access.

    True means benign.  Zero tags on either side are never addressable; a
    metadata nibble that differs from the pointer tag means the fault was
    not this pointer's tripwire; otherwise the access must end within the
    granule's addressable bytes, whose count the memory tag encodes.
    """
    if memtag == 0 or addrtag == 0:
        return False
    if addrtag != metadata:
        return False
    granule = f & ~(GRANULE_SIZE - 1)
    permitted = granule + memtag
    attempted = start + size
    return attempted <= permitted


def read_tripwire(mem: TaggedMemory, address: int) -> Tuple[int, int]:
    """Memory tag of the granule holding `address`, and the low nibble of the
    granule's last byte: the addressable count and the real tag while armed."""
    a = address & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    tags, data = mem.tags.get(index), mem.data.get(index)
    return (0 if tags is None else tags[offset >> GRANULE_SHIFT],
            0 if data is None else data[offset | _LAST] & 0xF)


def access_count(mem: TaggedMemory, granule: int, addressable: int) -> int:
    a = granule & ADDRESS_MASK
    data = mem.data.get(a >> PAGE_SHIFT)
    if data is None:
        return 0
    last = a & PAGE_MASK | _LAST
    word = data[last]
    if addressable <= 14:
        word |= data[last - 1] << 8
    return word >> 4


# What `pass_benign_hit` did with a mismatch.
DECLINED, DELEGATED, REARMED, RETIRED_BY_THRESHOLD, RETIRED_AT_RET_EDGE = range(5)


def pass_benign_hit(mem: TaggedMemory, address: int, start: int, size: int, addrtag: int,
                    skip: bool, threshold: int, machine: Machine, pc: int,
                    next_in_call: bool) -> int:
    """Take one sync-mode mismatch at `address` through the tripwire of its
    granule, if it is benign; returns what happened.

    The access spans `size` bytes from untagged `start` under address tag
    `addrtag`.  With `skip` (an allow-listed overread under
    `overread_skip`) a hit on this pointer's tripwire passes without the
    bounds check and is not counted; otherwise `check_access` decides.
    DECLINED (a bug) leaves memory untouched.  A counted hit bumps the
    counter and retires the tripwire, zeroing its metadata, once the count
    reaches `threshold` or the counter's capacity.  Otherwise, when
    `machine.can_trap(pc + 1)`, the slot after the access at `pc`:

      REARMED    when `next_in_call` (slot `pc + 1` runs in the same
                 `Machine.run` call), writing only the counter.  The access
                 ends within the addressable bytes, so it never touches the
                 tag or the metadata bytes; delegating and then revoking at
                 the trap would swap the tag there and straight back.  The
                 caller counts that trap.
      DELEGATED  otherwise: the granule wears the stashed real tag, with
                 the addressable count stashed where the real tag was,
                 until the trap at `pc + 1` revokes it.

    Without a trap slot it is RETIRED_AT_RET_EDGE: the granule wears the
    real tag, with the metadata left as the hit made it.  An uncounted hit
    is never REARMED, since an allow-listed overread may read the padding
    while it is delegated.  The machine is asked only when that decides the
    outcome.  It is passed whole, not as a bound method, so a declined
    mismatch makes no method object.
    """
    a = address & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    tags, data = mem.tags.get(index), mem.data.get(index)
    g, last = offset >> GRANULE_SHIFT, offset | _LAST
    memtag = 0 if tags is None else tags[g]
    low = 0 if data is None else data[last]
    metadata = low & 0xF
    if skip and memtag != 0 and addrtag != 0 and metadata == addrtag:
        # uncounted: the counter is left alone, and no threshold retires it
        tags[g] = metadata
        if machine.can_trap(pc + 1):
            data[last] = low & 0xF0 | memtag
            return DELEGATED
        return RETIRED_AT_RET_EDGE
    if not check_access(a, start, size, addrtag, memtag, metadata):
        return DECLINED
    # benign: memtag and the stashed nibble are nonzero, so both pages exist
    two = memtag <= 14
    word = (data[last - 1] << 8 | low if two else low) + (1 << 4)
    if word >> 4 >= threshold or word >> 4 >= metadata_capacity(memtag):
        tags[g], word, outcome = metadata, 0, RETIRED_BY_THRESHOLD
    elif not machine.can_trap(pc + 1):
        tags[g], outcome = metadata, RETIRED_AT_RET_EDGE
    elif next_in_call:
        outcome = REARMED
    else:
        tags[g], word, outcome = metadata, word & ~0xF | memtag, DELEGATED
    data[last] = word & 0xFF
    if two:
        data[last - 1] = word >> 8 & 0xFF
    return outcome


def revoke_tripwire(mem: TaggedMemory, granule: int) -> None:
    """Swap the granule tag with the stashed nibble, rearming a delegated tripwire."""
    a = granule & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    tags = mem.tags.get(index) or mem.tag_page(index)
    data = mem.data.get(index) or mem.data_page(index)
    g, last = offset >> GRANULE_SHIFT, offset | _LAST
    byte = data[last]
    data[last] = byte & 0xF0 | tags[g]
    tags[g] = byte & 0xF


def tripwire_armed(mem: TaggedMemory, rec: AllocationRecord) -> bool:
    """True when `rec`'s short granule currently holds an armed tripwire.

    Memory is the only record of tripwire state: an armed granule wears the
    addressable count as its memory tag and stashes the real tag.
    Delegated, retired and never-armed granules all read false.
    """
    short_base = rec.short_granule_base
    if short_base is None:
        return False
    return read_tripwire(mem, short_base) == (rec.addressable_count, rec.tag)


def size_class(requested: int) -> int:
    """Smallest multiple of 16 covering `requested`; 0 rounds to 16."""
    if requested < 0:
        raise ValueError("negative allocation size")
    if requested == 0:
        return GRANULE_SIZE
    return (requested + GRANULE_SIZE - 1) // GRANULE_SIZE * GRANULE_SIZE


# Exclusion masks of the odd-even rule: every odd tag, every even nonzero tag.
_ODD_TAGS = 0xAAAA
_EVEN_TAGS = 0x5554
ZERO_TAG = 1

# Per exclusion mask: the ascending pool of drawable tags, its size n and
# n.bit_length(), filled on first use: the full table of 2**16 masks would
# cost more to build than most runs draw.
_TAG_POOLS: Dict[int, Tuple[Tuple[int, ...], int, int]] = {}


def generate_tag(exclude: int, rng: random.Random) -> int:
    """Draw a tag uniformly from {0..15} minus the exclusion mask `exclude`.

    Bit t of `exclude` set excludes tag t.  Zero is reserved for
    unprotected memory, so callers set bit 0 (`ZERO_TAG`) unless they
    model a full 16-tag space.  The draw is the one `rng.choice(pool)`
    makes from the ascending pool of remaining tags: the same
    `getrandbits(k)` rejection loop as `Random._randbelow_with_getrandbits`,
    with k = n.bit_length() (one bit more than needed when n is a power of
    two), so it consumes the same bits.  An exhausted mask raises before
    drawing anything.
    """
    entry = _TAG_POOLS.get(exclude)
    if entry is None:
        pool = tuple(t for t in range(16) if not exclude >> t & 1)
        if not pool:
            raise TagSpaceExhausted(f"no tag left outside exclusion mask {exclude:#06x}")
        entry = _TAG_POOLS[exclude] = (pool, len(pool), len(pool).bit_length())
    pool, n, k = entry
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return pool[r]


class Allocator:
    """Size-class allocator with random tagging and tripwire arming.

    `config` is the run's `SimConfig`; the allocator reads its
    `large_threshold`, `odd_even` and `include_zero_tag`.  `sampler` may be
    None, in which case no tripwire is ever armed (the arming decision is a
    run-mode concern; the allocator itself is indifferent).  It bumps
    `allocations`, `frees` and `tripwires_armed` in `counters`, a record of
    its own unless one is given.
    """

    def __init__(self, mem: TaggedMemory, rng: random.Random, config: SimConfig,
                 sampler=None, counters: Optional[RunCounters] = None):
        self.mem = mem
        self.rng = rng
        self.config = config
        self.sampler = sampler
        self.counters = counters or RunCounters()
        self._bump = HEAP_BASE
        # live allocations only: base -> record in allocation order, end -> record
        self.live: Dict[int, AllocationRecord] = {}
        self._by_end: Dict[int, AllocationRecord] = {}
        self._free_lists: Dict[int, deque] = {}

    # -- registry views ------------------------------------------------

    def is_live_tag(self, tag: int) -> bool:
        # a plain loop: it labels every bug report, and `any` over a
        # generator costs about three times as much per record
        for r in self.live.values():
            if r.tag == tag:
                return True
        return False

    # -- allocation ----------------------------------------------------

    def _tag_exclusion(self, base: int, usable: int, short: int) -> int:
        """Exclusion mask of a tag draw for the region at `base`: its live tagged
        neighbours' tags (and the left one's parity), the tripwire value
        `short`, and tag 0 unless `include_zero_tag`."""
        config = self.config
        exclude = 0 if config.include_zero_tag else ZERO_TAG
        left = self._by_end.get(base)
        if left is not None and left.tag:
            exclude |= 1 << left.tag
            if config.odd_even:
                # new tag's parity must differ from the left neighbor's
                exclude |= _ODD_TAGS if left.tag & 1 else _EVEN_TAGS
        right = self.live.get(base + usable)
        if right is not None and right.tag:
            exclude |= 1 << right.tag
        if short:
            exclude |= 1 << short  # tag == tripwire value would never fault
        return exclude

    def _reserve_fresh(self, usable: int) -> int:
        base = self._bump
        if base + usable > HEAP_CEILING:
            raise AllocationError("out of simulated address space")
        self._bump += usable
        return base

    def allocate(self, requested: int) -> int:
        """Allocate `requested` bytes; returns the tagged 64-bit pointer value."""
        # `size_class`, inline for the common case
        usable = (requested + _LAST) & GRANULE_MASK if requested > 0 else size_class(requested)
        self.counters.allocations += 1

        if usable > self.config.large_threshold:
            # Untagged large path: no tag draw, no tripwire.
            base = self._reserve_fresh(usable)
            self.live[base] = self._by_end[base + usable] = AllocationRecord(
                base, requested, usable, tag=0)
            return base

        short = requested & _LAST
        mem = self.mem
        fifo = self._free_lists.get(usable)
        if fifo:
            # the region's own record, with its free-time tag served unchanged
            # (granules already carry it) unless it equals the tripwire value
            rec = fifo.popleft()
            rec.requested_size = requested
            base, tag = rec.base, rec.tag
            if tag == short:
                tag = rec.tag = generate_tag(self._tag_exclusion(base, usable, short), self.rng)
                mem.set_tag_range(base, usable, tag)
        else:
            base = self._reserve_fresh(usable)
            tag = generate_tag(self._tag_exclusion(base, usable, short), self.rng)
            mem.set_tag_range(base, usable, tag)
            rec = AllocationRecord(base, requested, usable, tag)

        if short and self.sampler is not None and self.sampler.should_arm():
            # arm: the granule tag becomes the addressable count, and the
            # metadata bytes stash the real tag under a zero counter
            last = base + usable - 1
            index, offset = last >> PAGE_SHIFT, last & PAGE_MASK
            (mem.tags.get(index) or mem.tag_page(index))[offset >> GRANULE_SHIFT] = short
            data = mem.data.get(index) or mem.data_page(index)
            data[offset] = tag
            if short <= 14:
                data[offset - 1] = 0
            self.counters.tripwires_armed += 1

        self.live[base] = self._by_end[base + usable] = rec
        return base | tag << TAG_SHIFT

    # -- free ----------------------------------------------------------

    def free(self, raw: int) -> bool:
        """Free the allocation `raw` points at; False, changing nothing, when
        canary bits are set, no live allocation starts at its address, or its
        tag is stale."""
        rec = self.live.get(raw & ADDRESS_MASK)
        if (raw >> 60) & 0xF or rec is None or (raw >> TAG_SHIFT) & 0xF != rec.tag:
            return False

        self.counters.frees += 1
        base, usable = rec.base, rec.usable_size
        del self.live[base], self._by_end[base + usable]
        mem = self.mem
        addressable = rec.requested_size & _LAST
        if addressable:
            # zero the short granule's metadata bytes; never written, they read 0
            last = base + usable - 1
            data = mem.data.get(last >> PAGE_SHIFT)
            if data is not None:
                last &= PAGE_MASK
                data[last] = 0
                if addressable <= 14:
                    data[last - 1] = 0

        if usable <= self.config.large_threshold:
            # a primary region, even one that drew tag 0 under include_zero_tag;
            # the untagged large path is never retagged or reused
            tag = rec.tag = generate_tag(ZERO_TAG | 1 << rec.tag, self.rng)
            offset = base & PAGE_MASK
            if offset + usable <= PAGE_SIZE:
                # within one page, which the region's tagging at allocation made
                first, end = offset >> GRANULE_SHIFT, (offset + usable) >> GRANULE_SHIFT
                mem.tags[base >> PAGE_SHIFT][first:end] = _TAG_FILLS[tag][first:end]
            else:
                mem.set_tag_range(base, usable, tag)
            fifo = self._free_lists.get(usable)
            if fifo is None:
                fifo = self._free_lists[usable] = deque()
            fifo.append(rec)
        return True
