"""Hardened primary allocator over tagged memory.

Size classes are multiples of 16 up to a large-allocation threshold.
Primary allocations get a random nonzero tag; tags of adjacent live
allocations are excluded and, with odd-even tagging on, the new tag's
parity must differ from the left neighbor's.  Allocations above the
threshold take an untagged large path (tag 0, never armed).

Tag exclusions are 16-bit masks: bit t set means tag t may not be drawn.
`allocate` draws from one mask for a new region and for a redraw on reuse
alike.  Only a redraw looks up a right neighbour: nothing is reserved past
the bump pointer, so a new region has none.

Short-granule allocations (requested size not a multiple of 16) may get a
tripwire: the final granule's memory tag is set to its addressable byte
count and the allocation's real tag is stashed in the granule's padding,
alongside an access counter (layout and states: README.md, "Short-granule
metadata").  The tag-fault handler, `mtesim.detector`, owns the layout and
everything a tripwire does; the allocator calls its `arm_tripwire` at
allocation and its `clear_metadata` at free.  The real-tag draw for a
short-granule allocation also excludes the addressable count itself; a tag
equal to the tripwire value would make the tripwire silent, and the draw
must not depend on whether the sampler armed so that runs with and without
tripwires see identical tags.

Freeing retags the whole region with a fresh tag (excluding 0 and the old
tag) and clears the short granule's metadata bytes.  `allocate` tags a
region, and `free` retags one, within one tag page itself, with one fill;
only a region that crosses a page edge is tagged through
`TaggedMemory.set_tag_range`.  Freed regions queue in a
FIFO per size class and are reused with their free-time tag unchanged: a
reuse draws no tag and writes no granule tag, since the granules already
carry it.  The one exception is a free-time tag equal to the new
allocation's addressable count: the region then gets a fresh draw under
the same exclusions as a new region.
The tripwire state itself lives only in memory (see
`mtesim.detector.tripwire_armed`).
One record stands for one region for its whole life: it sits in `live`
while the region is allocated and in its size class's FIFO while it is
free.  Regions never move or change size once reserved, so `_by_end`, the
map from each region's end to its record, is their fixed layout: written
once when a region is reserved and never deleted.  Liveness is recorded
only in `live`: a left neighbour found by its end counts only while its
base is there.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .cpu import RunCounters
from .detector import arm_tripwire, clear_metadata
from .memory import (_FILLERS, _TAG_FILLS, ADDRESS_MASK, GRANULE_MASK, GRANULE_OFFSET_MASK,
                     GRANULE_SHIFT, GRANULE_SIZE, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, TAG_SHIFT,
                     TaggedMemory, _make_filler)

if TYPE_CHECKING:
    from .runner import SimConfig

# Bump allocation starts here and grows upward; reused regions keep their
# original base.  Must stay within the 56-bit addressable range.
HEAP_BASE = 0x10_0000
HEAP_CEILING = 1 << 48
# Allocations above this many bytes take the untagged large path by default
# (`SimConfig.large_threshold`).
LARGE_THRESHOLD = 65536


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
        # live allocations: base -> record in allocation order
        self.live: Dict[int, AllocationRecord] = {}
        # every region ever reserved, live or free: end -> record
        self._by_end: Dict[int, AllocationRecord] = {}
        self._free_lists: Dict[int, deque] = {}

    # -- allocation ----------------------------------------------------

    def allocate(self, requested: int) -> int:
        """Allocate `requested` bytes; returns the tagged 64-bit pointer value."""
        # `size_class`, inline for the common case
        usable = ((requested + GRANULE_OFFSET_MASK) & GRANULE_MASK if requested > 0
                  else size_class(requested))
        short = requested & GRANULE_OFFSET_MASK
        fifo = self._free_lists.get(usable)
        if fifo:
            # the region's own record; its granules carry its free-time tag
            rec = fifo.popleft()
            rec.requested_size = requested
            base, tag = rec.base, rec.tag
            exclude = 0
            if tag == short:
                # redrawn below: a live right neighbour's tag is excluded
                right = self.live.get(base + usable)
                if right is not None and right.tag:
                    exclude = 1 << right.tag
        else:
            # a fresh region at the bump pointer, as every large region is:
            # none is ever queued for reuse; one past the ceiling changes
            # nothing, not even the count
            base = self._bump
            end = base + usable
            if end > HEAP_CEILING:
                raise AllocationError("out of simulated address space")
            self._bump = end
            if usable > self.config.large_threshold:
                # untagged large path: no tag draw, no tripwire
                self.counters.allocations += 1
                self.live[base] = self._by_end[end] = AllocationRecord(base, requested, usable, 0)
                return base
            # its record starts with the tripwire value as its tag, so it
            # takes the draw below as a reuse with that free-time tag does;
            # it has no right neighbour
            tag, exclude = short, 0
            rec = self._by_end[end] = AllocationRecord(base, requested, usable, short)
        self.counters.allocations += 1

        mem = self.mem
        if tag == short:
            # a fresh region, or a free-time tag equal to the tripwire value
            # (which would never fault): draw a tag and fill the region.  A
            # neighbour counts only while live.
            config = self.config
            if not config.include_zero_tag:
                exclude |= ZERO_TAG
            left = self._by_end.get(base)
            if left is not None and left.tag and left.base in self.live:
                exclude |= 1 << left.tag
                if config.odd_even:
                    # new tag's parity must differ from the left neighbor's
                    exclude |= _ODD_TAGS if left.tag & 1 else _EVEN_TAGS
            tag = rec.tag = generate_tag(exclude | 1 << short if short else exclude, self.rng)
            offset = base & PAGE_MASK
            if offset + usable <= PAGE_SIZE:
                i, n = base >> PAGE_SHIFT, usable >> GRANULE_SHIFT
                (_FILLERS[n] or _make_filler(n))(mem.tags.get(i) or mem.tag_page(i),
                                                 offset >> GRANULE_SHIFT, _TAG_FILLS[tag])
            else:
                mem.set_tag_range(base, usable, tag)

        if short and self.sampler is not None and self.sampler.should_arm():
            arm_tripwire(mem, base + usable - GRANULE_SIZE, short, tag)
            self.counters.tripwires_armed += 1

        self.live[base] = rec
        return base | tag << TAG_SHIFT

    # -- free ----------------------------------------------------------

    def free(self, raw: int) -> bool:
        """Free the allocation `raw` points at; False, changing nothing, when
        canary bits are set, no live allocation starts at its address, or its
        tag is stale."""
        rec = self.live.get(raw & ADDRESS_MASK)
        # a register holds 64 bits: a canary bit in 60-63 puts the top byte
        # above every tag
        if rec is None or raw >> TAG_SHIFT != rec.tag:
            return False

        self.counters.frees += 1
        base, usable = rec.base, rec.usable_size
        del self.live[base]
        mem = self.mem
        addressable = rec.requested_size & GRANULE_OFFSET_MASK
        if addressable:
            clear_metadata(mem, base + usable - GRANULE_SIZE, addressable)

        if usable <= self.config.large_threshold:
            # a primary region, even one that drew tag 0 under include_zero_tag;
            # the untagged large path is never retagged or reused
            tag = rec.tag = generate_tag(ZERO_TAG | 1 << rec.tag, self.rng)
            offset = base & PAGE_MASK
            if offset + usable <= PAGE_SIZE:
                # within one page, which the region's tagging at allocation made
                n = usable >> GRANULE_SHIFT
                (_FILLERS[n] or _make_filler(n))(mem.tags[base >> PAGE_SHIFT],
                                                 offset >> GRANULE_SHIFT, _TAG_FILLS[tag])
            else:
                mem.set_tag_range(base, usable, tag)
            fifo = self._free_lists.get(usable)
            if fifo is None:
                fifo = self._free_lists[usable] = deque()
            fifo.append(rec)
        return True
