"""Hardened primary allocator over tagged memory.

Size classes are multiples of 16 up to a large-allocation threshold.
Primary allocations get a random nonzero tag; tags of adjacent live
allocations are excluded and, with odd-even tagging on, the new tag's
parity must differ from the left neighbor's.  Allocations above the
threshold take an untagged large path (tag 0, never armed).

Tag exclusions are 16-bit masks: bit t set means tag t may not be drawn.

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
tag) and clears the short granule's metadata bytes.  Freed regions queue
in a FIFO per size class and are reused with their free-time tag unchanged:
a reuse draws no tag and writes no granule tag, since the granules already
carry it.  The one exception is a free-time tag equal to the new
allocation's addressable count: the region then gets a fresh draw under the
same exclusions as a new region.
The tripwire state itself lives only in memory (see `tripwire_armed`);
records keep `ever_armed`, a fact of history that memory cannot hold.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .memory import (ADDRESS_MASK, GRANULE_MASK, GRANULE_SHIFT, GRANULE_SIZE, PAGE_MASK,
                     PAGE_SHIFT, TAG_SHIFT, TaggedMemory, address_tag, untagged)

if TYPE_CHECKING:
    from .cpu import Machine
    from .runner import SimConfig

# Bump allocation starts here and grows upward; reused regions keep their
# original base.  Must stay within the 56-bit addressable range.
HEAP_BASE = 0x10_0000
HEAP_CEILING = 1 << 48


class AllocationError(Exception):
    """Out of simulated address space."""


class TagSpaceExhausted(Exception):
    """The exclusion set left no tag to draw; misconfiguration."""


class AllocState(enum.Enum):
    LIVE = "live"
    FREED = "freed"


# Looking a member up through its enum class costs about ten times a global
# on Python 3.11; the allocator tests state on every call.
_LIVE, _FREED = AllocState.LIVE, AllocState.FREED


@dataclass
class TagMismatch:
    """Inputs for a bug report when a free rejects its pointer."""

    address: int
    addrtag: int
    memtag: int
    reason: str


@dataclass(slots=True)
class AllocationRecord:
    base: int
    requested_size: int
    usable_size: int
    tag: int
    state: AllocState = AllocState.LIVE
    ever_armed: bool = False

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


# -- short-granule metadata: the only code that knows the padding layout ---
# The last padding byte, plus the one before it when there are two or more,
# read as one big-endian word: counter bits above a 4-bit stashed tag.
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
# the delegate/retire write.  `read_tripwire` and `pass_tripwire` are the
# same event taken in steps; the bug report reads the granule with the
# first, and the tests hold `pass_benign_hit` to the steps.

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


def arm_tripwire(mem: TaggedMemory, granule: int, addressable: int, real_tag: int) -> None:
    """Tag the granule with its addressable count; stash the real tag, count 0."""
    a = granule & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    (mem.tags.get(index) or mem.tag_page(index))[offset >> GRANULE_SHIFT] = addressable
    data = mem.data.get(index) or mem.data_page(index)
    last = offset | _LAST
    data[last] = real_tag
    if addressable <= 14:
        data[last - 1] = 0


def clear_short_granule_metadata(mem: TaggedMemory, granule: int, addressable: int) -> None:
    """Zero the metadata bytes; the granule tag is left alone."""
    a = granule & ADDRESS_MASK
    data = mem.data.get(a >> PAGE_SHIFT)
    if data is None:
        return  # never written: already zero
    last = a & PAGE_MASK | _LAST
    data[last] = 0
    if addressable <= 14:
        data[last - 1] = 0


def pass_tripwire(mem: TaggedMemory, granule: int, addressable: int,
                  threshold: Optional[int], delegate: bool) -> int:
    """Let one benign access through the armed tripwire at `granule`.

    `addressable` is the granule's memory tag.  Whatever happens, the
    granule ends up wearing the stashed real tag.  A counted access
    (`threshold` given) bumps the counter; once the count reaches the
    smaller of `threshold` and the counter's capacity, the tripwire retires
    for good and its metadata is zeroed.  Otherwise the tripwire is
    delegated when `delegate`, stashing the addressable count where the
    real tag was, or else retired with the metadata left as this access
    made it.  An uncounted access (`threshold` None, an allow-listed
    overread) leaves the counter alone and never retires by threshold.

    Returns the count the metadata now holds: 0 after a threshold retirement.
    This is the write step of `pass_benign_hit`, taken on its own after
    `read_tripwire` and the verdict; the tests use it as that call's
    stepwise reference and to put a tripwire into a given state.
    """
    a = granule & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    data = mem.data.get(index) or mem.data_page(index)
    last = offset | _LAST
    low = data[last]
    (mem.tags.get(index) or mem.tag_page(index))[offset >> GRANULE_SHIFT] = low & 0xF
    two = addressable <= 14
    word = data[last - 1] << 8 | low if two else low
    if threshold is None:
        if delegate:
            data[last] = low & 0xF0 | addressable
        return word >> 4
    word += 1 << 4
    if word >> 4 >= threshold or word >> 4 >= metadata_capacity(addressable):
        word = 0
    elif delegate:
        word = word & ~0xF | addressable
    data[last] = word & 0xFF
    if two:
        data[last - 1] = word >> 8 & 0xFF
    return word >> 4


# What `pass_benign_hit` did with a mismatch.
DECLINED, DELEGATED, RETIRED_BY_THRESHOLD, RETIRED_AT_RET_EDGE = range(4)


def pass_benign_hit(mem: TaggedMemory, address: int, start: int, size: int, addrtag: int,
                    skip: bool, threshold: int, machine: Machine, pc: int) -> int:
    """Take one sync-mode mismatch at `address` through the tripwire of its
    granule, if it is benign; returns what happened.

    The access spans `size` bytes from untagged `start` under address tag
    `addrtag`.  With `skip` (an allow-listed overread under
    `overread_skip`) a hit on this pointer's tripwire passes without the
    bounds check and is not counted; otherwise `check_access` decides.
    DECLINED (a bug) leaves memory untouched.  A benign hit does what
    `pass_tripwire` does: the granule wears the stashed real tag, a counted
    hit bumps the counter and retires the tripwire once the count reaches
    `threshold` or the counter's capacity, and otherwise the tripwire is
    DELEGATED when `machine.can_trap(pc + 1)`, the slot after the access
    at `pc`, or else RETIRED_AT_RET_EDGE.  The machine is asked only when
    that decides the outcome.  It is passed whole, not as a bound method,
    so a declined mismatch makes no method object.
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
    tags[g] = metadata
    two = memtag <= 14
    word = (data[last - 1] << 8 | low if two else low) + (1 << 4)
    if word >> 4 >= threshold or word >> 4 >= metadata_capacity(memtag):
        word, outcome = 0, RETIRED_BY_THRESHOLD
    elif machine.can_trap(pc + 1):
        word, outcome = word & ~0xF | memtag, DELEGATED
    else:
        outcome = RETIRED_AT_RET_EDGE
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


@dataclass
class AllocatorStats:
    allocations: int = 0
    frees: int = 0
    tripwires_armed: int = 0


class Allocator:
    """Size-class allocator with random tagging and tripwire arming.

    `config` is the run's `SimConfig`; the allocator reads its
    `large_threshold`, `odd_even` and `include_zero_tag`.  `sampler` may be
    None, in which case no tripwire is ever armed (the arming decision is a
    run-mode concern; the allocator itself is indifferent).
    """

    def __init__(self, mem: TaggedMemory, rng: random.Random, config: SimConfig,
                 sampler=None):
        self.mem = mem
        self.rng = rng
        self.config = config
        self.sampler = sampler
        self.stats = AllocatorStats()
        self._bump = HEAP_BASE
        self._by_base: Dict[int, AllocationRecord] = {}
        self._by_end: Dict[int, AllocationRecord] = {}
        self._free_lists: Dict[int, deque] = {}
        self.records: List[AllocationRecord] = []  # full history, newest last

    # -- registry views ------------------------------------------------

    def is_live_tag(self, tag: int) -> bool:
        # a plain loop: it labels every bug report, and `any` over a
        # generator costs about three times as much per record
        for r in self._by_base.values():
            if r.tag == tag and r.state is _LIVE:
                return True
        return False

    # -- allocation ----------------------------------------------------

    def _left_exclusion(self, base: int) -> int:
        """Exclusion mask of the live tagged left neighbour's tag (and parity)."""
        left = self._by_end.get(base)
        if left is None or left.state is not _LIVE or not left.tag:
            return 0
        if self.config.odd_even:
            # new tag's parity must differ from the left neighbor's
            return (_ODD_TAGS if left.tag & 1 else _EVEN_TAGS) | 1 << left.tag
        return 1 << left.tag

    def _neighbor_tags_and_parity(self, base: int, usable: int) -> int:
        """Exclusion mask of the live tagged neighbours' tags (and parity)."""
        exclude = self._left_exclusion(base)
        right = self._by_base.get(base + usable)
        if right is not None and right.state is _LIVE and right.tag:
            exclude |= 1 << right.tag
        return exclude

    def _reserve_fresh(self, usable: int) -> int:
        base = self._bump
        if base + usable > HEAP_CEILING:
            raise AllocationError("out of simulated address space")
        self._bump += usable
        return base

    def _register(self, rec: AllocationRecord) -> None:
        self._by_base[rec.base] = rec
        self._by_end[rec.end] = rec
        self.records.append(rec)

    def allocate(self, requested: int) -> int:
        """Allocate `requested` bytes; returns the tagged 64-bit pointer value."""
        # `size_class`, inline for the common case
        usable = (requested + _LAST) & GRANULE_MASK if requested > 0 else size_class(requested)
        self.stats.allocations += 1
        config = self.config

        if usable > config.large_threshold:
            # Untagged large path: no tag draw, no tripwire.
            base = self._reserve_fresh(usable)
            self._register(AllocationRecord(base, requested, usable, tag=0))
            return base

        short = requested & _LAST
        fifo = self._free_lists.get(usable)
        if fifo:
            # free-time tag served unchanged, granules already carry it,
            # unless it equals the tripwire value: redraw as for a new region
            reused = fifo.popleft()
            base, tag = reused.base, reused.tag
            if tag == short:
                exclude = self._neighbor_tags_and_parity(base, usable) | 1 << short
                if not config.include_zero_tag:
                    exclude |= ZERO_TAG
                tag = generate_tag(exclude, self.rng)
                self.mem.set_tag_range(base, usable, tag)
        else:
            # nothing lives at or above the bump pointer: no right neighbour
            base = self._reserve_fresh(usable)
            exclude = self._left_exclusion(base)
            if short:
                exclude |= 1 << short  # tag == tripwire value would never fault
            if not config.include_zero_tag:
                exclude |= ZERO_TAG
            tag = generate_tag(exclude, self.rng)
            self.mem.set_tag_range(base, usable, tag)

        rec = AllocationRecord(base, requested, usable, tag)
        if short and self.sampler is not None and self.sampler.should_arm():
            arm_tripwire(self.mem, base + usable - GRANULE_SIZE, short, tag)
            rec.ever_armed = True
            self.stats.tripwires_armed += 1

        self._by_base[base] = rec
        self._by_end[base + usable] = rec
        self.records.append(rec)
        return base | tag << TAG_SHIFT

    # -- free ----------------------------------------------------------

    def _mismatch(self, raw: int) -> TagMismatch:
        """The verdict on a pointer `free` rejected, checks in order: canary
        bits set, no live allocation at its address, or a stale tag."""
        addr = untagged(raw)
        tag = address_tag(raw)
        if (raw >> 60) & 0xF:
            reason = "bad-canary"
        else:
            rec = self._by_base.get(addr)
            reason = "not-live" if rec is None or rec.state is not _LIVE else "stale-tag"
        return TagMismatch(addr, tag, self.mem.get_granule_tag(addr), reason)

    def free(self, raw: int) -> Optional[TagMismatch]:
        """Free the allocation `raw` points at; returns a mismatch verdict on misuse."""
        rec = self._by_base.get(raw & ADDRESS_MASK)
        if ((raw >> 60) & 0xF or rec is None or rec.state is not _LIVE
                or (raw >> TAG_SHIFT) & 0xF != rec.tag):
            return self._mismatch(raw)

        self.stats.frees += 1
        base, usable = rec.base, rec.usable_size
        # `addressable_count` and `short_granule_base`, each computed once
        addressable = rec.requested_size & _LAST
        if addressable:
            clear_short_granule_metadata(self.mem, base + usable - GRANULE_SIZE, addressable)

        if usable <= self.config.large_threshold:
            # a primary region, even one that drew tag 0 under include_zero_tag;
            # the untagged large path is never retagged or reused
            new_tag = generate_tag(ZERO_TAG | 1 << rec.tag, self.rng)
            self.mem.set_tag_range(base, usable, new_tag)
            rec.tag = new_tag
            fifo = self._free_lists.get(usable)
            if fifo is None:
                fifo = self._free_lists[usable] = deque()
            fifo.append(rec)
        rec.state = _FREED
        return None
