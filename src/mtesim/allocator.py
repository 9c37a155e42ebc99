"""Hardened primary allocator over tagged memory.

Size classes are multiples of 16 up to a large-allocation threshold.
Primary allocations get a random nonzero tag; tags of adjacent live
allocations are excluded and, with odd-even tagging on, the new tag's
parity must differ from the left neighbor's.  Allocations above the
threshold take an untagged large path (tag 0, never armed).

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
in a FIFO per size class and are reused with their free-time tag unchanged,
except when that tag equals the new allocation's addressable count: the
region then gets a fresh draw under the same exclusions as a new region.
The tripwire state itself lives only in memory (see `tripwire_armed`);
records keep `ever_armed`, a fact of history that memory cannot hold.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .memory import GRANULE_SIZE, TaggedMemory, TaggedPointer, address_tag, untagged

# Bump allocation starts here and grows upward; reused regions keep their
# original base.  Must stay within the 56-bit addressable range.
HEAP_BASE = 0x10_0000
HEAP_CEILING = 1 << 48

DEFAULT_LARGE_THRESHOLD = 65536


class AllocationError(Exception):
    """Out of simulated address space."""


class TagSpaceExhausted(Exception):
    """The exclusion set left no tag to draw; misconfiguration."""


class AllocState(enum.Enum):
    LIVE = "live"
    FREED = "freed"


@dataclass
class TagMismatch:
    """Inputs for a bug report when a free rejects its pointer."""

    address: int
    addrtag: int
    memtag: int
    reason: str


@dataclass
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

    @property
    def tagged(self) -> bool:
        return self.tag != 0


# -- short-granule metadata: the only code that knows the padding layout ---
# The last padding byte, plus the one before it when there are two or more,
# read as one big-endian word: counter bits above a 4-bit stashed tag.


def metadata_span(granule: int, addressable: int) -> range:
    """Addresses of the metadata bytes of the short granule at `granule`."""
    last = granule + GRANULE_SIZE - 1
    return range(last - 1 if addressable <= 14 else last, last + 1)


def metadata_capacity(addressable: int) -> int:
    """Counter capacity: 4 bits (15) with one padding byte, else 12 bits (4095)."""
    return 15 if addressable == 15 else 4095


# The two word helpers spell out `metadata_span`: they run on every free and
# every benign hit, where building a range costs more than the access itself.
def _load_word(mem: TaggedMemory, granule: int, addressable: int) -> int:
    last = granule + GRANULE_SIZE - 1
    if addressable <= 14:
        return (mem.read_byte(last - 1) << 8) | mem.read_byte(last)
    return mem.read_byte(last)


def _store_word(mem: TaggedMemory, granule: int, addressable: int, word: int) -> None:
    """Write `word` over the span; counter bits beyond the span are dropped."""
    last = granule + GRANULE_SIZE - 1
    mem.write_byte(last, word & 0xFF)
    if addressable <= 14:
        mem.write_byte(last - 1, (word >> 8) & 0xFF)


def stashed_tag(mem: TaggedMemory, granule: int) -> int:
    """The low nibble of the granule's last byte: the real tag while armed."""
    return mem.read_byte(granule + GRANULE_SIZE - 1) & 0xF


def access_count(mem: TaggedMemory, granule: int, addressable: int) -> int:
    return _load_word(mem, granule, addressable) >> 4


def arm_tripwire(mem: TaggedMemory, granule: int, addressable: int, real_tag: int) -> None:
    """Tag the granule with its addressable count; stash the real tag, count 0."""
    mem.set_granule_tag(granule, addressable)
    _store_word(mem, granule, addressable, real_tag)


def swap_tag_and_metadata(mem: TaggedMemory, granule: int) -> None:
    """Exchange memory tag and stashed tag; self-inverse, so it delegates and revokes."""
    tag = mem.get_granule_tag(granule)
    last = granule + GRANULE_SIZE - 1
    byte = mem.read_byte(last)
    mem.set_granule_tag(granule, byte & 0xF)
    mem.write_byte(last, (byte & 0xF0) | tag)


def bump_access_count(mem: TaggedMemory, granule: int, addressable: int) -> int:
    """Count one benign hit on an armed granule; returns the new count."""
    word = _load_word(mem, granule, addressable) + (1 << 4)
    _store_word(mem, granule, addressable, word)
    return word >> 4


def retire_tripwire(mem: TaggedMemory, granule: int) -> None:
    """Put the stashed real tag back on the granule; the metadata stays."""
    mem.set_granule_tag(granule, stashed_tag(mem, granule))


def clear_short_granule_metadata(mem: TaggedMemory, granule: int, addressable: int) -> None:
    _store_word(mem, granule, addressable, 0)


def tripwire_armed(mem: TaggedMemory, rec: AllocationRecord) -> bool:
    """True when `rec`'s short granule currently holds an armed tripwire.

    Memory is the only record of tripwire state: an armed granule wears the
    addressable count as its memory tag and stashes the real tag.
    Delegated, retired and never-armed granules all read false.
    """
    short_base = rec.short_granule_base
    if short_base is None:
        return False
    return (mem.get_granule_tag(short_base) == rec.addressable_count
            and stashed_tag(mem, short_base) == rec.tag)


def size_class(requested: int) -> int:
    """Smallest multiple of 16 covering `requested`; 0 rounds to 16."""
    if requested < 0:
        raise ValueError("negative allocation size")
    if requested == 0:
        return GRANULE_SIZE
    return (requested + GRANULE_SIZE - 1) // GRANULE_SIZE * GRANULE_SIZE


def generate_tag(exclude: Iterable[int], rng: random.Random,
                 include_zero: bool = False) -> int:
    """Draw a tag uniformly from the usable tag space minus `exclude`.

    The usable space is {1..15}; zero is reserved for unprotected memory.
    `include_zero` widens it to the full {0..15}, used only by experiments
    that model a 16-tag space.
    """
    lo = 0 if include_zero else 1
    pool = [t for t in range(lo, 16) if t not in exclude]
    if not pool:
        raise TagSpaceExhausted(f"no tag left outside exclusion set {sorted(set(exclude))}")
    return rng.choice(pool)


@dataclass
class AllocatorConfig:
    large_threshold: int = DEFAULT_LARGE_THRESHOLD
    odd_even: bool = True
    include_zero_tag: bool = False


@dataclass
class AllocatorStats:
    allocations: int = 0
    frees: int = 0
    tripwires_armed: int = 0


class Allocator:
    """Size-class allocator with random tagging and tripwire arming.

    `sampler` may be None, in which case no tripwire is ever armed (the
    arming decision is a run-mode concern; the allocator itself is
    indifferent).
    """

    def __init__(self, mem: TaggedMemory, rng: random.Random,
                 config: Optional[AllocatorConfig] = None, sampler=None):
        self.mem = mem
        self.rng = rng
        self.config = config or AllocatorConfig()
        self.sampler = sampler
        self.stats = AllocatorStats()
        self._bump = HEAP_BASE
        self._by_base: Dict[int, AllocationRecord] = {}
        self._by_end: Dict[int, AllocationRecord] = {}
        self._free_lists: Dict[int, deque] = {}
        self.records: List[AllocationRecord] = []  # full history, newest last

    # -- registry views ------------------------------------------------

    def is_live_tag(self, tag: int) -> bool:
        return any(r.state is AllocState.LIVE and r.tag == tag
                   for r in self._by_base.values())

    # -- allocation ----------------------------------------------------

    def _neighbor_tags_and_parity(self, base: int, usable: int) -> Set[int]:
        exclude: Set[int] = set()
        left = self._by_end.get(base)
        if left is not None and left.state is AllocState.LIVE and left.tagged:
            exclude.add(left.tag)
            if self.config.odd_even:
                # new tag's parity must differ from the left neighbor's
                exclude.update(t for t in range(1, 16) if (t & 1) == (left.tag & 1))
        right = self._by_base.get(base + usable)
        if right is not None and right.state is AllocState.LIVE and right.tagged:
            exclude.add(right.tag)
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

    def allocate(self, requested: int) -> TaggedPointer:
        usable = size_class(requested)
        self.stats.allocations += 1

        if usable > self.config.large_threshold:
            # Untagged large path: no tag draw, no tripwire.
            base = self._reserve_fresh(usable)
            rec = AllocationRecord(base, requested, usable, tag=0)
            self._register(rec)
            return TaggedPointer.make(base, 0)

        reused: Optional[AllocationRecord] = None
        fifo = self._free_lists.get(usable)
        if fifo:
            reused = fifo.popleft()
        base = reused.base if reused is not None else self._reserve_fresh(usable)

        short = requested % GRANULE_SIZE
        if reused is not None and reused.tag != short:
            tag = reused.tag  # free-time tag served unchanged, granules already carry it
        else:
            # fresh region, or a free-time tag equal to the tripwire value
            exclude = self._neighbor_tags_and_parity(base, usable)
            if short:
                exclude.add(short)  # tag == tripwire value would never fault
            tag = generate_tag(exclude, self.rng, self.config.include_zero_tag)
            for g in range(base, base + usable, GRANULE_SIZE):
                self.mem.set_granule_tag(g, tag)

        rec = AllocationRecord(base, requested, usable, tag=tag)

        if short and self.sampler is not None and self.sampler.should_arm():
            arm_tripwire(self.mem, rec.short_granule_base, short, tag)
            rec.ever_armed = True
            self.stats.tripwires_armed += 1

        self._register(rec)
        return TaggedPointer.make(base, tag)

    # -- free ----------------------------------------------------------

    def _validate_pointer(self, raw: int) -> Tuple[Optional[AllocationRecord], Optional[TagMismatch]]:
        addr = untagged(raw)
        tag = address_tag(raw)
        if (raw >> 60) & 0xF:
            return None, TagMismatch(addr, tag, self.mem.get_granule_tag(addr), "bad-canary")
        rec = self._by_base.get(addr)
        if rec is None or rec.state is not AllocState.LIVE:
            return None, TagMismatch(addr, tag, self.mem.get_granule_tag(addr), "not-live")
        if tag != rec.tag:
            return None, TagMismatch(addr, tag, self.mem.get_granule_tag(addr), "stale-tag")
        return rec, None

    def free(self, raw: int) -> Optional[TagMismatch]:
        """Free the allocation `raw` points at; returns a mismatch verdict on misuse."""
        rec, mismatch = self._validate_pointer(raw)
        if mismatch is not None:
            return mismatch

        self.stats.frees += 1
        short_base = rec.short_granule_base
        if short_base is not None:
            clear_short_granule_metadata(self.mem, short_base, rec.addressable_count)

        if rec.tagged:
            new_tag = generate_tag({0, rec.tag}, self.rng)
            for g in range(rec.base, rec.end, GRANULE_SIZE):
                self.mem.set_granule_tag(g, new_tag)
            rec.tag = new_tag
            self._free_lists.setdefault(rec.usable_size, deque()).append(rec)
        rec.state = AllocState.FREED
        return None
