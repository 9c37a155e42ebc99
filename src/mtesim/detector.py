"""Tag-fault handler: the short-granule metadata, the byte-granular check
and the recovery protocol.

As in HWASan, the allocator only tags memory at allocate and free, and the
fault handler owns the rest: the padding layout ("short-granule metadata"
below, whose `arm_tripwire` and `clear_metadata` the allocator calls at
allocate and free), the benign/bug rule, the hit's count and every trap.

`check_access` is the whole decision procedure and is a pure function of
six values, all of which the handler recovers in-band: the fault address,
the decoded access bounds, the pointer's address tag, the granule's memory
tag, and the tag stashed in the granule's padding.  No side table exists.

A benign verdict starts the recovery dance:

  delegation   swap the granule's memory tag with the stashed tag, so the
               granule now wears the real tag and the access can commit
  escalation   arm a trap on the next instruction slot; if that slot cannot
               hold a trap (ret/halt/end of program) the tripwire is
               permanently retired instead, a known false-negative edge
  revocation   at the trap, swap back, rearming the tripwire, and clear
               the trap

Benign hits also bump the in-padding access counter; reaching the counter's
capacity or the configured threshold retires the tripwire for good.  When
the trap slot runs in the same `Machine.run` call, a counted hit is
rearmed in place: the dance's one net effect is the counter bump and the
trap (see `Detector.pass_benign_mismatch`).

`Machine.run` hands each sync-mode mismatch to `pass_benign_mismatch` as
plain values; that one method takes the verdict, writes its result and
counts it, so the rule in `check_access` is taken once per mismatch.  Only
a declined hit becomes a `Fault`, which the machine builds inline, and
`handle_tag_mismatch` labels and reports the bug: the label indexes the
granule's tag page and data page, as the benign check does.  An async-mode
mismatch reaches the detector only as a pending flag at the next kernel
entry: `report_async` reads no memory and no registry.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .cpu import AccessDescriptor, Fault, Machine, RunCounters
from .memory import (ADDRESS_MASK, GRANULE_MASK, GRANULE_OFFSET_MASK, GRANULE_SHIFT, PAGE_MASK,
                     PAGE_SHIFT, TaggedMemory, address_tag, untagged)

if TYPE_CHECKING:
    from .allocator import AllocationRecord
    from .runner import SimConfig


# -- short-granule metadata: the padding layout ---------------------------
# The last padding byte, plus the one before it when there are two or more,
# read as one big-endian word: counter bits above a 4-bit stashed tag.  This
# section, `Detector.pass_benign_mismatch` and the bug label in
# `Detector.handle_tag_mismatch` are the only code that knows it:
# `Allocator.allocate` arms a tripwire with `arm_tripwire` and
# `Allocator.free` zeroes the metadata bytes with `clear_metadata`.
#
# Every tripwire event (arm, benign hit, trap, free) is one read-modify-write
# of the granule tag and the metadata bytes.  The events with traffic (the
# arm, the clear and the benign hit) and the bug label look the granule's
# tag page and data page up once each and index them, as the machine's tag
# check does: a method call per byte costs more than the event itself.
# `pages.get(i) or mem.tag_page(i)` makes a page only when none exists (a
# page is never empty, so never false); the clear and the label make no
# page.  The revocation at a trap goes through `TaggedMemory`'s methods, as
# do the plain reads, `read_tripwire` and `access_count`, which no run
# calls.  `granule` is the base address of a granule; its last byte sits at
# page offset `granule & PAGE_MASK | GRANULE_OFFSET_MASK`.
#
# A benign hit is one call, `Detector.pass_benign_mismatch`: the read, the
# benign/bug rule (`check_access`, or the allow-listed overread rule), the
# count and the rearm/delegate/retire write.


def metadata_span(granule: int, addressable: int) -> range:
    """Addresses of the metadata bytes of the short granule at `granule`."""
    last = granule + GRANULE_OFFSET_MASK
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
    granule = f & GRANULE_MASK
    permitted = granule + memtag
    attempted = start + size
    return attempted <= permitted


def read_tripwire(mem: TaggedMemory, address: int) -> Tuple[int, int]:
    """Memory tag of the granule holding `address`, and the low nibble of the
    granule's last byte: the addressable count and the real tag while armed."""
    return (mem.get_granule_tag(address),
            mem.read_byte(address | GRANULE_OFFSET_MASK) & 0xF)


def access_count(mem: TaggedMemory, granule: int, addressable: int) -> int:
    """The counter of the short granule at `granule`: its metadata bytes,
    read as one big-endian word, above the stashed tag."""
    word = 0
    for a in metadata_span(granule, addressable):
        word = word << 8 | mem.read_byte(a)
    return word >> 4


def arm_tripwire(mem: TaggedMemory, granule: int, addressable: int, tag: int) -> None:
    """Arm the short granule at `granule`: its memory tag becomes the
    `addressable` count, and the metadata bytes stash `tag` under a zero
    counter."""
    a = granule & ADDRESS_MASK
    index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
    (mem.tags.get(index) or mem.tag_page(index))[offset >> GRANULE_SHIFT] = addressable
    data = mem.data.get(index) or mem.data_page(index)
    last = offset | GRANULE_OFFSET_MASK
    data[last] = tag
    if addressable <= 14:
        data[last - 1] = 0


def clear_metadata(mem: TaggedMemory, granule: int, addressable: int) -> None:
    """Zero the metadata bytes of the short granule at `granule`; its tag is
    left alone.  Never written, they read 0, so an absent page stays absent."""
    a = granule & ADDRESS_MASK
    data = mem.data.get(a >> PAGE_SHIFT)
    if data is not None:
        last = a & PAGE_MASK | GRANULE_OFFSET_MASK
        data[last] = 0
        if addressable <= 14:
            data[last - 1] = 0


def revoke_tripwire(mem: TaggedMemory, granule: int) -> None:
    """Swap the granule tag with the stashed nibble, rearming a delegated tripwire."""
    last = granule | GRANULE_OFFSET_MASK
    byte = mem.read_byte(last)
    mem.write_byte(last, byte & 0xF0 | mem.get_granule_tag(granule))
    mem.set_granule_tag(granule, byte & 0xF)


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


class ProtocolError(Exception):
    """Recovery bookkeeping went inconsistent; abort the run."""


class BugKind(enum.Enum):
    INTRA_GRANULE_OVERFLOW = "IntraGranuleOverflow"
    CROSS_GRANULE_OVERFLOW = "CrossGranuleOverflow"
    USE_AFTER_FREE_OR_WILD = "UseAfterFreeOrWild"
    ZERO_TAG = "ZeroTag"
    ASYNC_TAG_CHECK_FAULT = "AsyncTagCheckFault"


# Module globals: a load of `BugKind.ZERO_TAG` goes through the enum class,
# and labelling and building a bug report read one or two members.
_ZERO_TAG, _INTRA, _CROSS, _USE_AFTER_FREE = (BugKind.ZERO_TAG, BugKind.INTRA_GRANULE_OVERFLOW,
                                              BugKind.CROSS_GRANULE_OVERFLOW,
                                              BugKind.USE_AFTER_FREE_OR_WILD)


@dataclass
class BugReport:
    kind: BugKind
    pc: int
    fault_address: Optional[int]   # None, with both tags, in an async report
    addrtag: Optional[int]
    memtag: Optional[int]
    regs: Tuple[int, ...]          # 32 registers; pc is appended on serialization
    addressable_bytes: Optional[int] = None
    accessed_bytes_in_granule: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind.value, "pc": self.pc}
        if self.fault_address is not None:
            out["fault_address"] = f"0x{self.fault_address:x}"
            out["addrtag"] = self.addrtag
            out["memtag"] = self.memtag
        if self.addressable_bytes is not None:
            out["addressable_bytes"] = self.addressable_bytes
        if self.accessed_bytes_in_granule is not None:
            out["accessed_bytes_in_granule"] = self.accessed_bytes_in_granule
        # 33 values, register-dump style: x0..x30, sp, pc
        out["regs"] = [f"0x{r:x}" for r in self.regs] + [f"0x{self.pc:x}"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class Detector:
    """Per-machine mismatch handler.  All decisions use in-band data only;
    the allocator registry, when present, is consulted only to label bug
    kinds.  `config` is the run's `SimConfig`; the detector reads its
    `tripwires`, `overread_skip` and `access_threshold`.  It bumps
    `traps_delivered`, `tripwires_removed_by_threshold` and
    `tripwires_removed_by_ret_edge` in `counters`, a record of its own
    unless one is given."""

    def __init__(self, config: SimConfig, counters: Optional[RunCounters] = None):
        self.config = config
        self.counters = counters or RunCounters()
        # trap pc -> granule base for delegated tripwires; these are the
        # machine's open trap slots, so a trap fires exactly where one is open
        self.delegations: Dict[int, int] = {}

    # -- report construction -------------------------------------------

    def _classify(self, addrtag: int, memtag: int, metadata: int, allocator) -> BugKind:
        if memtag == 0 or addrtag == 0:
            return _ZERO_TAG
        if metadata == addrtag:
            return _INTRA
        if allocator is not None and allocator.is_live_tag(addrtag):
            return _CROSS
        return _USE_AFTER_FREE

    def make_bug_report(self, fault: Fault, kind: BugKind, memtag: int) -> BugReport:
        report = BugReport(kind, fault.pc, fault.fault_address, fault.access.addrtag, memtag,
                           fault.regs_snapshot)
        if kind is _INTRA:
            granule = fault.fault_address & GRANULE_MASK
            report.addressable_bytes = memtag
            report.accessed_bytes_in_granule = fault.access.start + fault.access.size - granule
        return report

    def report_async(self, pc: int, regs: Tuple[int, ...]) -> BugReport:
        """Report for the pending async flag, drained at the kernel entry at
        `pc` with registers `regs`.  Like Linux's `SEGV_MTEAERR` (si_addr
        0), it names no address, tag or access; its kind says only that a
        tag check failed.
        """
        return BugReport(BugKind.ASYNC_TAG_CHECK_FAULT, pc, None, None, None, regs)

    def report_free_mismatch(self, raw: int, pc: int, regs: Tuple[int, ...],
                             mem: TaggedMemory) -> BugReport:
        """Report for a pointer `raw` that `Allocator.free` refused.  A refused
        free changes nothing, so the granule's tag is the one it was refused
        against.  A free is not an access, so its fault's access has size 0;
        a report that is not intra-granule never shows the access."""
        address = untagged(raw)
        fault = Fault(pc, address, regs, AccessDescriptor(address, 0, address_tag(raw)))
        return self.make_bug_report(fault, BugKind.USE_AFTER_FREE_OR_WILD,
                                    mem.get_granule_tag(address))

    # -- recovery protocol ----------------------------------------------

    def pass_benign_mismatch(self, pc: int, address: int, start: int, size: int,
                             addrtag: int, overread_ok: bool, mem: TaggedMemory,
                             machine: Machine, next_in_call: bool) -> bool:
        """Let a benign sync-mode mismatch through its granule's tripwire;
        True means resume the access, False (every state untouched) that it
        is a bug for `handle_tag_mismatch`.

        The access at `pc` spans `size` bytes from untagged `start` under
        `addrtag`; `address` is its lowest address in the first
        mismatching granule, both unmasked past the top of the address
        space.  A hit is counted unless it is an allow-listed overread
        (`overread_ok` under `overread_skip`).
        `check_access` decides a counted hit; an uncounted one passes
        unchecked when it hits this pointer's tripwire.  A counted hit
        bumps the counter and retires the tripwire, zeroing its metadata,
        once the count reaches `access_threshold` or the counter's
        capacity.  Else, with no trap slot at `pc + 1`, the hit retires the
        tripwire at the ret edge (real tag on, metadata as the hit left
        it).  Else, when slot `pc + 1` runs in the same `run` call
        (`next_in_call`), a counted hit is rearmed in place: only the
        counter is written and the trap is counted now, since the access
        ends within the addressable bytes and delegate-then-revoke would
        swap the tag there and straight back.  Otherwise the hit is
        delegated until the trap at `pc + 1`.  An uncounted hit is never
        rearmed: the overread may read the padding.
        """
        config = self.config
        if not config.tripwires:
            return False  # plain tag-check semantics: every mismatch is a bug
        a = address & ADDRESS_MASK
        index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
        tags, data = mem.tags.get(index), mem.data.get(index)
        g, last = offset >> GRANULE_SHIFT, offset | GRANULE_OFFSET_MASK
        memtag = 0 if tags is None else tags[g]
        low = 0 if data is None else data[last]
        metadata = low & 0xF
        counted = not (overread_ok and config.overread_skip)
        if not (check_access(address, start, size, addrtag, memtag, metadata) if counted
                else memtag != 0 and addrtag != 0 and metadata == addrtag):
            return False
        # benign: memtag and the stashed nibble are nonzero, so both pages exist
        two = memtag <= 14
        word = (data[last - 1] << 8 | low if two else low) + (counted << 4)
        if counted and (word >> 4 >= config.access_threshold
                        or word >> 4 >= metadata_capacity(memtag)):
            tags[g], word = metadata, 0
            self.counters.tripwires_removed_by_threshold += 1
        elif not machine.can_trap(pc + 1):
            tags[g] = metadata   # no slot for the revocation trap (ret/halt/end)
            self.counters.tripwires_removed_by_ret_edge += 1
        elif counted and next_in_call:
            self.counters.traps_delivered += 1   # the trap at pc + 1, taken with the hit
        else:
            tags[g], word = metadata, word & ~0xF | memtag
            self.delegations[pc + 1] = a & GRANULE_MASK  # the granule wears the real tag
        data[last] = word & 0xFF
        if two:
            data[last - 1] = word >> 8 & 0xFF
        return True

    def handle_tag_mismatch(self, fault: Fault, mem: TaggedMemory, allocator,
                            machine: Machine) -> BugReport:
        """Label and report a sync-mode mismatch that `pass_benign_mismatch`
        declined.

        `machine` is unused.  The signature stays as it is because the
        benchmark's tracer (`bench/tracer.py`, `_wrap_mismatch`) wraps this
        method and calls it with these five arguments positionally.
        """
        # `read_tripwire`, indexing the pages as `pass_benign_mismatch` does
        a = fault.fault_address & ADDRESS_MASK
        index, offset = a >> PAGE_SHIFT, a & PAGE_MASK
        tags, data = mem.tags.get(index), mem.data.get(index)
        memtag = 0 if tags is None else tags[offset >> GRANULE_SHIFT]
        metadata = 0 if data is None else data[offset | GRANULE_OFFSET_MASK] & 0xF
        if not self.config.tripwires:
            metadata = 0xFF  # no tripwire can be this pointer's: never intra-granule
        kind = self._classify(fault.access.addrtag, memtag, metadata, allocator)
        return self.make_bug_report(fault, kind, memtag)

    def handle_trap(self, machine: Machine, mem: TaggedMemory, allocator) -> None:
        """Revocation: count the trap, restore the tripwire and release the
        trap slot by dropping its delegation.

        Needs only the delegation entry and memory; `allocator` is unused.
        The signature stays as it is because the benchmark's tracer
        (`bench/tracer.py`, `_wrap_trap`) wraps this method and calls it with
        these four arguments positionally.
        """
        pc = machine.pc
        granule = self.delegations.pop(pc, None)
        if granule is None:
            raise ProtocolError(f"trap at pc {pc} with no delegated tripwire")
        self.counters.traps_delivered += 1
        revoke_tripwire(mem, granule)
