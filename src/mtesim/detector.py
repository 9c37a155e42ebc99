"""Tag mismatch handler: byte-granular check and recovery protocol.

`check_access` is the whole decision procedure and is a pure function of
six values, all of which the handler recovers in-band: the fault address,
the decoded access bounds, the pointer's address tag, the granule's memory
tag, and the low nibble of the granule's last byte.  No side table exists.

A benign verdict starts the recovery dance:

  delegation   swap the granule's memory tag with the metadata nibble, so
               the granule now wears the real tag and the access can commit
  escalation   arm a trap on the next instruction slot; if that slot cannot
               hold a trap (ret/halt/end of program) the tripwire is
               permanently retired instead, a known false-negative edge
  revocation   at the trap, swap back, rearming the tripwire, and clear
               the trap

Benign hits also bump the in-padding access counter; reaching the counter's
capacity or the configured threshold retires the tripwire for good.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .allocator import (
    clear_short_granule_metadata,
    load_short_granule_metadata,
    store_short_granule_metadata,
)
from .cpu import Fault, Machine, TrapUnavailable
from .memory import GRANULE_SIZE, TaggedMemory


class ProtocolError(Exception):
    """Recovery bookkeeping went inconsistent; abort the run."""


class BugKind(enum.Enum):
    INTRA_GRANULE_OVERFLOW = "IntraGranuleOverflow"
    CROSS_GRANULE_OVERFLOW = "CrossGranuleOverflow"
    USE_AFTER_FREE_OR_WILD = "UseAfterFreeOrWild"
    ZERO_TAG = "ZeroTag"


class CounterState(enum.Enum):
    BELOW = "below"
    REACHED_CAPACITY = "reached_capacity"
    REACHED_THRESHOLD = "reached_threshold"


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


@dataclass
class BugReport:
    kind: BugKind
    pc: int
    fault_address: int
    addrtag: int
    memtag: int
    regs: Tuple[int, ...]          # 32 registers; pc is appended on serialization
    addressable_bytes: Optional[int] = None
    accessed_bytes_in_granule: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind.value,
            "pc": self.pc,
            "fault_address": f"0x{self.fault_address:x}",
            "addrtag": self.addrtag,
            "memtag": self.memtag,
        }
        if self.addressable_bytes is not None:
            out["addressable_bytes"] = self.addressable_bytes
        if self.accessed_bytes_in_granule is not None:
            out["accessed_bytes_in_granule"] = self.accessed_bytes_in_granule
        # 33 values, register-dump style: x0..x30, sp, pc
        out["regs"] = [f"0x{r:x}" for r in self.regs] + [f"0x{self.pc:x}"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass
class DetectorConfig:
    access_threshold: int = 64
    tripwires_enabled: bool = True
    overread_skip: bool = False

    def __post_init__(self):
        if self.access_threshold < 1:
            raise ValueError("access_threshold must be >= 1")


@dataclass
class DetectorStats:
    tripwires_removed_by_threshold: int = 0
    tripwires_removed_by_ret_edge: int = 0


class Detector:
    """Per-machine mismatch handler.  All decisions use in-band data only;
    the allocator registry, when present, is consulted only to label bug
    kinds."""

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self.stats = DetectorStats()
        # trap pc -> granule base for delegated tripwires
        self.delegations: Dict[int, int] = {}

    # -- report construction -------------------------------------------

    def _classify(self, addrtag: int, memtag: int, metadata: int, allocator) -> BugKind:
        if memtag == 0 or addrtag == 0:
            return BugKind.ZERO_TAG
        if metadata == addrtag:
            return BugKind.INTRA_GRANULE_OVERFLOW
        if allocator is not None and allocator.is_live_tag(addrtag):
            return BugKind.CROSS_GRANULE_OVERFLOW
        return BugKind.USE_AFTER_FREE_OR_WILD

    def make_bug_report(self, fault: Fault, kind: BugKind, memtag: int) -> BugReport:
        report = BugReport(
            kind=kind,
            pc=fault.pc,
            fault_address=fault.fault_address,
            addrtag=fault.access.addrtag,
            memtag=memtag,
            regs=fault.regs_snapshot,
        )
        if kind is BugKind.INTRA_GRANULE_OVERFLOW:
            granule = fault.fault_address & ~(GRANULE_SIZE - 1)
            report.addressable_bytes = memtag
            report.accessed_bytes_in_granule = fault.access.start + fault.access.size - granule
        return report

    def report_async(self, fault: Fault, drain_pc: int, mem: Optional[TaggedMemory] = None,
                     allocator=None) -> BugReport:
        """Imprecise report for a queued fault, surfaced at a kernel entry.

        Tripwires require sync mode, so an async mismatch is always a
        genuine bug under plain tag-check semantics; no benign analysis.
        The memory tag is read at drain time and may be stale.
        """
        memtag = mem.get_granule_tag(fault.fault_address) if mem is not None else 0
        kind = self._classify(fault.access.addrtag, memtag, 0xFF, allocator)
        return BugReport(
            kind=kind,
            pc=drain_pc,
            fault_address=fault.fault_address,
            addrtag=fault.access.addrtag,
            memtag=memtag,
            regs=fault.regs_snapshot,
        )

    def report_free_mismatch(self, mismatch, pc: int, regs: Tuple[int, ...]) -> BugReport:
        return BugReport(
            kind=BugKind.USE_AFTER_FREE_OR_WILD,
            pc=pc,
            fault_address=mismatch.address,
            addrtag=mismatch.addrtag,
            memtag=mismatch.memtag,
            regs=regs,
        )

    # -- recovery protocol ----------------------------------------------

    @staticmethod
    def _swap_tag_and_metadata(mem: TaggedMemory, granule: int) -> None:
        """Exchange the granule's memory tag with its last byte's low nibble.

        Self-inverse: delegation and revocation are the same operation.
        """
        tag = mem.get_granule_tag(granule)
        last = mem.read_byte(granule + GRANULE_SIZE - 1)
        mem.set_granule_tag(granule, last & 0xF)
        mem.write_byte(granule + GRANULE_SIZE - 1, (last & 0xF0) | tag)

    def bump_access_count(self, mem: TaggedMemory, granule: int, memtag: int) -> CounterState:
        meta = load_short_granule_metadata(mem, granule, memtag)
        count = meta.access_count + 1
        store_short_granule_metadata(mem, granule, memtag, meta.real_tag, count)
        if count >= meta.capacity:
            return CounterState.REACHED_CAPACITY
        if count >= self.config.access_threshold:
            return CounterState.REACHED_THRESHOLD
        return CounterState.BELOW

    def _delegate(self, fault: Fault, mem: TaggedMemory, machine: Machine) -> None:
        granule = fault.fault_address & ~(GRANULE_SIZE - 1)
        self._swap_tag_and_metadata(mem, granule)  # granule now wears the real tag
        try:
            machine.set_trap(fault.pc + 1)
        except TrapUnavailable:
            # No slot for revocation: retire the tripwire instead of leaving
            # an open delegation.  The granule keeps the real tag; the
            # metadata nibble goes back to the real tag as well.
            real_tag = mem.get_granule_tag(granule)
            last = mem.read_byte(granule + GRANULE_SIZE - 1)
            mem.write_byte(granule + GRANULE_SIZE - 1, (last & 0xF0) | real_tag)
            self.stats.tripwires_removed_by_ret_edge += 1
            return
        self.delegations[fault.pc + 1] = granule

    def handle_tag_mismatch(self, fault: Fault, mem: TaggedMemory, allocator,
                            machine: Machine) -> Optional[BugReport]:
        """Sync-mode fault entry point; None means resume the access."""
        desc = fault.access
        granule = fault.fault_address & ~(GRANULE_SIZE - 1)
        memtag = mem.get_granule_tag(fault.fault_address)
        metadata = mem.read_byte(granule + GRANULE_SIZE - 1) & 0xF

        if not self.config.tripwires_enabled:
            # plain tag-check semantics: every mismatch is a bug
            kind = self._classify(desc.addrtag, memtag, 0xFF, allocator)
            return self.make_bug_report(fault, kind, memtag)

        if (self.config.overread_skip and desc.overread_ok
                and memtag != 0 and desc.addrtag != 0 and metadata == desc.addrtag):
            # allow-listed overread of a tripwire granule: delegate without
            # the bounds check and without advancing the counter
            self._delegate(fault, mem, machine)
            return None

        if not check_access(fault.fault_address, desc.start, desc.size,
                            desc.addrtag, memtag, metadata):
            kind = self._classify(desc.addrtag, memtag, metadata, allocator)
            return self.make_bug_report(fault, kind, memtag)

        # benign tripwire hit: memtag is the addressable count here
        state = self.bump_access_count(mem, granule, memtag)
        if state is not CounterState.BELOW:
            real_tag = mem.read_byte(granule + GRANULE_SIZE - 1) & 0xF
            mem.set_granule_tag(granule, real_tag)
            clear_short_granule_metadata(mem, granule, memtag)
            self.stats.tripwires_removed_by_threshold += 1
            return None

        self._delegate(fault, mem, machine)
        return None

    def handle_trap(self, machine: Machine, mem: TaggedMemory, allocator) -> None:
        """Revocation: restore the tripwire and release the trap slot.

        Needs only the delegation entry and memory; `allocator` is unused
        and kept so both handler entry points take the same arguments.
        """
        granule = self.delegations.pop(machine.pc, None)
        if granule is None:
            raise ProtocolError(f"trap at pc {machine.pc} with no delegated tripwire")
        self._swap_tag_and_metadata(mem, granule)
        machine.clear_trap(machine.pc)

    def quiescent(self) -> bool:
        """No delegation outstanding; true at any well-formed run boundary."""
        return not self.delegations
