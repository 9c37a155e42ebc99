"""Tag mismatch handler: byte-granular check and recovery protocol.

`check_access` is the whole decision procedure and is a pure function of
six values, all of which the handler recovers in-band: the fault address,
the decoded access bounds, the pointer's address tag, the granule's memory
tag, and the tag stashed in the granule's padding.  No side table exists.
It is defined in the allocator's metadata section, next to the padding
layout it reads, and imported here as the detector's rule.

A benign verdict starts the recovery dance:

  delegation   swap the granule's memory tag with the stashed tag, so the
               granule now wears the real tag and the access can commit
  escalation   arm a trap on the next instruction slot; if that slot cannot
               hold a trap (ret/halt/end of program) the tripwire is
               permanently retired instead, a known false-negative edge
  revocation   at the trap, swap back, rearming the tripwire, and clear
               the trap

Benign hits also bump the in-padding access counter; reaching the counter's
capacity or the configured threshold retires the tripwire for good.

A counted benign hit ends within the granule's addressable bytes, so the
access it resumes never touches the granule's tag or metadata bytes.  When
the trap slot runs in the same `Machine.run` call, the three steps
therefore have one net effect: the counter bumps and one trap is
delivered.  The hit writes just that and leaves the tripwire armed
(`REARMED`), opening no delegation.  The full dance remains for a machine
paused right after the hit (`step`, or a `run` budget that ends there) and
for an uncounted allow-listed overread, which may read the padding while
it is delegated.

A sync-mode mismatch gets its verdict at one site.  `Machine.run` calls
`pass_benign_mismatch` once per mismatch, with the access as plain values
and whether the next slot runs in the same call.  That makes one call into
the metadata section, `pass_benign_hit`, which looks the granule's tag and
data pages up once and does the read, the rule (`check_access` or the
overread-skip rule), the trap-slot test, the count and the rearm, delegate
or retire write; the detector then counts the trap, records the delegation
or counts the retirement, and returns True to resume.  Only when the hit
is declined does the machine build a `Fault` and call
`handle_tag_mismatch`, which labels and reports the bug.  So the benign/bug
rule is written once, in `check_access`, and taken once per mismatch.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

# `check_access`, the benign/bug rule the detector applies, is defined next
# to the padding layout it reads.
from .allocator import (DECLINED, DELEGATED, REARMED, RETIRED_BY_THRESHOLD, check_access,
                        pass_benign_hit, read_tripwire, revoke_tripwire)
from .cpu import AccessDescriptor, Fault, Machine, RunCounters
from .memory import GRANULE_MASK, GRANULE_SIZE, TaggedMemory, address_tag, untagged

if TYPE_CHECKING:
    from .runner import SimConfig


class ProtocolError(Exception):
    """Recovery bookkeeping went inconsistent; abort the run."""


class BugKind(enum.Enum):
    INTRA_GRANULE_OVERFLOW = "IntraGranuleOverflow"
    CROSS_GRANULE_OVERFLOW = "CrossGranuleOverflow"
    USE_AFTER_FREE_OR_WILD = "UseAfterFreeOrWild"
    ZERO_TAG = "ZeroTag"


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


class Detector:
    """Per-machine mismatch handler.  All decisions use in-band data only;
    the allocator registry, when present, is consulted only to label bug
    kinds.  `config` is the run's `SimConfig`; the detector reads its
    `tripwires`, `overread_skip` and `access_threshold`.  It bumps
    `tripwires_removed_by_threshold` and `tripwires_removed_by_ret_edge` in
    `counters`, a record of its own unless one is given, and
    `traps_delivered` for a trap it takes with its hit."""

    def __init__(self, config: SimConfig, counters: Optional[RunCounters] = None):
        self.config = config
        self.counters = counters or RunCounters()
        # trap pc -> granule base for delegated tripwires; these are the
        # machine's open trap slots, so a trap fires exactly where one is open
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
        report = BugReport(kind, fault.pc, fault.fault_address, fault.access.addrtag, memtag,
                           fault.regs_snapshot)
        if kind is BugKind.INTRA_GRANULE_OVERFLOW:
            granule = fault.fault_address & ~(GRANULE_SIZE - 1)
            report.addressable_bytes = memtag
            report.accessed_bytes_in_granule = fault.access.start + fault.access.size - granule
        return report

    def report_async(self, fault: Fault, drain_pc: int, mem: TaggedMemory, allocator) -> BugReport:
        """Imprecise report for a queued fault, surfaced at a kernel entry.

        Tripwires require sync mode, so an async mismatch is always a
        genuine bug under plain tag-check semantics: no benign analysis, and
        never an intra-granule label.  The memory tag is read at drain time
        and may be stale.
        """
        memtag = mem.get_granule_tag(fault.fault_address)
        kind = self._classify(fault.access.addrtag, memtag, 0xFF, allocator)
        return self.make_bug_report(fault._replace(pc=drain_pc), kind, memtag)

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
        """Let a benign sync-mode mismatch through; True means resume the access.

        Takes the primitives `Machine.run` holds: the access at `pc` spans
        `size` bytes from untagged `start`, and `address` is the lowest
        accessed address in the first mismatching granule.  `next_in_call`
        says slot `pc + 1` runs in the same `run` call.  A benign hit is
        counted, then rearmed at once (its trap counted here), delegated or
        retired, and returns True.  False leaves every state untouched: the
        mismatch is a bug, and the machine hands it to `handle_tag_mismatch`.
        """
        config = self.config
        if not config.tripwires:
            return False  # plain tag-check semantics: every mismatch is a bug
        outcome = pass_benign_hit(mem, address, start, size, addrtag,
                                  overread_ok and config.overread_skip,
                                  config.access_threshold, machine, pc, next_in_call)
        if outcome == REARMED:
            self.counters.traps_delivered += 1   # the trap at pc + 1, taken with the hit
        elif outcome == DECLINED:
            return False
        elif outcome == DELEGATED:
            self.delegations[pc + 1] = address & GRANULE_MASK  # the granule wears the real tag
        elif outcome == RETIRED_BY_THRESHOLD:
            self.counters.tripwires_removed_by_threshold += 1
        else:   # no slot for the revocation trap (ret/halt/end)
            self.counters.tripwires_removed_by_ret_edge += 1
        return True

    def handle_tag_mismatch(self, fault: Fault, mem: TaggedMemory, allocator,
                            machine: Machine) -> BugReport:
        """Label and report a sync-mode mismatch that `pass_benign_mismatch`
        declined.

        `machine` is unused.  The signature stays as it is because the
        benchmark's tracer (`bench/tracer.py`, `_wrap_mismatch`) wraps this
        method and calls it with these five arguments positionally.
        """
        memtag, metadata = read_tripwire(mem, fault.fault_address)
        if not self.config.tripwires:
            metadata = 0xFF  # no tripwire can be this pointer's: never intra-granule
        kind = self._classify(fault.access.addrtag, memtag, metadata, allocator)
        return self.make_bug_report(fault, kind, memtag)

    def handle_trap(self, machine: Machine, mem: TaggedMemory, allocator) -> None:
        """Revocation: restore the tripwire and release the trap slot by
        dropping its delegation.

        Needs only the delegation entry and memory; `allocator` is unused.
        The signature stays as it is because the benchmark's tracer
        (`bench/tracer.py`, `_wrap_trap`) wraps this method and calls it with
        these four arguments positionally.
        """
        pc = machine.pc
        granule = self.delegations.pop(pc, None)
        if granule is None:
            raise ProtocolError(f"trap at pc {pc} with no delegated tripwire")
        revoke_tripwire(mem, granule)
