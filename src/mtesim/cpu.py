"""Register machine executing trace programs with per-access tag checks.

The machine has 32 64-bit registers (index 31 doubles as the stack
pointer), a linear program, and one of three check modes:

  off    no tag checks at all
  sync   a mismatch faults precisely, before any byte of the access commits
  async  a mismatch is queued and the access executes anyway; queued faults
         surface at the next kernel entry (syscall or halt) with the pc of
         that entry, not of the access

Only loads and stores can fault.  Traps model breakpoints patched over an
instruction slot: a trap fires before its instruction executes, and the
instruction runs normally afterwards.  Trap slots cannot be placed on
`ret` or `halt`, nor past the end of the program.

`Machine.run` is the interpreter: one loop that executes the program until
it halts, reports a bug or uses up its instruction budget.
`Simulation.run` calls it once per run, and `step` is `run` with a budget
of one, so single-stepping executes the same code.  The loop keeps the
program, registers, trap slots, memory pages and mode in locals, and
inlines the common access path: the address and tag of a load or store,
the tag check of every granule an access touches within one tag page (one
page lookup), and each lane's byte move within a page (one `struct` move
on the page).  In sync mode a mismatch found there goes to
`Detector.pass_benign_mismatch` as plain values (pc, fault address, start,
size, address tag, `overread_ok`), which passes a benign tripwire hit and
resumes the access without building a descriptor or a fault.
`self.pc` is brought up to date whenever the loop calls out, because the
handlers read it.

`decode`, `tag_check`, `TaggedMemory.read_bytes` and
`TaggedMemory.write_bytes` stay as methods.  They are the slow path, and
only these accesses reach it: one that crosses a page edge or runs past
the top of the address space (`decode` + `tag_check`, then
`Detector.handle_tag_mismatch` on a mismatch); a sync mismatch the
detector does not pass, that is a bug, whose `Fault` only `tag_check`
builds before `handle_tag_mismatch` reports it; an async mismatch, whose
fault is queued; and a lane across a page edge (`read_bytes` /
`write_bytes`).  The tests also check them directly as the reference for
the inlined path, and the benchmark's tracer wraps them as spans.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .memory import (ADDRESS_MASK, GRANULE_SHIFT, GRANULE_SIZE, GRANULES_PER_PAGE, MASK64,
                     PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, TAG_SHIFT, TaggedMemory)

NUM_REGS = 32
SP = 31


class Opcode(enum.Enum):
    LOAD = "ld"
    STORE = "st"
    MOV = "mov"
    ADD = "add"
    ALLOC = "alloc"
    FREE = "free"
    SYSCALL = "syscall"
    RET = "ret"
    HALT = "halt"


WIDTHS = (1, 2, 4, 8, 16)
PAIRS = (1, 2)


# A named tuple: generated programs build one per instruction for every
# trial, and a frozen dataclass costs several times as much to construct.
class Instruction(NamedTuple):
    kind: Opcode
    dst: int = 0              # destination register (ld/mov/add/alloc)
    src: int = 0              # source register (st/free) or add's operand register
    base: int = 0             # base register for ld/st
    offset_reg: Optional[int] = None
    offset: int = 0           # immediate offset when offset_reg is None
    width: int = 8
    pair: int = 1
    imm: int = 0              # mov/add immediate, alloc size
    overread_ok: bool = False

    @property
    def access_size(self) -> int:
        return self.width * self.pair


# Every load and store builds an AccessDescriptor, so it is a named tuple
# built with `tuple.__new__` directly: one C call, where a frozen dataclass
# runs a Python `__init__` with one `object.__setattr__` per field.
class AccessDescriptor(NamedTuple):
    start: int            # untagged start address
    size: int             # width * pair bytes
    addrtag: int          # bits [59:56] of the effective pointer
    pc: int
    overread_ok: bool = False


_new_descriptor = tuple.__new__


class Fault(NamedTuple):
    pc: int                       # faulting instruction (precise in sync mode)
    fault_address: int            # lowest accessed address in the first mismatching granule
    regs_snapshot: Tuple[int, ...]
    access: AccessDescriptor


_new_fault = tuple.__new__      # as for AccessDescriptor: one C call per fault


class Mode(enum.Enum):
    OFF = "off"
    ASYNC = "async"
    SYNC = "sync"


_LOAD, _STORE, _MOV, _ADD = Opcode.LOAD, Opcode.STORE, Opcode.MOV, Opcode.ADD
_ALLOC, _FREE, _SYSCALL, _RET, _HALT = (Opcode.ALLOC, Opcode.FREE, Opcode.SYSCALL,
                                        Opcode.RET, Opcode.HALT)
_OFF, _SYNC, _ASYNC = Mode.OFF, Mode.SYNC, Mode.ASYNC
_ZERO_LANE = bytes(8)   # upper half of a width-16 store
# Moving one lane within a page, by width.  Width 16 models a 128-bit
# register lane; ours are 64-bit, so a load fills the register from the
# lane's low 8 bytes and a store writes the register zero-extended.  A
# `struct` move builds no intermediate bytes object.
_UNPACK = {w: struct.Struct(f"<{c}").unpack_from
           for w, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"), (16, "Q"))}
_PACK = {w: struct.Struct(f"<{c}").pack_into
         for w, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"), (16, "Q8x"))}
_LANE_MASK = {w: (1 << 8 * min(w, 8)) - 1 for w in WIDTHS}   # register bits a store writes
_LANES = {1: (0,), 2: (0, 1)}     # register offset of each lane, by pair
# what an absent page reads as; never written
_ZERO_PAGE = bytes(PAGE_SIZE)
_UNTAGGED_PAGE = bytes(GRANULES_PER_PAGE)
_GRANULE_INDEX_MASK = ADDRESS_MASK >> GRANULE_SHIFT
_GRANULE_OFFSET_MASK = GRANULE_SIZE - 1
_GRANULE_PAGE_SHIFT = PAGE_SHIFT - GRANULE_SHIFT     # granule index -> page index
_PAGE_GRANULE_MASK = GRANULES_PER_PAGE - 1            # granule index -> index in its page


class TraceRuntimeError(Exception):
    """Malformed execution state; not a memory-safety verdict."""


@dataclass(frozen=True)
class RunEnd:
    outcome: str                  # "CleanHalt" | "BugReported"
    report: Optional[object] = None  # BugReport when outcome == "BugReported"


_CLEAN_HALT = RunEnd("CleanHalt")


@dataclass
class MachineCounters:
    instructions_executed: int = 0
    faults_delivered: int = 0
    traps_delivered: int = 0


class Machine:
    def __init__(self, program, mode: Mode = Mode.SYNC):
        self.program = program
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = 0
        self.mode = mode
        self.pending_async: List[Fault] = []
        self.counters = MachineCounters()

    # -- decoding and checking ------------------------------------------

    def decode(self, instr: Instruction) -> AccessDescriptor:
        """Effective address and tag for a load/store.

        The tag comes from bits [59:56] of the full base+offset sum, so a
        register offset with a tagged top byte participates in the address
        tag, matching hardware address arithmetic.  Those bits and the
        address bits below them read the same with or without wrapping the
        sum to 64 bits first, so the sum is not wrapped.
        """
        kind, _, _, base, offset_reg, offset, width, pair, _, overread_ok = instr
        if kind is not _LOAD and kind is not _STORE:
            raise TraceRuntimeError(f"decode of non-access instruction {kind}")
        regs = self.regs
        effective = regs[base] + (offset if offset_reg is None else regs[offset_reg])
        return _new_descriptor(AccessDescriptor, (
            effective & ADDRESS_MASK,
            width * pair,
            (effective >> TAG_SHIFT) & 0xF,
            self.pc,
            overread_ok,
        ))

    def tag_check(self, desc: AccessDescriptor, mem: TaggedMemory) -> Optional[Fault]:
        """First mismatching granule of the access, in ascending order.

        Indexes `mem.tags` (page index -> one tag byte per granule)
        directly, one page lookup per granule.  The granule index is masked
        as `get_granule_tag` masks an address, so an access running past the
        top of the address space checks granule 0.  `run` checks an access
        within one tag page inline and comes here only for an access across
        a page edge or to build the fault of a mismatch the detector did not
        pass.
        """
        start, size, addrtag = desc.start, desc.size, desc.addrtag
        tags = mem.tags
        first = start >> GRANULE_SHIFT
        for g in range(first, ((start + size - 1) >> GRANULE_SHIFT) + 1):
            index = g & _GRANULE_INDEX_MASK
            page = tags.get(index >> _GRANULE_PAGE_SHIFT)
            if (0 if page is None else page[index & _PAGE_GRANULE_MASK]) != addrtag:
                address = start if g == first else g << GRANULE_SHIFT
                return _new_fault(Fault, (self.pc, address, tuple(self.regs), desc))
        return None

    # -- traps -----------------------------------------------------------

    # The open trap slots are the detector's `delegations` (trap pc ->
    # granule): `run` fires a trap where that map has an entry, and the
    # detector adds and removes entries.

    def can_trap(self, pc: int) -> bool:
        """True when slot `pc` can hold a trap: an instruction, not ret or halt."""
        instructions = self.program.instructions
        if pc >= len(instructions):
            return False
        kind = instructions[pc].kind
        return kind is not _RET and kind is not _HALT

    # -- execution --------------------------------------------------------

    def _drain_async(self, mem: TaggedMemory, allocator, detector) -> Optional[RunEnd]:
        if not self.pending_async:
            return None
        fault = self.pending_async[0]
        self.pending_async.clear()
        report = detector.report_async(fault, self.pc, mem, allocator)
        return RunEnd("BugReported", report)

    def step(self, mem: TaggedMemory, allocator, detector) -> Optional[RunEnd]:
        """Execute one instruction, as `run` with a budget of one; None
        means keep going."""
        return self.run(mem, allocator, detector, 1)

    def run(self, mem: TaggedMemory, allocator, detector, max_steps: int) -> Optional[RunEnd]:
        """Execute until the program halts or reports a bug, or until
        `max_steps` instructions have executed; None means the budget ran
        out first, with `pc` at the next instruction."""
        pc = self.pc
        if pc < 0:
            raise TraceRuntimeError(f"pc {pc} outside program")
        instructions = self.program.instructions
        regs = self.regs
        delegations = detector.delegations
        tags, data = mem.tags, mem.data
        mode = self.mode
        checking = mode is not _OFF
        counters = self.counters
        executed = counters.instructions_executed
        stop = executed + max_steps
        try:
            while executed < stop:
                try:
                    instr = instructions[pc]
                except IndexError:
                    raise TraceRuntimeError(f"pc {pc} outside program") from None
                if pc in delegations:
                    self.pc = pc
                    counters.traps_delivered += 1
                    detector.handle_trap(self, mem, allocator)
                executed += 1
                kind, dst, src, base, offset_reg, offset, width, pair, imm, overread_ok = instr

                if kind is _LOAD or kind is _STORE:
                    # the address and tag as `decode` forms them
                    effective = regs[base] + (offset if offset_reg is None else regs[offset_reg])
                    address = effective & ADDRESS_MASK
                    # An access within one granule whose tag matches passes
                    # on one page lookup.  Any other access within one tag
                    # page checks each granule it touches on that page; a
                    # sync mismatch goes to the detector as primitives, and
                    # only one that is not benign, an async mismatch, or an
                    # access across a page edge goes to `tag_check`, which
                    # builds the fault.
                    if checking and (
                            (address & _GRANULE_OFFSET_MASK) + width * pair > GRANULE_SIZE
                            or (tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE)[
                                (address & PAGE_MASK) >> GRANULE_SHIFT]
                            != (effective >> TAG_SHIFT) & 0xF):
                        size = width * pair
                        at = address & PAGE_MASK
                        if at + size <= PAGE_SIZE:
                            addrtag = (effective >> TAG_SHIFT) & 0xF
                            page = tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE
                            g = first = at >> GRANULE_SHIFT
                            last = (at + size - 1) >> GRANULE_SHIFT
                            while g < last and page[g] == addrtag:
                                g += 1
                            fault = None
                            if page[g] != addrtag:
                                self.pc = pc
                                if mode is _SYNC and detector.pass_benign_mismatch(
                                        pc, address if g == first
                                        else address & ~PAGE_MASK | g << GRANULE_SHIFT,
                                        address, size, addrtag, overread_ok, mem, self):
                                    counters.faults_delivered += 1   # benign: resume
                                else:
                                    fault = self.tag_check(self.decode(instr), mem)
                        else:
                            self.pc = pc
                            fault = self.tag_check(self.decode(instr), mem)
                        if fault is not None:
                            counters.faults_delivered += 1
                            if mode is _SYNC:
                                report = detector.handle_tag_mismatch(fault, mem, allocator, self)
                                if report is not None:
                                    return RunEnd("BugReported", report)
                                # resume: the access commits fully
                            else:
                                # silent corruption until drained
                                self.pending_async.append(fault)
                    # A lane within a page is one struct move on the page; a
                    # lane across a page edge, or past the top of the address
                    # space, goes through `read_bytes`/`write_bytes`.
                    if kind is _LOAD:
                        unpack = _UNPACK[width]
                        for lane in _LANES[pair]:
                            at = address & PAGE_MASK
                            if at + width <= PAGE_SIZE:
                                page = data.get(address >> PAGE_SHIFT) or _ZERO_PAGE
                                regs[dst + lane] = unpack(page, at)[0]
                            else:
                                chunk = mem.read_bytes(address, width)
                                regs[dst + lane] = int.from_bytes(chunk[:8], "little")
                            address = (address + width) & ADDRESS_MASK
                    else:
                        pack, lane_mask = _PACK[width], _LANE_MASK[width]
                        for lane in _LANES[pair]:
                            at = address & PAGE_MASK
                            if at + width <= PAGE_SIZE:
                                page = data.get(address >> PAGE_SHIFT)
                                if page is None:
                                    page = mem.data_page(address >> PAGE_SHIFT)
                                pack(page, at, regs[src + lane] & lane_mask)
                            else:
                                value = regs[src + lane].to_bytes(8, "little")
                                mem.write_bytes(address, value[:width] if width <= 8
                                                else value + _ZERO_LANE)
                            address = (address + width) & ADDRESS_MASK
                elif kind is _MOV:
                    regs[dst] = imm & MASK64
                elif kind is _ADD:
                    regs[dst] = (regs[src] + imm) & MASK64
                elif kind is _ALLOC:
                    self.pc = pc
                    regs[dst] = allocator.allocate(imm)
                elif kind is _FREE:
                    self.pc = pc
                    mismatch = allocator.free(regs[src])
                    if mismatch is not None:
                        report = detector.report_free_mismatch(mismatch, pc, tuple(regs))
                        return RunEnd("BugReported", report)
                elif kind is _SYSCALL:
                    if mode is _ASYNC:
                        self.pc = pc
                        end = self._drain_async(mem, allocator, detector)
                        if end is not None:
                            return end
                elif kind is _RET:
                    pass  # function-boundary marker; execution falls through
                elif kind is _HALT:
                    if mode is _ASYNC:
                        self.pc = pc
                        end = self._drain_async(mem, allocator, detector)
                        if end is not None:
                            return end
                    return _CLEAN_HALT
                pc += 1
            return None
        finally:
            self.pc = pc
            counters.instructions_executed = executed
