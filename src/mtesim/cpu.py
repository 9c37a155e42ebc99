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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .memory import (ADDRESS_MASK, GRANULE_SHIFT, GRANULE_SIZE, GRANULES_PER_PAGE, MASK64,
                     PAGE_MASK, PAGE_SHIFT, TAG_SHIFT, TaggedMemory)

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
    line: int = 0             # source line; not part of equality or hash

    @property
    def access_size(self) -> int:
        return self.width * self.pair

    # Compare as instructions, not as tuples: `line` is left out, and an
    # instruction never equals a plain tuple of the same fields.
    def __eq__(self, other):
        return isinstance(other, Instruction) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-1])


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


_LOAD, _STORE, _RET, _HALT = Opcode.LOAD, Opcode.STORE, Opcode.RET, Opcode.HALT
_OFF, _SYNC, _ASYNC = Mode.OFF, Mode.SYNC, Mode.ASYNC
_ZERO_LANE = bytes(8)   # upper half of a width-16 store
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
        kind = instr.kind
        if kind is not _LOAD and kind is not _STORE:
            raise TraceRuntimeError(f"decode of non-access instruction {kind}")
        regs = self.regs
        offset_reg = instr.offset_reg
        effective = regs[instr.base] + (instr.offset if offset_reg is None else regs[offset_reg])
        return _new_descriptor(AccessDescriptor, (
            effective & ADDRESS_MASK,
            instr.width * instr.pair,
            (effective >> TAG_SHIFT) & 0xF,
            self.pc,
            instr.overread_ok,
        ))

    def tag_check(self, desc: AccessDescriptor, mem: TaggedMemory) -> Optional[Fault]:
        """First mismatching granule of the access, in ascending order.

        Indexes `mem.tags` (page index -> one tag byte per granule)
        directly, one page lookup per granule; an access within one granule,
        the common case, takes a path of its own.  The granule index is
        masked as `get_granule_tag` masks an address, so an access running
        past the top of the address space checks granule 0.
        """
        start, size, addrtag = desc.start, desc.size, desc.addrtag
        tags = mem.tags
        if (start & _GRANULE_OFFSET_MASK) + size <= GRANULE_SIZE:
            page = tags.get(start >> PAGE_SHIFT)
            if (0 if page is None else page[(start & PAGE_MASK) >> GRANULE_SHIFT]) == addrtag:
                return None
            return _new_fault(Fault, (self.pc, start, tuple(self.regs), desc))
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
    # granule): `step` fires a trap where that map has an entry, and the
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
        """Execute one instruction; None means keep going."""
        pc = self.pc
        instructions = self.program.instructions
        if not 0 <= pc < len(instructions):
            raise TraceRuntimeError(f"pc {pc} outside program")

        counters = self.counters
        if pc in detector.delegations:
            counters.traps_delivered += 1
            detector.handle_trap(self, mem, allocator)

        instr = instructions[pc]
        counters.instructions_executed += 1
        kind = instr.kind
        regs = self.regs

        if kind is _LOAD or kind is _STORE:
            desc = self.decode(instr)
            mode = self.mode
            if mode is not _OFF:
                fault = self.tag_check(desc, mem)
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
            addr, width = desc.start, instr.width
            if kind is _LOAD:
                dst = instr.dst
                for i in range(instr.pair):
                    chunk = mem.read_bytes(addr + i * width, width)
                    # width 16 models a 128-bit register lane; ours are
                    # 64-bit, so the register gets the low 8 bytes
                    regs[dst + i] = int.from_bytes(chunk[:8], "little")
            else:
                src = instr.src
                for i in range(instr.pair):
                    value = regs[src + i].to_bytes(8, "little")
                    mem.write_bytes(addr + i * width,
                                    value[:width] if width <= 8 else value + _ZERO_LANE)
        elif kind is Opcode.MOV:
            regs[instr.dst] = instr.imm & MASK64
        elif kind is Opcode.ADD:
            regs[instr.dst] = (regs[instr.src] + instr.imm) & MASK64
        elif kind is Opcode.ALLOC:
            regs[instr.dst] = allocator.allocate(instr.imm)
        elif kind is Opcode.FREE:
            mismatch = allocator.free(regs[instr.src])
            if mismatch is not None:
                report = detector.report_free_mismatch(mismatch, pc, tuple(regs))
                return RunEnd("BugReported", report)
        elif kind is Opcode.SYSCALL:
            if self.mode is _ASYNC:
                end = self._drain_async(mem, allocator, detector)
                if end is not None:
                    return end
        elif kind is _RET:
            pass  # function-boundary marker; execution falls through
        elif kind is _HALT:
            if self.mode is _ASYNC:
                end = self._drain_async(mem, allocator, detector)
                if end is not None:
                    return end
            return RunEnd("CleanHalt")

        self.pc = pc + 1
        return None
