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
page lookup), and the byte move.  A load or store within one page moves
all its bytes, both registers of a pair included, with one page lookup and
one `struct` call (`<Q`, `<QQ`, `<Q8xQ8x`, ... by width and pair).

A checked access finds its first mismatching address by that inline walk,
or by `tag_check(decode(instr))` when it crosses a page edge or runs past
the top of the address space.  Either way a mismatch reaches one site in
the loop, which counts the fault once.  In sync mode that site takes the
one benign verdict from `Detector.pass_benign_mismatch`, given the access
as plain values: a benign tripwire hit resumes the access without a
descriptor or a `Fault`, and anything else is a bug, whose `Fault` goes
to `Detector.handle_tag_mismatch` for its report.  In async mode the first
mismatch becomes the pending fault.  A later one before the next kernel
entry is counted but not reported, so within a page it builds no `Fault`.
`self.pc` is brought up to date whenever the loop calls out, because the
handlers read it.

`decode`, `tag_check`, `TaggedMemory.read_bytes` and
`TaggedMemory.write_bytes` stay as methods.  They are the slow path, and
only an access across a page edge or past the top of the address space
reaches it: `decode` + `tag_check` for its check, and one `read_bytes` or
`write_bytes` call for its bytes, which the same `struct` call unpacks
from or packs into a buffer.  The tests also check them directly as the
reference for the inlined path, and the benchmark's tracer wraps them as
spans.
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


# An access across a page edge and every fault build an AccessDescriptor,
# so it is a named tuple built with `tuple.__new__` directly: one C call,
# where a frozen dataclass runs a Python `__init__` with one
# `object.__setattr__` per field.
class AccessDescriptor(NamedTuple):
    start: int            # untagged start address
    size: int             # width * pair bytes
    addrtag: int          # bits [59:56] of the effective pointer


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
# Moving a whole access within a page, by width: one `struct` call per
# load or store, keyed by pair count.  Width 16 models a 128-bit register
# lane; ours are 64-bit, so a load fills each register from its lane's low
# 8 bytes and a store writes each register zero-extended.  A `struct` move
# builds no intermediate bytes object.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q", 16: "Q8x"}
_UNPACK1 = {w: struct.Struct("<" + c).unpack_from for w, c in _FORMATS.items()}
_UNPACK2 = {w: struct.Struct("<" + c * 2).unpack_from for w, c in _FORMATS.items()}
_PACK1 = {w: struct.Struct("<" + c).pack_into for w, c in _FORMATS.items()}
_PACK2 = {w: struct.Struct("<" + c * 2).pack_into for w, c in _FORMATS.items()}
_LANE_MASK = {w: (1 << 8 * min(w, 8)) - 1 for w in WIDTHS}   # register bits a store writes
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
        # the first async fault since the last kernel entry; later ones are
        # not reported, so they are not kept
        self.pending_async: Optional[Fault] = None
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
        kind, _, _, base, offset_reg, offset, width, pair, _, _ = instr
        if kind is not _LOAD and kind is not _STORE:
            raise TraceRuntimeError(f"decode of non-access instruction {kind}")
        regs = self.regs
        effective = regs[base] + (offset if offset_reg is None else regs[offset_reg])
        return _new_descriptor(AccessDescriptor, (
            effective & ADDRESS_MASK,
            width * pair,
            (effective >> TAG_SHIFT) & 0xF,
        ))

    def tag_check(self, desc: AccessDescriptor, mem: TaggedMemory) -> Optional[Fault]:
        """First mismatching granule of the access, in ascending order.

        Indexes `mem.tags` (page index -> one tag byte per granule)
        directly, one page lookup per granule.  The granule index is masked
        as `get_granule_tag` masks an address, so an access running past the
        top of the address space checks granule 0.  `run` checks an access
        within one tag page inline and comes here only for an access across
        a page edge.
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

    def _fault(self, address: int, start: int, size: int, addrtag: int) -> Fault:
        """The fault `tag_check` would build for a mismatch `run` found inline."""
        return _new_fault(Fault, (self.pc, address, tuple(self.regs), _new_descriptor(
            AccessDescriptor, (start, size, addrtag))))

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
        fault = self.pending_async
        if fault is None:
            return None
        self.pending_async = None
        return RunEnd("BugReported", detector.report_async(fault, self.pc, mem, allocator))

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
                    size = width * pair
                    # An access within one granule whose tag matches passes
                    # on one page lookup.  Any other access finds its first
                    # mismatching address: within one tag page by walking
                    # the granules it touches on that page, across a page
                    # edge with `tag_check`.  A mismatch then has one site.
                    if checking and (
                            (address & _GRANULE_OFFSET_MASK) + size > GRANULE_SIZE
                            or (tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE)[
                                (address & PAGE_MASK) >> GRANULE_SHIFT]
                            != (effective >> TAG_SHIFT) & 0xF):
                        addrtag = (effective >> TAG_SHIFT) & 0xF
                        at = address & PAGE_MASK
                        self.pc = pc
                        if at + size <= PAGE_SIZE:
                            fault = None   # built only for a bug or a pending async fault
                            page = tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE
                            g = first = at >> GRANULE_SHIFT
                            last = (at + size - 1) >> GRANULE_SHIFT
                            while g < last and page[g] == addrtag:
                                g += 1
                            fault_address = (None if page[g] == addrtag
                                             else address if g == first
                                             else address & ~PAGE_MASK | g << GRANULE_SHIFT)
                        else:
                            fault = self.tag_check(self.decode(instr), mem)
                            fault_address = None if fault is None else fault.fault_address
                        if fault_address is not None:
                            counters.faults_delivered += 1
                            if mode is _SYNC:
                                if not detector.pass_benign_mismatch(
                                        pc, fault_address, address, size, addrtag, overread_ok,
                                        mem, self):
                                    return RunEnd("BugReported", detector.handle_tag_mismatch(
                                        fault or self._fault(fault_address, address, size,
                                                             addrtag),
                                        mem, allocator, self))
                                # benign: resume, the access commits fully
                            elif self.pending_async is None:
                                # silent corruption until drained; the first fault wins
                                self.pending_async = fault or self._fault(
                                    fault_address, address, size, addrtag)
                    # An access within a page is one struct move on the page.
                    # One across a page edge, or past the top of the address
                    # space, moves through one `read_bytes`/`write_bytes` call
                    # and the same struct on a buffer.
                    at = address & PAGE_MASK
                    if kind is _LOAD:
                        if at + size <= PAGE_SIZE:
                            page = data.get(address >> PAGE_SHIFT) or _ZERO_PAGE
                        else:
                            page, at = mem.read_bytes(address, size), 0
                        if pair == 1:
                            regs[dst] = _UNPACK1[width](page, at)[0]
                        else:
                            regs[dst], regs[dst + 1] = _UNPACK2[width](page, at)
                    else:
                        if at + size <= PAGE_SIZE:
                            page = data.get(address >> PAGE_SHIFT)
                            if page is None:
                                page = mem.data_page(address >> PAGE_SHIFT)
                            buffer = None
                        else:
                            page = buffer = bytearray(size)
                            at = 0
                        lane_mask = _LANE_MASK[width]
                        if pair == 1:
                            _PACK1[width](page, at, regs[src] & lane_mask)
                        else:
                            _PACK2[width](page, at, regs[src] & lane_mask,
                                          regs[src + 1] & lane_mask)
                        if buffer is not None:
                            mem.write_bytes(address, buffer)
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
