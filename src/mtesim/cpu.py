"""Register machine executing trace programs with per-access tag checks.

The machine has 32 64-bit registers (index 31 doubles as the stack
pointer), a linear program, and one of three check modes:

  off    no tag checks at all
  sync   a mismatch faults precisely, before any byte of the access commits
  async  a mismatch sets a pending flag and the access executes anyway; the
         next kernel entry (syscall or halt) reports only its own pc and
         registers, as hardware's status bit names no address or tag

Only loads and stores can fault.  Traps model breakpoints patched over an
instruction slot: a trap fires before its instruction executes, and the
instruction runs normally afterwards.  Trap slots cannot be placed on
`ret` or `halt`, nor past the end of the program.

`Machine.run` is the interpreter: one `for` over the program's slice from
pc to the end of the instruction budget, which executes it until it halts,
reports a bug or uses up the budget.  Programs are straight-line, so pc
alone gives the budget and the instruction count: a call that starts at
`start` and ends at `pc` executed `pc - start` instructions, plus the one
that ended the run with a verdict.  `Simulation.run` calls it once per
run, and `step` is `run` with a budget of one, so single-stepping executes
the same code.  The loop keeps registers, trap slots, memory pages and
mode in locals, and inlines the access path: the address and tag of a
load or store, the tag check of every granule an access touches, and the
byte move.  A load or store within one page moves all its bytes, both
registers of a pair included, with one page lookup and one `struct` call
(`<Q`, `<QQ`, `<Q8xQ8x`, ... by width and pair).

A checked access finds its first mismatching address by one walk over the
granules it touches on its tag page.  An access is at most 32 bytes, so
one that crosses a page edge, or wraps past the top of the address space,
touches two pages, and the walk takes the next tag page with it.  A
mismatch reaches one site in the loop, which counts the fault once.  In
sync mode that site takes the one benign verdict from
`Detector.pass_benign_mismatch`, given the access as plain values and
whether slot `pc + 1` runs in the same call (`pc + 1 < stop`: the budget
has not ended at `pc`): a benign tripwire hit resumes the access without a
descriptor or a `Fault`, and anything else is a bug.  The loop builds the
bug's `Fault` itself, and the `RunEnd` of every bug, each with one
`tuple.__new__` call, and the `Fault` goes to
`Detector.handle_tag_mismatch` for its report.  A hit whose trap would
fire in the same call is taken whole at that site, the detector counting
its trap, so the loop's trap dispatch sees only the delegations of an
allow-listed overread or of a machine paused right after a hit;
`Detector.handle_trap` counts each trap it revokes.  In async mode a
mismatch is counted and sets `async_fault_pending`, and builds no `Fault`.
The loop keeps pc in a local.  It writes `self.pc` before each call into
the detector that is given the machine (`handle_trap`,
`pass_benign_mismatch`, and `handle_tag_mismatch` through the `Fault`),
because the detector and the benchmark's tracer read it there, and once
more when the call ends, however it ends.  The allocator never reads it.

An access across a page edge, or past the top of the address space,
moves its bytes through one `TaggedMemory.read_bytes` or `write_bytes`
call, which the same `struct` call unpacks from or packs into a buffer.
`decode` and `tag_check` have no caller in the library: they state the
address and the check plainly, one granule at a time through
`TaggedMemory.get_granule_tag`, the step property holds the loop to them,
and the benchmark's tracer wraps them by name.  They go with the next
change to the benchmark.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .memory import (_PAGE_INDEX_MASK, ADDRESS_MASK, GRANULE_OFFSET_MASK, GRANULE_SHIFT,
                     GRANULE_SIZE, GRANULES_PER_PAGE, MASK64, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE,
                     TAG_SHIFT, TaggedMemory)

NUM_REGS = 32


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
# Which fields an opcode uses is stated once, by the text format: the
# operand table `trace._OPERANDS` and, for `ld` and `st`, `trace._ACCESS_FORMS`.
class Instruction(NamedTuple):
    kind: Opcode
    dst: int = 0              # register written
    src: int = 0              # register read
    base: int = 0             # base register of an access
    offset_reg: Optional[int] = None
    offset: int = 0           # immediate offset when offset_reg is None
    width: int = 8
    pair: int = 1
    imm: int = 0              # immediate operand
    overread_ok: bool = False

    @property
    def access_size(self) -> int:
        return self.width * self.pair


# Every fault builds an AccessDescriptor, so it is a named tuple built with
# `tuple.__new__` directly: one C call, where a frozen dataclass runs a
# Python `__init__` with one `object.__setattr__` per field.
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


# Mode by value: a dict lookup, where `Mode(value)` goes through
# `EnumMeta.__call__` at about 18 times the cost.
MODES = {m.value: m for m in Mode}


_LOAD, _STORE, _MOV, _ADD = Opcode.LOAD, Opcode.STORE, Opcode.MOV, Opcode.ADD
_ALLOC, _FREE, _SYSCALL, _RET, _HALT = (Opcode.ALLOC, Opcode.FREE, Opcode.SYSCALL,
                                        Opcode.RET, Opcode.HALT)
_OFF, _SYNC = Mode.OFF, Mode.SYNC
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


class TraceRuntimeError(Exception):
    """Malformed execution state; not a memory-safety verdict."""


# A named tuple, as `Fault` is: a frozen dataclass sets each field through
# `object.__setattr__`.
class RunEnd(NamedTuple):
    outcome: str                  # "CleanHalt" | "BugReported"
    report: Optional[object] = None  # BugReport when outcome == "BugReported"


_CLEAN_HALT = RunEnd("CleanHalt")
# as for `Fault`: the named tuple's own `__new__` is a Python function
_new_end = tuple.__new__


@dataclass
class RunCounters:
    """Every counter of a run, in run-report order.  A `Simulation` shares
    one record among its machine, allocator and detector, and each of them
    bumps its own fields."""

    instructions_executed: int = 0
    faults_delivered: int = 0
    traps_delivered: int = 0
    tripwires_armed: int = 0
    tripwires_removed_by_threshold: int = 0
    tripwires_removed_by_ret_edge: int = 0
    allocations: int = 0
    frees: int = 0


class Machine:
    """Bumps `instructions_executed` and `faults_delivered` in `counters`,
    a record of its own unless one is given; the detector counts every
    trap, the ones `handle_trap` revokes and the ones taken with a hit."""

    def __init__(self, program, mode: Mode = Mode.SYNC, counters: Optional[RunCounters] = None):
        self.program = program
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = 0
        self.mode = mode
        # an async mismatch since the last kernel entry: one status bit
        self.async_fault_pending = False
        self.counters = counters or RunCounters()

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

        One `get_granule_tag` call per granule, which masks the address, so
        an access running past the top of the address space checks granule
        0; the fault address is left unmasked.  `run` makes the same check
        inline.
        """
        start, size, addrtag = desc
        first = start >> GRANULE_SHIFT
        for g in range(first, ((start + size - 1) >> GRANULE_SHIFT) + 1):
            if mem.get_granule_tag(g << GRANULE_SHIFT) != addrtag:
                return Fault(self.pc, start if g == first else g << GRANULE_SHIFT,
                             tuple(self.regs), desc)
        return None

    # -- traps -----------------------------------------------------------

    # The open trap slots are the detector's `delegations` (trap pc ->
    # granule): `run` fires a trap where that map has an entry, and the
    # detector adds and removes entries.

    def can_trap(self, pc: int) -> bool:
        """True when slot `pc` can hold a trap: an instruction, not ret or halt."""
        instructions = self.program
        if pc >= len(instructions):
            return False
        kind = instructions[pc].kind
        return kind is not _RET and kind is not _HALT

    # -- execution --------------------------------------------------------

    def step(self, mem: TaggedMemory, allocator, detector) -> Optional[RunEnd]:
        """Execute one instruction, as `run` with a budget of one; None
        means keep going.  The counting and pc rules are `run`'s."""
        return self.run(mem, allocator, detector, 1)

    def run(self, mem: TaggedMemory, allocator, detector, max_steps: int) -> Optional[RunEnd]:
        """Execute until the program halts or reports a bug, or until
        `max_steps` instructions have executed; None means the budget ran
        out first, with `pc` at the next instruction.

        `instructions_executed` grows by the instructions that completed
        plus the one that ended the run with a verdict, which leaves `pc`
        on it.  An instruction that raises, such as an `alloc` past the heap
        ceiling, is not counted, and `pc` stays on it.  Running past the
        last instruction, or starting at a negative pc, raises
        `TraceRuntimeError` naming that pc.
        """
        pc = start = self.pc
        if pc < 0:
            raise TraceRuntimeError(f"pc {pc} outside program")
        stop = pc + max_steps
        regs = self.regs
        delegations = detector.delegations
        tags, data = mem.tags, mem.data
        mode = self.mode
        checking = mode is not _OFF
        counters = self.counters
        end = None
        try:
            for instr in self.program[start:stop]:
                if delegations and pc in delegations:
                    self.pc = pc
                    detector.handle_trap(self, mem, allocator)
                kind, dst, src, base, offset_reg, offset, width, pair, imm, overread_ok = instr

                if kind is _LOAD or kind is _STORE:
                    # the address and tag as `decode` forms them
                    effective = regs[base] + (offset if offset_reg is None else regs[offset_reg])
                    address = effective & ADDRESS_MASK
                    size = width * pair
                    # An access within one granule whose tag matches passes
                    # on one page lookup.  Any other access walks the
                    # granules it touches to its first mismatching address,
                    # which has one site.
                    if checking and (
                            (address & GRANULE_OFFSET_MASK) + size > GRANULE_SIZE
                            or (tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE)[
                                (address & PAGE_MASK) >> GRANULE_SHIFT]
                            != (effective >> TAG_SHIFT) & 0xF):
                        addrtag = (effective >> TAG_SHIFT) & 0xF
                        at = address & PAGE_MASK
                        page = tags.get(address >> PAGE_SHIFT) or _UNTAGGED_PAGE
                        g = first = at >> GRANULE_SHIFT
                        last = (at + size - 1) >> GRANULE_SHIFT
                        if last >= GRANULES_PER_PAGE:
                            # across a page edge, or past the top of the
                            # address space to page 0: the next tag page too
                            page = page + (tags.get(((address >> PAGE_SHIFT) + 1)
                                                    & _PAGE_INDEX_MASK) or _UNTAGGED_PAGE)
                        while g < last and page[g] == addrtag:
                            g += 1
                        if page[g] != addrtag:
                            counters.faults_delivered += 1
                            if mode is _SYNC:
                                # past the top, the address is left unmasked,
                                # as `tag_check` leaves it
                                fault_address = (address if g == first else
                                                 (address & ~PAGE_MASK) + (g << GRANULE_SHIFT))
                                self.pc = pc
                                if not detector.pass_benign_mismatch(
                                        pc, fault_address, address, size, addrtag, overread_ok,
                                        mem, self, pc + 1 < stop):
                                    fault = _new_fault(Fault, (
                                        pc, fault_address, tuple(regs), _new_descriptor(
                                            AccessDescriptor, (address, size, addrtag))))
                                    end = _new_end(RunEnd, (
                                        "BugReported",
                                        detector.handle_tag_mismatch(fault, mem, allocator, self)))
                                    break
                                # benign: resume, the access commits fully
                            else:   # silent corruption until the next kernel entry
                                self.async_fault_pending = True
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
                    regs[dst] = allocator.allocate(imm)
                elif kind is _FREE:
                    if not allocator.free(regs[src]):
                        end = _new_end(RunEnd, ("BugReported", detector.report_free_mismatch(
                            regs[src], pc, tuple(regs), mem)))
                        break
                elif kind is _SYSCALL or kind is _HALT:
                    # a kernel entry surfaces the flag that only async mode sets
                    if self.async_fault_pending:
                        self.async_fault_pending = False
                        end = _new_end(RunEnd, (
                            "BugReported", detector.report_async(pc, tuple(regs))))
                        break
                    if kind is _HALT:
                        end = _CLEAN_HALT
                        break
                # `ret` is a function-boundary marker: execution falls through
                pc += 1
            else:
                if pc < stop:
                    raise TraceRuntimeError(f"pc {pc} outside program")
            return end
        finally:
            self.pc = pc
            counters.instructions_executed += pc - start + (end is not None)
