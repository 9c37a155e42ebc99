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
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .memory import ADDRESS_MASK, GRANULE_SIZE, MASK64, TAG_SHIFT, TaggedMemory

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


@dataclass(frozen=True)
class Instruction:
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
    line: int = field(default=0, compare=False)

    @property
    def is_access(self) -> bool:
        return self.kind in (Opcode.LOAD, Opcode.STORE)

    @property
    def access_size(self) -> int:
        return self.width * self.pair


@dataclass(frozen=True)
class AccessDescriptor:
    start: int            # untagged start address
    size: int             # width * pair bytes
    addrtag: int          # bits [59:56] of the effective pointer
    pc: int
    overread_ok: bool = False


@dataclass(frozen=True)
class Fault:
    pc: int                       # faulting instruction (precise in sync mode)
    fault_address: int            # lowest accessed address in the first mismatching granule
    regs_snapshot: Tuple[int, ...]
    access: AccessDescriptor


class Mode(enum.Enum):
    OFF = "off"
    ASYNC = "async"
    SYNC = "sync"


class TrapUnavailable(Exception):
    """The requested trap slot cannot hold a breakpoint (ret/halt/end)."""


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
        self.traps: Set[int] = set()
        self.pending_async: List[Fault] = []
        self.counters = MachineCounters()

    # -- decoding and checking ------------------------------------------

    def decode(self, instr: Instruction) -> AccessDescriptor:
        """Effective address and tag for a load/store.

        The tag comes from bits [59:56] of the full 64-bit base+offset sum,
        so a register offset with a tagged top byte participates in the
        address tag, matching hardware address arithmetic.
        """
        if not instr.is_access:
            raise TraceRuntimeError(f"decode of non-access instruction {instr.kind}")
        off = self.regs[instr.offset_reg] if instr.offset_reg is not None else instr.offset
        effective = (self.regs[instr.base] + off) & MASK64
        return AccessDescriptor(
            start=effective & ADDRESS_MASK,
            size=instr.access_size,
            addrtag=(effective >> TAG_SHIFT) & 0xF,
            pc=self.pc,
            overread_ok=instr.overread_ok,
        )

    def tag_check(self, desc: AccessDescriptor, mem: TaggedMemory) -> Optional[Fault]:
        """First mismatching granule of the access, in ascending order."""
        g = desc.start & ~(GRANULE_SIZE - 1)
        end = desc.start + desc.size
        while g < end:
            if mem.get_granule_tag(g) != desc.addrtag:
                return Fault(self.pc, max(desc.start, g), tuple(self.regs), desc)
            g += GRANULE_SIZE
        return None

    # -- traps -----------------------------------------------------------

    def set_trap(self, pc: int) -> None:
        if pc >= len(self.program.instructions):
            raise TrapUnavailable(f"no instruction slot at {pc}")
        if self.program.instructions[pc].kind in (Opcode.RET, Opcode.HALT):
            raise TrapUnavailable(f"cannot trap a {self.program.instructions[pc].kind.value} slot")
        self.traps.add(pc)

    def clear_trap(self, pc: int) -> None:
        self.traps.discard(pc)

    # -- execution --------------------------------------------------------

    def _execute_access(self, instr: Instruction, desc: AccessDescriptor,
                        mem: TaggedMemory) -> None:
        for i in range(instr.pair):
            addr = desc.start + i * instr.width
            if instr.kind is Opcode.LOAD:
                chunk = mem.read_bytes(addr, instr.width)
                # width 16 models a 128-bit register lane; ours are 64-bit,
                # so the register gets the low 8 bytes
                self.regs[instr.dst + i] = int.from_bytes(chunk[:8], "little")
            else:
                value = self.regs[instr.src + i].to_bytes(8, "little")
                data = value[:instr.width] if instr.width <= 8 else value + bytes(8)
                mem.write_bytes(addr, data)

    def _drain_async(self, mem: TaggedMemory, allocator, detector) -> Optional[RunEnd]:
        if not self.pending_async:
            return None
        fault = self.pending_async[0]
        self.pending_async.clear()
        report = detector.report_async(fault, self.pc, mem, allocator)
        return RunEnd("BugReported", report)

    def step(self, mem: TaggedMemory, allocator, detector) -> Optional[RunEnd]:
        """Execute one instruction; None means keep going."""
        if not 0 <= self.pc < len(self.program.instructions):
            raise TraceRuntimeError(f"pc {self.pc} outside program")

        if self.pc in self.traps:
            self.counters.traps_delivered += 1
            detector.handle_trap(self, mem, allocator)

        instr = self.program.instructions[self.pc]
        self.counters.instructions_executed += 1

        if instr.is_access:
            desc = self.decode(instr)
            fault = self.tag_check(desc, mem) if self.mode is not Mode.OFF else None
            if fault is None:
                self._execute_access(instr, desc, mem)
            elif self.mode is Mode.SYNC:
                self.counters.faults_delivered += 1
                report = detector.handle_tag_mismatch(fault, mem, allocator, self)
                if report is not None:
                    return RunEnd("BugReported", report)
                self._execute_access(instr, desc, mem)  # resume: access commits fully
            else:
                self.counters.faults_delivered += 1
                self.pending_async.append(fault)
                self._execute_access(instr, desc, mem)  # silent corruption until drained
        elif instr.kind is Opcode.MOV:
            self.regs[instr.dst] = instr.imm & MASK64
        elif instr.kind is Opcode.ADD:
            self.regs[instr.dst] = (self.regs[instr.src] + instr.imm) & MASK64
        elif instr.kind is Opcode.ALLOC:
            self.regs[instr.dst] = allocator.allocate(instr.imm).raw
        elif instr.kind is Opcode.FREE:
            mismatch = allocator.free(self.regs[instr.src])
            if mismatch is not None:
                report = detector.report_free_mismatch(mismatch, self.pc, tuple(self.regs))
                return RunEnd("BugReported", report)
        elif instr.kind is Opcode.SYSCALL:
            if self.mode is Mode.ASYNC:
                end = self._drain_async(mem, allocator, detector)
                if end is not None:
                    return end
        elif instr.kind is Opcode.RET:
            pass  # function-boundary marker; execution falls through
        elif instr.kind is Opcode.HALT:
            if self.mode is Mode.ASYNC:
                end = self._drain_async(mem, allocator, detector)
                if end is not None:
                    return end
            return RunEnd("CleanHalt")

        self.pc += 1
        return None
