"""Trace program text format and synthetic workload generation.

One instruction per line, `#` starts a comment:

    alloc r<d> <size>
    free r<s>
    mov r<d> <imm>
    add r<d> r<a> <imm>
    ld r<d> [r<b>, #<imm>|r<i>] w<1|2|4|8|16> p<1|2> [overread_ok]
    st r<s> [r<b>, #<imm>|r<i>] w<...> p<...> [overread_ok]
    syscall
    ret
    halt

The last instruction must be `halt`.  `render_program` emits a canonical
form that parses back to the same program.

The workload generator builds single-bug micro-programs (and benign
stress programs) from a weighted size distribution, deterministically
under a seed.  Every generated program carries a multi-allocation
preamble so arming and sampling see more than one allocation.
`check_program_bounds` is an independent exact-bounds oracle used to
validate generated corpora: it tracks pointers symbolically and knows
nothing about the allocator's layout or tags.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .allocator import size_class
from .cpu import PAIRS, WIDTHS, Instruction, Opcode
from .memory import GRANULE_SIZE


class TraceParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class Program:
    instructions: Tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)


def _parse_reg(token: str, line_no: int) -> int:
    if not token.startswith("r") or not token[1:].isdigit():
        raise TraceParseError(line_no, f"expected register, got {token!r}")
    idx = int(token[1:])
    if idx >= 32:
        raise TraceParseError(line_no, f"register out of range: {token}")
    return idx


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise TraceParseError(line_no, f"invalid {what}: {token!r}") from None


def _parse_access(kind: Opcode, tokens: List[str], line_no: int) -> Instruction:
    if len(tokens) < 5:
        raise TraceParseError(line_no, f"malformed {kind.value} instruction")
    reg = _parse_reg(tokens[1], line_no)
    base = _parse_reg(tokens[2], line_no)
    off_tok = tokens[3]
    offset_reg: Optional[int] = None
    offset = 0
    if off_tok.startswith("#"):
        offset = _parse_int(off_tok[1:], line_no, "offset")
    else:
        offset_reg = _parse_reg(off_tok, line_no)
    width = pair = None
    overread_ok = False
    for tok in tokens[4:]:
        if tok.startswith("w"):
            width = _parse_int(tok[1:], line_no, "width")
            if width not in WIDTHS:
                raise TraceParseError(line_no, f"invalid width {width}")
        elif tok.startswith("p") and tok != "pair":
            pair = _parse_int(tok[1:], line_no, "pair count")
            if pair not in PAIRS:
                raise TraceParseError(line_no, f"invalid pair count {pair}")
        elif tok == "overread_ok":
            overread_ok = True
        else:
            raise TraceParseError(line_no, f"unexpected token {tok!r}")
    if width is None or pair is None:
        raise TraceParseError(line_no, "access needs w<width> and p<pair>")
    if pair == 2 and reg >= 31:
        raise TraceParseError(line_no, f"pair transfer needs registers r{reg} and r{reg + 1}")
    common = dict(base=base, offset_reg=offset_reg, offset=offset, width=width,
                  pair=pair, overread_ok=overread_ok, line=line_no)
    if kind is Opcode.LOAD:
        return Instruction(Opcode.LOAD, dst=reg, **common)
    return Instruction(Opcode.STORE, src=reg, **common)


_COMMENT = re.compile(r"#(?![\d-])")  # '#' starts a comment unless it prefixes an immediate


def parse_program(text: str) -> Program:
    instructions: List[Instruction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        tokens = line.replace("[", " ").replace("]", " ").replace(",", " ").split()
        mnemonic = tokens[0]
        if mnemonic == "alloc":
            if len(tokens) != 3:
                raise TraceParseError(line_no, "alloc needs a register and a size")
            size = _parse_int(tokens[2], line_no, "size")
            if size < 0:
                raise TraceParseError(line_no, f"invalid size {size}")
            instructions.append(Instruction(Opcode.ALLOC, dst=_parse_reg(tokens[1], line_no),
                                            imm=size, line=line_no))
        elif mnemonic == "free":
            if len(tokens) != 2:
                raise TraceParseError(line_no, "free needs a register")
            instructions.append(Instruction(Opcode.FREE, src=_parse_reg(tokens[1], line_no),
                                            line=line_no))
        elif mnemonic == "mov":
            if len(tokens) != 3:
                raise TraceParseError(line_no, "mov needs a register and an immediate")
            instructions.append(Instruction(Opcode.MOV, dst=_parse_reg(tokens[1], line_no),
                                            imm=_parse_int(tokens[2], line_no, "immediate"),
                                            line=line_no))
        elif mnemonic == "add":
            if len(tokens) != 4:
                raise TraceParseError(line_no, "add needs two registers and an immediate")
            instructions.append(Instruction(Opcode.ADD, dst=_parse_reg(tokens[1], line_no),
                                            src=_parse_reg(tokens[2], line_no),
                                            imm=_parse_int(tokens[3], line_no, "immediate"),
                                            line=line_no))
        elif mnemonic == "ld":
            instructions.append(_parse_access(Opcode.LOAD, tokens, line_no))
        elif mnemonic == "st":
            instructions.append(_parse_access(Opcode.STORE, tokens, line_no))
        elif mnemonic in ("syscall", "ret", "halt"):
            if len(tokens) != 1:
                raise TraceParseError(line_no, f"{mnemonic} takes no operands")
            instructions.append(Instruction(Opcode(mnemonic), line=line_no))
        else:
            raise TraceParseError(line_no, f"unknown mnemonic {mnemonic!r}")
    if not instructions:
        raise TraceParseError(0, "empty program")
    if instructions[-1].kind is not Opcode.HALT:
        raise TraceParseError(instructions[-1].line, "program must end with halt")
    return Program(tuple(instructions))


def render_instruction(instr: Instruction) -> str:
    k = instr.kind
    if k is Opcode.ALLOC:
        return f"alloc r{instr.dst} {instr.imm}"
    if k is Opcode.FREE:
        return f"free r{instr.src}"
    if k is Opcode.MOV:
        return f"mov r{instr.dst} {instr.imm}"
    if k is Opcode.ADD:
        return f"add r{instr.dst} r{instr.src} {instr.imm}"
    if k in (Opcode.LOAD, Opcode.STORE):
        reg = instr.dst if k is Opcode.LOAD else instr.src
        off = f"r{instr.offset_reg}" if instr.offset_reg is not None else f"#{instr.offset}"
        out = f"{k.value} r{reg} [r{instr.base}, {off}] w{instr.width} p{instr.pair}"
        if instr.overread_ok:
            out += " overread_ok"
        return out
    return k.value


def render_program(program: Program) -> str:
    return "\n".join(render_instruction(i) for i in program.instructions) + "\n"


# ---------------------------------------------------------------------------
# Independent exact-bounds oracle


@dataclass(frozen=True)
class _SymPtr:
    alloc_id: int
    offset: int


@dataclass(frozen=True)
class BoundsViolation:
    pc: int
    reason: str


def check_program_bounds(program: Program) -> List[BoundsViolation]:
    """Flag accesses outside exact allocation bounds and bad frees.

    Registers hold either plain integers or symbolic (allocation, offset)
    pointers; allocations track only their requested size and liveness.
    Loads produce opaque integers, so programs must not reuse loaded
    values as pointers (generated workloads never do).
    """
    regs: Dict[int, Union[int, _SymPtr]] = {i: 0 for i in range(32)}
    sizes: Dict[int, int] = {}
    live: Dict[int, bool] = {}
    violations: List[BoundsViolation] = []
    next_id = 0

    for pc, instr in enumerate(program.instructions):
        k = instr.kind
        if k is Opcode.ALLOC:
            sizes[next_id] = instr.imm
            live[next_id] = True
            regs[instr.dst] = _SymPtr(next_id, 0)
            next_id += 1
        elif k is Opcode.FREE:
            v = regs[instr.src]
            if not isinstance(v, _SymPtr) or v.offset != 0:
                violations.append(BoundsViolation(pc, "free of a non-allocation value"))
            elif not live[v.alloc_id]:
                violations.append(BoundsViolation(pc, "double or stale free"))
            else:
                live[v.alloc_id] = False
        elif k is Opcode.MOV:
            regs[instr.dst] = instr.imm
        elif k is Opcode.ADD:
            v = regs[instr.src]
            if isinstance(v, _SymPtr):
                regs[instr.dst] = _SymPtr(v.alloc_id, v.offset + instr.imm)
            else:
                regs[instr.dst] = v + instr.imm
        elif k in (Opcode.LOAD, Opcode.STORE):
            base = regs[instr.base]
            off = instr.offset
            if instr.offset_reg is not None:
                ov = regs[instr.offset_reg]
                off = ov.offset if isinstance(ov, _SymPtr) else ov
            if isinstance(base, _SymPtr):
                lo = base.offset + off
                hi = lo + instr.access_size
                if not live[base.alloc_id]:
                    violations.append(BoundsViolation(pc, "use after free"))
                elif lo < 0 or hi > sizes[base.alloc_id]:
                    violations.append(BoundsViolation(
                        pc, f"access [{lo}, {hi}) outside size {sizes[base.alloc_id]}"))
            if k is Opcode.LOAD:
                for i in range(instr.pair):
                    regs[instr.dst + i] = 0
    return violations


# ---------------------------------------------------------------------------
# Workload generation


WORKLOAD_KINDS = ("intra", "cross", "uaf", "double_free", "benign")


class WorkloadError(Exception):
    pass


def check_size_distribution(size_distribution: Sequence[Tuple[int, float]]) -> None:
    """Reject a (size, weight) distribution that cannot be drawn from."""
    if not size_distribution:
        raise WorkloadError("empty size distribution")
    if any(w <= 0 for _, w in size_distribution):
        raise WorkloadError("size weights must be positive")
    if any(s < 1 for s, _ in size_distribution):
        raise WorkloadError("sizes must be >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    size_distribution: Tuple[Tuple[int, float], ...] = ((24, 1), (40, 1), (47, 1), (64, 1))
    count: int = 1
    seed: int = 0
    preamble_allocs: int = 4
    # cross-granule overflow: adjacent victim (deterministic with odd-even
    # tagging) or a far victim behind an untagged spacer (probabilistic)
    adjacent: bool = True
    # use-after-free: alloc/free cycles the region goes through before the
    # stale access; each cycle redraws the region's tag at its free
    reuse_cycles: int = 0
    # benign programs: number of random in-bounds accesses
    accesses: int = 8

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise WorkloadError(f"unknown workload kind {self.kind!r}")
        if self.count < 1:
            raise WorkloadError("count must be >= 1")
        for name in ("preamble_allocs", "reuse_cycles", "accesses"):
            if getattr(self, name) < 0:
                raise WorkloadError(f"{name} must be >= 0")
        check_size_distribution(self.size_distribution)
        if self.kind == "intra" and all(s % GRANULE_SIZE == 0 for s, _ in self.size_distribution):
            raise WorkloadError("intra-granule overflows need a size not divisible by 16")


def _draw_size(spec: WorkloadSpec, rng: random.Random) -> int:
    sizes = [s for s, _ in spec.size_distribution]
    weights = [w for _, w in spec.size_distribution]
    return rng.choices(sizes, weights=weights)[0]


def _draw_short_size(spec: WorkloadSpec, rng: random.Random) -> int:
    while True:
        s = _draw_size(spec, rng)
        if s % GRANULE_SIZE:
            return s


# register conventions inside generated programs
_PTR = 0        # scenario pointer
_VICTIM = 1     # victim / spacer pointers
_VAL = 4        # scratch value registers r4..r7
_CYCLE = 10     # reuse-cycle pointer
_PREAMBLE = 20  # preamble pointers r20..


def _preamble(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    for i in range(spec.preamble_allocs):
        lines.append(f"alloc r{_PREAMBLE + (i % 8)} {_draw_size(spec, rng)}")


def _benign_access(rng: random.Random, size: int, reg: int, lines: List[str]) -> None:
    choices = [(w, p) for w in WIDTHS for p in PAIRS if w * p <= size]
    width, pair = rng.choice(choices)
    off = rng.randint(0, size - width * pair)
    if rng.random() < 0.5:
        lines.append(f"mov r{_VAL} {rng.randint(0, 2**32)}")
        if pair == 2:
            lines.append(f"mov r{_VAL + 1} {rng.randint(0, 2**32)}")
        lines.append(f"st r{_VAL} [r{reg}, #{off}] w{width} p{pair}")
    else:
        lines.append(f"ld r{_VAL + 2} [r{reg}, #{off}] w{width} p{pair}")


def _gen_intra(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    size = _draw_short_size(spec, rng)
    lines.append(f"alloc r{_PTR} {size}")
    last_granule = size // GRANULE_SIZE * GRANULE_SIZE
    # end must exceed the requested size but stay inside the short granule
    options = []
    for width, pair in [(w, p) for w in WIDTHS for p in PAIRS]:
        a = width * pair
        if a > GRANULE_SIZE:
            continue
        lo = max(0, size - a + 1)
        hi = last_granule + GRANULE_SIZE - a
        if lo <= hi:
            options.append((width, pair, lo, hi))
    width, pair, lo, hi = rng.choice(options)
    off = rng.randint(lo, hi)
    if rng.random() < 0.5:
        lines.append(f"st r{_VAL} [r{_PTR}, #{off}] w{width} p{pair}")
    else:
        lines.append(f"ld r{_VAL} [r{_PTR}, #{off}] w{width} p{pair}")


def _gen_cross(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    attacker = _draw_size(spec, rng)
    victim = size_class(_draw_size(spec, rng))  # full granules only
    lines.append(f"alloc r{_PTR} {attacker}")
    skip = size_class(attacker)
    if not spec.adjacent:
        spacer = 65537  # untagged path breaks the tag-exclusion chain
        lines.append(f"alloc r{_VICTIM + 1} {spacer}")
        skip += size_class(spacer)
    lines.append(f"alloc r{_VICTIM} {victim}")
    width = rng.choice([w for w in WIDTHS if w <= GRANULE_SIZE])
    off = skip + rng.randint(0, GRANULE_SIZE - width)  # inside the victim's first granule
    lines.append(f"st r{_VAL} [r{_PTR}, #{off}] w{width} p1")


def _gen_uaf(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    size = _draw_size(spec, rng)
    lines.append(f"alloc r{_PTR} {size}")
    lines.append(f"mov r{_VAL} {rng.randint(0, 2**32)}")
    lines.append(f"st r{_VAL} [r{_PTR}, #0] w1 p1")
    lines.append(f"free r{_PTR}")
    for _ in range(spec.reuse_cycles):
        lines.append(f"alloc r{_CYCLE} {size}")
        lines.append(f"free r{_CYCLE}")
    lines.append(f"ld r{_VAL + 1} [r{_PTR}, #0] w1 p1")


def _gen_double_free(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    size = _draw_size(spec, rng)
    lines.append(f"alloc r{_PTR} {size}")
    lines.append(f"free r{_PTR}")
    lines.append(f"free r{_PTR}")


def _gen_benign(spec: WorkloadSpec, rng: random.Random, lines: List[str]) -> None:
    buffers = []
    for i in range(rng.randint(1, 3)):
        size = _draw_size(spec, rng)
        reg = 12 + i
        buffers.append((reg, size))
        lines.append(f"alloc r{reg} {size}")
    for _ in range(spec.accesses):
        reg, size = rng.choice(buffers)
        _benign_access(rng, size, reg, lines)
    for reg, _ in buffers:
        if rng.random() < 0.3:
            lines.append(f"free r{reg}")


_GENERATORS = {
    "intra": _gen_intra,
    "cross": _gen_cross,
    "uaf": _gen_uaf,
    "double_free": _gen_double_free,
    "benign": _gen_benign,
}


def generate_program(spec: WorkloadSpec, index: int) -> Program:
    rng = random.Random(f"{spec.seed}/workload/{spec.kind}/{index}")
    lines: List[str] = []
    _preamble(spec, rng, lines)
    _GENERATORS[spec.kind](spec, rng, lines)
    lines.append("halt")
    return parse_program("\n".join(lines) + "\n")


def generate_workload(spec: WorkloadSpec) -> List[Program]:
    """Deterministic corpus of `spec.count` programs."""
    return [generate_program(spec, i) for i in range(spec.count)]
