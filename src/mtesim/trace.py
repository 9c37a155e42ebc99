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

`_OPERANDS` states the operands of every instruction but `ld` and `st`
once, in text order; `parse_program` and `render_instruction` both read
it.  A load or store takes its tokens in the order shown: width, then pair
count, then the optional `overread_ok`, each at most once.  Brackets and
a comma stand only in the address of a load or store, which may also go
without them: `ld r0 r1 #8 w8 p1` parses as well, while `mov [r1] 5`,
`alloc r0, 40` and `ld r0, [r1, #8] w8 p1` are errors.  `#` starts a
comment unless an ASCII digit, `+` or `-` follows it.  A register
is `r` and ASCII decimal digits below 32; an integer is ASCII without `_`,
in a form `int(token, 0)` reads: decimal or `0x` hex (also `0o` and `0b`),
with an optional sign.  The last instruction must be `halt`.  A program is
the tuple of its instructions, and `render_program` emits a canonical form
that parses back to the same tuple.

The workload generator builds single-bug micro-programs (and benign
stress programs) from a weighted size distribution, deterministically
under a seed.  Every generated program carries a multi-allocation
preamble so arming and sampling see more than one allocation.  Every
bounded draw, a choice from n items or an integer in a range of n, is
`_below(n)`: `getrandbits(k)` for `k = n.bit_length()`, drawn again while
it is `>= n`.  `random.Random` runs that loop under `choice` and
`randint`, so each program, and the generator's state after it, is what
those calls give, without their call chain.  The generator appends
`Instruction`s directly, the program `parse_program(render_program(p))`
gives back; text is only what `mtesim gen` writes.
`check_program_bounds` is an independent exact-bounds oracle used to
validate generated corpora: it tracks pointers symbolically and knows
nothing about the allocator's layout or tags.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple, Union

from .allocator import LARGE_THRESHOLD
from .cpu import PAIRS, WIDTHS, Instruction, Opcode
from .memory import GRANULE_MASK, GRANULE_OFFSET_MASK, GRANULE_SIZE

# A program is its instructions, ending with `halt`.
Program = Tuple[Instruction, ...]


class TraceParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


# The operands of each opcode but `ld` and `st`, in text order: the
# `Instruction` field an operand fills and how the text writes it.  A
# placeholder starting with `r` is a register; `<size>` is an integer that
# must not be negative, `<imm>` any integer.
_OPERANDS: Dict[Opcode, Tuple[Tuple[str, str], ...]] = {
    Opcode.ALLOC: (("dst", "r<d>"), ("imm", "<size>")),
    Opcode.FREE: (("src", "r<s>"),),
    Opcode.MOV: (("dst", "r<d>"), ("imm", "<imm>")),
    Opcode.ADD: (("dst", "r<d>"), ("src", "r<a>"), ("imm", "<imm>")),
    Opcode.SYSCALL: (),
    Opcode.RET: (),
    Opcode.HALT: (),
}
_ACCESS_FORMS = {
    Opcode.LOAD: "ld r<d> [r<b>, #<imm>|r<i>] w<width> p<pair> [overread_ok]",
    Opcode.STORE: "st r<s> [r<b>, #<imm>|r<i>] w<width> p<pair> [overread_ok]",
}
_OPCODES = {k.value: k for k in Opcode}


def _parse_reg(token: str, line_no: int) -> int:
    digits = token[1:]
    # ASCII digits only: `str.isdigit` also takes "²" and "١"
    if not token.startswith("r") or not (digits.isascii() and digits.isdigit()):
        raise TraceParseError(line_no, f"expected register, got {token!r}")
    idx = int(digits)
    if idx >= 32:
        raise TraceParseError(line_no, f"register out of range: {token}")
    return idx


def _parse_int(token: str, line_no: int, what: str) -> int:
    # ASCII without `_`: `int` also reads "١" as 1 and "1_0" as 10
    if token.isascii() and "_" not in token:
        try:
            return int(token, 0)
        except ValueError:
            pass
    raise TraceParseError(line_no, f"invalid {what}: {token!r}")


def _parse_access(kind: Opcode, tokens: List[str], line_no: int) -> Instruction:
    if not 6 <= len(tokens) <= 7 or tokens[4][:1] != "w" or tokens[5][:1] != "p":
        raise TraceParseError(line_no, f"expected {_ACCESS_FORMS[kind]}")
    if len(tokens) == 7 and tokens[6] != "overread_ok":
        raise TraceParseError(line_no, f"unexpected token {tokens[6]!r}")
    _, reg_tok, base_tok, off_tok, width_tok, pair_tok, *_ = tokens
    reg = _parse_reg(reg_tok, line_no)
    base = _parse_reg(base_tok, line_no)
    if off_tok.startswith("#"):
        offset_reg, offset = None, _parse_int(off_tok[1:], line_no, "offset")
    else:
        offset_reg, offset = _parse_reg(off_tok, line_no), 0
    width = _parse_int(width_tok[1:], line_no, "width")
    if width not in WIDTHS:
        raise TraceParseError(line_no, f"invalid width {width}")
    pair = _parse_int(pair_tok[1:], line_no, "pair count")
    if pair not in PAIRS:
        raise TraceParseError(line_no, f"invalid pair count {pair}")
    if pair == 2 and reg >= 31:
        raise TraceParseError(line_no, f"pair transfer needs registers r{reg} and r{reg + 1}")
    common = dict(base=base, offset_reg=offset_reg, offset=offset, width=width,
                  pair=pair, overread_ok=len(tokens) == 7)
    if kind is Opcode.LOAD:
        return Instruction(Opcode.LOAD, dst=reg, **common)
    return Instruction(Opcode.STORE, src=reg, **common)


def _parse_operands(kind: Opcode, tokens: List[str], line_no: int) -> Instruction:
    operands = _OPERANDS[kind]
    if len(tokens) != len(operands) + 1:
        form = " ".join([kind.value] + [text for _, text in operands])
        raise TraceParseError(line_no, f"expected {form}")
    fields = {}
    for (name, text), token in zip(operands, tokens[1:]):
        if text[0] == "r":
            fields[name] = _parse_reg(token, line_no)
        else:
            value = fields[name] = _parse_int(token, line_no, text[1:-1])
            if value < 0 and text == "<size>":
                raise TraceParseError(line_no, f"invalid size {value}")
    return Instruction(kind, **fields)


_COMMENT = re.compile(r"#(?![0-9+-])")  # '#' starts a comment unless it prefixes an immediate
_PUNCTUATION = re.compile(r"[\[\],]")
_WORD = r"([^\s\[\],]+)"  # a token: no space, bracket or comma
# A load or store up to its width: mnemonic, register and address (groups
# 1, 3 and 4 hold register, base and offset).  The address, `[r<b>, <offset>]`
# or bare `r<b> <offset>`, is the only place brackets and a comma stand.
_ACCESS_HEAD = re.compile(
    rf"\S+\s+{_WORD}(?:\s*(\[)\s*|\s+){_WORD}(?:\s*,\s*|\s+){_WORD}(?(2)\s*\])")


def parse_program(text: str) -> Program:
    instructions: List[Instruction] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        last_line = line_no
        tokens = line.split()
        kind = _OPCODES.get(tokens[0])
        if kind is None:
            raise TraceParseError(line_no, f"unknown mnemonic {tokens[0]!r}")
        if kind in _ACCESS_FORMS:
            parse = _parse_access
            head = _ACCESS_HEAD.match(line)
            if head is None or _PUNCTUATION.search(line, head.end()):
                raise TraceParseError(line_no, f"expected {_ACCESS_FORMS[kind]}")
            tokens[1:] = [*head.group(1, 3, 4), *line[head.end():].split()]
        else:
            parse = _parse_operands
            stray = _PUNCTUATION.search(line)
            if stray:
                raise TraceParseError(
                    line_no, f"unexpected {stray.group()!r} outside a load or store address")
        instructions.append(parse(kind, tokens, line_no))
    if not instructions:
        raise TraceParseError(0, "empty program")
    if instructions[-1].kind is not Opcode.HALT:
        raise TraceParseError(last_line, "program must end with halt")
    return tuple(instructions)


def render_instruction(instr: Instruction) -> str:
    k = instr.kind
    if k in _ACCESS_FORMS:
        reg = instr.dst if k is Opcode.LOAD else instr.src
        off = f"r{instr.offset_reg}" if instr.offset_reg is not None else f"#{instr.offset}"
        out = f"{k.value} r{reg} [r{instr.base}, {off}] w{instr.width} p{instr.pair}"
        if instr.overread_ok:
            out += " overread_ok"
        return out
    return " ".join([k.value] + [f"r{getattr(instr, name)}" if text[0] == "r"
                                 else str(getattr(instr, name))
                                 for name, text in _OPERANDS[k]])


def render_program(program: Program) -> str:
    return "\n".join(render_instruction(i) for i in program) + "\n"


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

    for pc, instr in enumerate(program):
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


class WorkloadError(Exception):
    pass


def check_size_distribution(size_distribution: Sequence[Tuple[int, float]]) -> None:
    """Reject a (size, weight) distribution that cannot be drawn from."""
    if not size_distribution:
        raise WorkloadError("empty size distribution")
    if any(w <= 0 for _, w in size_distribution):
        raise WorkloadError("size weights must be positive")
    *_, total = accumulate(w for _, w in size_distribution)
    if not math.isfinite(total):
        raise WorkloadError("size weights must have a finite total")
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
    # the distribution as sizes and cumulative weights, derived once per spec
    _sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cum_weights: Tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_sizes", tuple(s for s, _ in self.size_distribution))
        object.__setattr__(self, "_cum_weights",
                           tuple(accumulate(w for _, w in self.size_distribution)))


def _draw_size(spec: WorkloadSpec, rng: random.Random) -> int:
    # the draw of `rng.choices(sizes, weights=w)[0]`, computed as `choices`
    # computes it: one `random()` scaled by the total weight, bisected into
    # the cumulative weights, without summing them or building a list
    cum_weights = spec._cum_weights
    return spec._sizes[bisect(cum_weights, rng.random() * cum_weights[-1],
                              0, len(cum_weights) - 1)]


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

# (width, pair) access shapes in drawing order, and for each buffer size up
# to the largest access the shapes that fit in it (all of them fit above)
_SHAPES = tuple((w, p) for w in WIDTHS for p in PAIRS)
_MAX_ACCESS = max(w * p for w, p in _SHAPES)
_SHAPES_FITTING = tuple(tuple((w, p) for w, p in _SHAPES if w * p <= n)
                        for n in range(_MAX_ACCESS + 1))
_GRANULE_WIDTHS = tuple(w for w in WIDTHS if w <= GRANULE_SIZE)


# Instructions are built with `tuple.__new__` from all ten fields in
# `Instruction` order: keyword forwarding cost twice the construction
# itself.  Fields an opcode does not use keep the `Instruction` defaults.
# The preamble and the generators of the bug kinds build their
# instructions inline; the emitters below serve the rest.  Instructions are
# immutable, so every program ends with the one shared `_HALT`.
_new_instruction = tuple.__new__
_HALT = Instruction(Opcode.HALT)
# Opcodes as module globals, as in `mtesim.cpu`: a load of `Opcode.ALLOC`
# goes through the enum class.
_ALLOC, _FREE, _MOV, _LOAD, _STORE = (Opcode.ALLOC, Opcode.FREE, Opcode.MOV, Opcode.LOAD,
                                      Opcode.STORE)


def _alloc(out: List[Instruction], dst: int, size: int) -> None:
    out.append(_new_instruction(Instruction, (
        _ALLOC, dst, 0, 0, None, 0, 8, 1, size, False)))


def _free(out: List[Instruction], src: int) -> None:
    out.append(_new_instruction(Instruction, (
        _FREE, 0, src, 0, None, 0, 8, 1, 0, False)))


def _load(out: List[Instruction], dst: int, base: int, offset: int, width: int,
          pair: int = 1) -> None:
    out.append(_new_instruction(Instruction, (
        _LOAD, dst, 0, base, None, offset, width, pair, 0, False)))


def _store(out: List[Instruction], src: int, base: int, offset: int, width: int,
           pair: int = 1) -> None:
    out.append(_new_instruction(Instruction, (
        _STORE, 0, src, base, None, offset, width, pair, 0, False)))


def _below(getrandbits, n: int) -> int:
    """`Random._randbelow(n)` for n >= 1: the same `getrandbits(k)` calls."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _preamble(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    # each size is `_draw_size`'s draw, with the spec's tables bound once
    append, random_ = out.append, rng.random
    sizes, cum_weights = spec._sizes, spec._cum_weights
    total, hi = cum_weights[-1], len(cum_weights) - 1
    for i in range(spec.preamble_allocs):
        append(_new_instruction(Instruction, (
            _ALLOC, _PREAMBLE + (i % 8), 0, 0, None, 0, 8, 1,
            sizes[bisect(cum_weights, random_() * total, 0, hi)], False)))


def _gen_intra(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    size = _draw_short_size(spec, rng)
    _alloc(out, _PTR, size)
    last_granule = size // GRANULE_SIZE * GRANULE_SIZE
    # end must exceed the requested size but stay inside the short granule
    options = []
    for width, pair in _SHAPES:
        a = width * pair
        if a > GRANULE_SIZE:
            continue
        lo = max(0, size - a + 1)
        hi = last_granule + GRANULE_SIZE - a
        if lo <= hi:
            options.append((width, pair, lo, hi))
    width, pair, lo, hi = options[_below(rng.getrandbits, len(options))]
    off = lo + _below(rng.getrandbits, hi - lo + 1)
    if rng.random() < 0.5:
        _store(out, _VAL, _PTR, off, width, pair)
    else:
        _load(out, _VAL, _PTR, off, width, pair)


def _gen_cross(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    # sizes are >= 1 (`check_size_distribution`), so each size class is
    # `(s + GRANULE_OFFSET_MASK) & GRANULE_MASK`
    append = out.append
    attacker = _draw_size(spec, rng)
    victim = (_draw_size(spec, rng) + GRANULE_OFFSET_MASK) & GRANULE_MASK  # full granules only
    append(_new_instruction(Instruction, (_ALLOC, _PTR, 0, 0, None, 0, 8, 1, attacker, False)))
    skip = (attacker + GRANULE_OFFSET_MASK) & GRANULE_MASK
    if not spec.adjacent:
        # past the default large threshold: the untagged path breaks the
        # tag-exclusion chain
        spacer = LARGE_THRESHOLD + 1
        append(_new_instruction(Instruction, (
            _ALLOC, _VICTIM + 1, 0, 0, None, 0, 8, 1, spacer, False)))
        skip += (spacer + GRANULE_OFFSET_MASK) & GRANULE_MASK
    append(_new_instruction(Instruction, (_ALLOC, _VICTIM, 0, 0, None, 0, 8, 1, victim, False)))
    width = _GRANULE_WIDTHS[_below(rng.getrandbits, len(_GRANULE_WIDTHS))]
    # inside the victim's first granule
    off = skip + _below(rng.getrandbits, GRANULE_SIZE - width + 1)
    append(_new_instruction(Instruction, (
        _STORE, 0, _VAL, _PTR, None, off, width, 1, 0, False)))


def _gen_uaf(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    size = _draw_size(spec, rng)
    out += (
        _new_instruction(Instruction, (_ALLOC, _PTR, 0, 0, None, 0, 8, 1, size, False)),
        _new_instruction(Instruction, (
            _MOV, _VAL, 0, 0, None, 0, 8, 1, _below(rng.getrandbits, 2**32 + 1), False)),
        _new_instruction(Instruction, (_STORE, 0, _VAL, _PTR, None, 0, 1, 1, 0, False)),
        _new_instruction(Instruction, (_FREE, 0, _PTR, 0, None, 0, 8, 1, 0, False)))
    # instructions are immutable: every cycle appends the same pair
    out += (_new_instruction(Instruction, (_ALLOC, _CYCLE, 0, 0, None, 0, 8, 1, size, False)),
            _new_instruction(Instruction, (_FREE, 0, _CYCLE, 0, None, 0, 8, 1, 0, False))
            ) * spec.reuse_cycles
    out.append(_new_instruction(Instruction, (
        _LOAD, _VAL + 1, 0, _PTR, None, 0, 1, 1, 0, False)))


def _gen_double_free(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    size = _draw_size(spec, rng)
    _alloc(out, _PTR, size)
    _free(out, _PTR)
    _free(out, _PTR)


def _gen_benign(spec: WorkloadSpec, rng: random.Random, out: List[Instruction]) -> None:
    getrandbits, random_, append = rng.getrandbits, rng.random, out.append
    buffers = []
    for i in range(1 + _below(getrandbits, 3)):
        size = _draw_size(spec, rng)
        reg = 12 + i
        buffers.append((reg, size))
        _alloc(out, reg, size)
    # each access: a buffer, a shape that fits it, an offset, then a store of
    # fresh values or a load; the loop builds its instructions inline
    mov, load, store = Opcode.MOV, Opcode.LOAD, Opcode.STORE
    for _ in range(spec.accesses):
        reg, size = buffers[_below(getrandbits, len(buffers))]
        shapes = _SHAPES_FITTING[min(size, _MAX_ACCESS)]
        width, pair = shapes[_below(getrandbits, len(shapes))]
        off = _below(getrandbits, size - width * pair + 1)
        if random_() < 0.5:
            append(_new_instruction(Instruction, (
                mov, _VAL, 0, 0, None, 0, 8, 1, _below(getrandbits, 2**32 + 1), False)))
            if pair == 2:
                append(_new_instruction(Instruction, (
                    mov, _VAL + 1, 0, 0, None, 0, 8, 1, _below(getrandbits, 2**32 + 1), False)))
            append(_new_instruction(Instruction, (
                store, 0, _VAL, reg, None, off, width, pair, 0, False)))
        else:
            append(_new_instruction(Instruction, (
                load, _VAL + 2, 0, reg, None, off, width, pair, 0, False)))
    for reg, _ in buffers:
        if random_() < 0.3:
            _free(out, reg)


_GENERATORS = {
    "intra": _gen_intra,
    "cross": _gen_cross,
    "uaf": _gen_uaf,
    "double_free": _gen_double_free,
    "benign": _gen_benign,
}
WORKLOAD_KINDS = tuple(_GENERATORS)


def generate_program(spec: WorkloadSpec, index: int) -> Program:
    rng = random.Random(f"{spec.seed}/workload/{spec.kind}/{index}")
    out: List[Instruction] = []
    _preamble(spec, rng, out)
    _GENERATORS[spec.kind](spec, rng, out)
    out.append(_HALT)
    return tuple(out)


def generate_workload(spec: WorkloadSpec) -> List[Program]:
    """Deterministic corpus of `spec.count` programs."""
    return [generate_program(spec, i) for i in range(spec.count)]
