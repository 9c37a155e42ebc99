import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtesim import (
    ALWAYS_ARM,
    Allocator,
    Instruction,
    Machine,
    Mode,
    Opcode,
    SimConfig,
    Simulation,
    TaggedMemory,
    parse_program,
)
from mtesim import cpu
from mtesim.allocator import AllocationError
from mtesim.cpu import PAIRS, WIDTHS, RunCounters
from mtesim.detector import Detector
from stepwise import ref_arm, ref_pass, stepwise_hit


def machine_for(text, mode=Mode.SYNC):
    return Machine(parse_program(text), mode)


def ld(dst, base, offset=0, width=8, pair=1, offset_reg=None):
    return Instruction(Opcode.LOAD, dst=dst, base=base, offset=offset,
                       offset_reg=offset_reg, width=width, pair=pair)


class NullDetector:
    """Declares every mismatch a bug; never delegates, so opens no trap slot."""

    delegations = {}   # the machine's trap slots: none

    def pass_benign_mismatch(self, pc, address, start, size, addrtag, overread_ok, mem,
                             machine, next_in_call):
        return False   # never benign: every mismatch reaches handle_tag_mismatch

    def handle_tag_mismatch(self, fault, mem, allocator, machine):
        self.fault = fault
        return object()

    def handle_trap(self, machine, mem, allocator):
        raise AssertionError("no trap expected")

    def report_async(self, pc, regs):
        self.drained = (pc, regs)
        return object()

    def report_free_mismatch(self, raw, pc, regs, mem):
        self.refused = (raw, pc)
        self.free_report = object()
        return self.free_report


class ResumeDetector(NullDetector):
    """Declares every sync mismatch benign without touching memory."""

    def pass_benign_mismatch(self, pc, address, start, size, addrtag, overread_ok, mem,
                             machine, next_in_call):
        self.mem_snapshot = mem.snapshot()
        return True


class TestInstruction:
    def test_fields_cannot_be_assigned(self):
        instr = ld(0, base=1)
        with pytest.raises(AttributeError):
            instr.offset = 4

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_access_size_is_width_times_pair(self, width, pair):
        assert ld(0, base=1, width=width, pair=pair).access_size == width * pair


class TestDecode:
    def test_immediate_offset_keeps_base_tag(self):
        m = machine_for("halt")
        m.regs[1] = 0x0A00_0000_0000_1000
        desc = m.decode(ld(0, base=1, offset=4, width=8))
        assert desc.start == 0x1004
        assert desc.size == 8
        assert desc.addrtag == 0xA

    def test_register_offset_uses_full_64_bit_sum(self):
        m = machine_for("halt")
        m.regs[1] = 0x0A00_0000_0000_1000
        m.regs[2] = 0x10
        desc = m.decode(ld(0, base=1, offset_reg=2))
        assert desc.start == 0x1010
        assert desc.addrtag == 0xA

    def test_tagged_offset_register_participates_in_tag(self):
        m = machine_for("halt")
        m.regs[1] = 0x0A00_0000_0000_1000
        m.regs[2] = 0x0300_0000_0000_0000
        desc = m.decode(ld(0, base=1, offset_reg=2))
        assert desc.addrtag == 0xD  # 0xA + 0x3 in the top-byte lane

    def test_pair_width_16_is_32_bytes(self):
        m = machine_for("halt")
        desc = m.decode(ld(0, base=1, width=16, pair=2))
        assert desc.size == 32

    def test_negative_immediate_offset(self):
        m = machine_for("halt")
        m.regs[1] = 0x0A00_0000_0000_1010
        desc = m.decode(ld(0, base=1, offset=-8, width=4))
        assert desc.start == 0x1008
        assert desc.addrtag == 0xA


class TestTagCheck:
    def test_matching_access_passes(self):
        m = machine_for("halt")
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 0xA)
        desc = m.decode(ld(0, base=1))
        m.regs[1] = 0x0A00_0000_0000_1000
        desc = m.decode(ld(0, base=1))
        assert m.tag_check(desc, mem) is None

    def test_unaligned_span_faults_at_second_granule(self):
        m = machine_for("halt")
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 0xA)
        mem.set_granule_tag(0x1010, 0x8)
        m.regs[1] = 0x0A00_0000_0000_100C
        fault = m.tag_check(m.decode(ld(0, base=1, width=8)), mem)
        assert fault is not None
        assert fault.fault_address == 0x1010  # second granule's base

    def test_mismatch_at_first_byte(self):
        m = machine_for("halt")
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 0x8)
        m.regs[1] = 0x0A00_0000_0000_1004
        fault = m.tag_check(m.decode(ld(0, base=1, width=4)), mem)
        assert fault.fault_address == 0x1004

    def test_fault_address_within_access(self):
        m = machine_for("halt")
        mem = TaggedMemory()
        m.regs[1] = 0x0A00_0000_0000_0FF8
        fault = m.tag_check(m.decode(ld(0, base=1, width=16)), mem)
        assert 0x0FF8 <= fault.fault_address < 0x0FF8 + 16

    def test_access_past_top_of_address_space_checks_granule_0(self):
        m = machine_for("halt")
        mem = TaggedMemory()
        mem.set_granule_tag(0xFF_FFFF_FFFF_FFF0, 0xA)
        m.regs[1] = 0x0AFF_FFFF_FFFF_FFF8
        desc = m.decode(ld(0, base=1, width=16))
        mem.set_granule_tag(0x0, 0xA)
        assert m.tag_check(desc, mem) is None
        mem.set_granule_tag(0x0, 0x8)
        assert m.tag_check(desc, mem).fault_address == 1 << 56  # address left unmasked


# property: the address, tag and first mismatching address that `Machine.run`
# forms for a load match a reference that wraps the address sum to 64 bits
# and walks the granules one at a time

_MASK64 = (1 << 64) - 1


def reference_fault_address(start, size, addrtag, mem):
    g = start // 16 * 16
    while g < start + size:
        if mem.get_granule_tag(g) != addrtag:
            return max(start, g)
        g += 16
    return None


def run_one_load(mem, regs, **load):
    """The `Fault` that one sync-mode load, run by `Machine.run`, hands the
    detector, or None when the load passes its tag check and the run halts."""
    m = Machine((ld(0, **load), Instruction(Opcode.HALT)), Mode.SYNC)
    m.regs[:len(regs)] = regs
    detector = NullDetector()
    end = m.run(mem, None, detector, 2)
    if end.outcome == "CleanHalt":
        return None
    assert m.pc == 0 and m.regs[:len(regs)] == regs   # the faulting load committed nothing
    return detector.fault


@given(base=st.integers(0, _MASK64), offset=st.integers(-64, 64),
       offset_reg_value=st.one_of(st.none(), st.integers(0, _MASK64)),
       width=st.sampled_from(WIDTHS), pair=st.sampled_from(PAIRS),
       matches=st.lists(st.booleans(), min_size=3, max_size=3), other=st.integers(1, 15))
def test_decode_and_tag_check_match_reference(base, offset, offset_reg_value, width, pair,
                                              matches, other):
    regs = [0, base]
    offset_reg = None
    if offset_reg_value is not None:
        regs.append(offset_reg_value)
        offset_reg, offset = 2, 0
    effective = (base + (offset if offset_reg is None else offset_reg_value)) & _MASK64
    start, addrtag = effective & ((1 << 56) - 1), (effective >> 56) & 0xF
    # an access of at most 32 bytes touches at most 3 granules; the
    # granules on either side never match
    mem = TaggedMemory()
    first = start // 16 * 16
    for i, match in enumerate([False] + matches + [False]):
        mem.set_granule_tag(first + 16 * (i - 1), addrtag ^ (0 if match else other))
    fault = run_one_load(mem, regs, base=1, offset=offset, width=width, pair=pair,
                         offset_reg=offset_reg)
    expected = reference_fault_address(start, width * pair, addrtag, mem)
    assert (None if fault is None else fault.fault_address) == expected
    if fault is not None:
        assert fault.pc == 0 and fault.access == (start, width * pair, addrtag)
        assert fault.regs_snapshot == tuple(regs + [0] * (32 - len(regs)))


# `Machine.run`'s tag check over pages against a per-granule dict of tags,
# for accesses across granule edges, page edges and the top of the address
# space

_TOP = 1 << 56
_GRANULE_INDEX_MASK = (_TOP - 1) >> 4


@given(start=st.one_of(st.integers(0x0FD0, 0x1010), st.integers(_TOP - 48, _TOP - 1),
                       st.integers(0, _TOP - 1)),
       width=st.sampled_from(WIDTHS), pair=st.sampled_from(PAIRS),
       addrtag=st.integers(0, 15), other=st.integers(1, 15),
       matches=st.lists(st.one_of(st.none(), st.booleans()), min_size=3, max_size=3))
def test_tag_check_matches_per_granule_dict(start, width, pair, addrtag, other, matches):
    # each granule the access can touch matches, mismatches, or is never tagged
    mem, ref = TaggedMemory(), {}
    first = start >> 4
    for i, match in enumerate(matches):
        if match is not None:
            g = (first + i) & _GRANULE_INDEX_MASK
            tag = addrtag if match else addrtag ^ other
            mem.set_granule_tag(g << 4, tag)
            ref[g] = tag
    size = width * pair
    expected = None
    for g in range(first, ((start + size - 1) >> 4) + 1):
        if ref.get(g & _GRANULE_INDEX_MASK, 0) != addrtag:
            expected = start if g == first else g << 4
            break
    fault = run_one_load(mem, [0, addrtag << 56 | start], base=1, width=width, pair=pair)
    assert (None if fault is None else fault.fault_address) == expected


@given(addr=st.one_of(st.integers(0x0FF0, 0x1040), st.integers(_TOP - 48, _TOP - 1)),
       top=st.integers(0, 0xFF),
       width=st.sampled_from(WIDTHS), pair=st.sampled_from(PAIRS),
       values=st.lists(st.integers(0, _MASK64), min_size=2, max_size=2))
def test_store_then_load_matches_byte_reference(addr, top, width, pair, values):
    """A store lays each register out little-endian, a width-16 lane
    zero-extended; a load reads back each lane's low 8 bytes.  Lanes that
    run past the top of the address space land at address 0 onwards."""
    mem = TaggedMemory()
    m = machine_for(f"st r2 [r1, #0] w{width} p{pair}\n"
                    f"ld r4 [r1, #0] w{width} p{pair}\nhalt", mode=Mode.OFF)
    m.regs[1] = (top << 56) | addr
    m.regs[2:4] = values
    while m.step(mem, None, NullDetector()) is None:
        pass
    expected = b"".join(v.to_bytes(8, "little")[:width] + bytes(max(0, width - 8))
                        for v in values[:pair])
    assert mem.read_bytes(addr, len(expected)) == expected
    assert mem.nonzero_bytes() == sorted(((addr + i) & (_TOP - 1), b)
                                         for i, b in enumerate(expected) if b)
    for i in range(pair):
        assert m.regs[4 + i] == values[i] & ((1 << (8 * min(width, 8))) - 1)


# Every load and store near a page edge and near the top of the address
# space, against a reference that moves each lane on its own through
# `read_bytes`/`write_bytes`.  The access starts in the last 40 bytes below
# the edge, so it lies within the page, ends on the edge, or crosses it
# (past the top, onto address 0).  Tags match in sync mode, so every access
# commits.  A pair load with `dst` equal to its base register reads both
# lanes from the address the register held before the load.

_EDGE_STARTS = [edge - back for edge in (0x10_1000, _TOP) for back in range(40, 0, -1)]
_PATTERN = bytes((i * 37 + 11) & 0xFF for i in range(80))


def _reference_access(kind, width, pair, dst, regs, mem, start):
    for lane in range(pair):
        address = (start + lane * width) & (_TOP - 1)
        if kind == "st":
            value = regs[2 + lane].to_bytes(8, "little")
            mem.write_bytes(address, value[:width] + bytes(max(0, width - 8)))
        else:
            chunk = mem.read_bytes(address, width)
            regs[dst + lane] = int.from_bytes(chunk[:8], "little")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("pair", PAIRS)
def test_access_grid_at_page_edges_matches_lane_reference(width, pair):
    values = [0x8877_6655_4433_2211, 0xF0E0_D0C0_B0A0_9080]
    for start in _EDGE_STARTS:
        for mode in (Mode.OFF, Mode.SYNC):
            for kind, dst in (("ld", 4), ("ld", 1), ("st", 4)):
                mem = TaggedMemory()
                mem.write_bytes(start - 40, _PATTERN)      # wraps past the top to 0
                mem.set_tag_range(start - 48, 96, 0xA)
                program = parse_program(f"{kind} r{dst if kind == 'ld' else 2} [r1, #0] "
                                        f"w{width} p{pair}\nhalt")
                m = Machine(program, mode)
                m.regs[1] = 0x0A00_0000_0000_0000 | start
                m.regs[2:4] = values
                ref_regs, ref_mem = list(m.regs), copy.deepcopy(mem)
                _reference_access(kind, width, pair, dst, ref_regs, ref_mem, start)
                assert m.step(mem, None, NullDetector()) is None
                assert m.counters.faults_delivered == 0
                case = (hex(start), mode, kind, dst)
                assert m.regs == ref_regs, case
                assert mem.snapshot() == ref_mem.snapshot(), case


class TestTraps:
    def test_trap_on_ret_slot_unavailable(self):
        m = machine_for("ld r0 [r1, #0] w8 p1\nret\nhalt")
        assert m.can_trap(0) and not m.can_trap(1)

    def test_trap_on_halt_slot_unavailable(self):
        m = machine_for("ld r0 [r1, #0] w8 p1\nhalt")
        assert not m.can_trap(1)

    def test_trap_past_end_unavailable(self):
        m = machine_for("halt")
        assert not m.can_trap(1) and not m.can_trap(5)

    def test_trap_fires_where_the_detector_holds_a_delegation(self):
        m = machine_for("mov r0 1\nmov r1 2\nmov r2 3\nhalt", mode=Mode.OFF)
        det = NullDetector()
        det.delegations = {1: 0x1000}
        fired = []
        det.handle_trap = lambda machine, mem, allocator: fired.append(machine.pc)
        while m.step(TaggedMemory(), None, det) is None:
            pass
        assert fired == [1]
        assert m.counters.traps_delivered == 0   # the detector counts the traps it takes


class TestStepSemantics:
    def test_load_store_round_trip(self):
        mem = TaggedMemory()
        m = machine_for(
            "mov r1 4096\n"
            "mov r2 81985529216486895\n"   # 0x0123456789abcdef
            "st r2 [r1, #0] w8 p1\n"
            "ld r3 [r1, #0] w8 p1\n"
            "halt",
            mode=Mode.OFF,
        )
        det = NullDetector()
        while m.step(mem, None, det) is None:
            pass
        assert m.regs[3] == 0x0123456789ABCDEF

    def test_pair_transfers_two_registers(self):
        mem = TaggedMemory()
        m = machine_for(
            "mov r1 4096\nmov r2 17\nmov r3 34\n"
            "st r2 [r1, #0] w8 p2\n"
            "ld r4 [r1, #0] w8 p2\n"
            "halt",
            mode=Mode.OFF,
        )
        det = NullDetector()
        while m.step(mem, None, det) is None:
            pass
        assert (m.regs[4], m.regs[5]) == (17, 34)

    def test_width16_store_writes_low_8_bytes_and_zeros(self):
        mem = TaggedMemory()
        m = machine_for("mov r1 4096\nmov r2 255\nst r2 [r1, #0] w16 p1\nhalt",
                        mode=Mode.OFF)
        det = NullDetector()
        while m.step(mem, None, det) is None:
            pass
        assert mem.read_bytes(4096, 16) == bytes([255]) + bytes(15)

    def test_off_mode_never_faults(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 5)
        m = machine_for("mov r1 4096\nld r0 [r1, #0] w8 p1\nhalt", mode=Mode.OFF)
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, None, det)
        assert end.outcome == "CleanHalt"
        assert m.counters.faults_delivered == 0

    def test_sync_fault_commits_nothing_before_handler(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 5)
        mem.write_bytes(0x1000, b"\xaa" * 8)
        m = machine_for("mov r1 4096\nmov r2 0\nst r2 [r1, #0] w8 p1\nhalt")
        det = ResumeDetector()
        end = None
        while end is None:
            end = m.step(mem, None, det)
        before = TaggedMemory()
        before.set_granule_tag(0x1000, 5)
        before.write_bytes(0x1000, b"\xaa" * 8)
        assert det.mem_snapshot == before.snapshot()
        # after resume the store committed
        assert mem.read_bytes(0x1000, 8) == bytes(8)

    def test_async_fault_executes_access_and_reports_at_kernel_entry(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 5)
        m = machine_for("mov r1 4096\nmov r2 7\nst r2 [r1, #0] w1 p1\nsyscall\nhalt",
                        mode=Mode.ASYNC)
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, None, det)
        assert end.outcome == "BugReported"
        assert mem.read_byte(0x1000) == 7  # silent corruption committed
        # the flag is all that was kept: the report gets the syscall's pc
        # and registers, not the store's
        assert det.drained == (3, tuple(m.regs)) and m.pc == 3
        assert m.counters.faults_delivered == 1 and not m.async_fault_pending

    def test_async_report_carries_registers_at_kernel_entry(self):
        mem = TaggedMemory()
        mem.set_granule_tag(0x1000, 5)
        m = machine_for("mov r1 4096\nmov r2 7\nst r2 [r1, #0] w1 p1\n"
                        "mov r3 99\nsyscall\nhalt", mode=Mode.ASYNC)
        det = Detector(SimConfig())
        end = None
        while end is None:
            end = m.step(mem, None, det)
        assert end.outcome == "BugReported"
        assert end.report.kind.value == "AsyncTagCheckFault"
        assert end.report.pc == 4 and end.report.regs == tuple(m.regs)
        assert end.report.regs[2] == 7 and end.report.regs[3] == 99
        assert end.report.fault_address is None

    def test_alloc_and_free_route_to_allocator(self):
        mem = TaggedMemory()
        alloc = Allocator(mem, random.Random(0), SimConfig())
        m = machine_for("alloc r0 40\nfree r0\nhalt")
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, alloc, det)
        assert end.outcome == "CleanHalt"
        assert alloc.counters.allocations == 1 and alloc.counters.frees == 1

    def test_refused_free_reports_through_the_detector(self):
        mem = TaggedMemory()
        alloc = Allocator(mem, random.Random(0), SimConfig())
        m = machine_for("alloc r0 16\nfree r0\nfree r0\nhalt")
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, alloc, det)
        assert end.outcome == "BugReported"
        assert end.report is det.free_report and det.refused == (m.regs[0], 2)
        assert alloc.counters.frees == 1

    def test_ret_falls_through(self):
        mem = TaggedMemory()
        m = machine_for("mov r0 1\nret\nmov r0 2\nhalt", mode=Mode.OFF)
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, None, det)
        assert m.regs[0] == 2


# the parser requires a final halt; a machine can still be given a program without one
NO_HALT = parse_program("mov r0 1\nmov r1 2\nhalt")[:2]


class TestLoopEdges:
    """`run` derives its budget and its instruction count from pc: the
    count is the instructions completed plus the one that ends the run."""

    @pytest.mark.parametrize("mode, text, mem_tag, end_pc", [
        (Mode.OFF, "mov r0 1\nhalt", None, 1),
        (Mode.SYNC, "alloc r0 16\nfree r0\nfree r0\nhalt", None, 2),
        (Mode.SYNC, "mov r1 4096\nld r0 [r1, #0] w8 p1\nhalt", 5, 1),
        (Mode.ASYNC, "mov r1 4096\nst r2 [r1, #0] w1 p1\nsyscall\nhalt", 5, 2),
    ], ids=["halt", "refused-free", "sync-bug", "async-drain"])
    def test_the_instruction_that_ends_the_run_is_counted(self, mode, text, mem_tag, end_pc):
        mem = TaggedMemory()
        if mem_tag is not None:
            mem.set_granule_tag(0x1000, mem_tag)
        m = machine_for(text, mode)
        end = m.run(mem, Allocator(mem, random.Random(0), SimConfig()), NullDetector(), 100)
        assert end is not None and m.pc == end_pc
        assert m.counters.instructions_executed == end_pc + 1

    @pytest.mark.parametrize("budget", [100, 1], ids=["one-run", "stepping"])
    def test_running_off_the_end_names_the_pc_past_the_program(self, budget):
        m = Machine(NO_HALT, Mode.OFF)
        with pytest.raises(cpu.TraceRuntimeError, match="^pc 2 outside program$"):
            for _ in range(3):   # one run, or three steps
                assert m.run(TaggedMemory(), None, NullDetector(), budget) is None
        assert m.pc == 2 and m.counters.instructions_executed == 2
        assert m.regs[:2] == [1, 2]

    def test_a_budget_ending_at_the_end_of_the_program_pauses(self):
        m = Machine(NO_HALT, Mode.OFF)
        assert m.run(TaggedMemory(), None, NullDetector(), 2) is None
        assert m.pc == 2 and m.counters.instructions_executed == 2
        with pytest.raises(cpu.TraceRuntimeError, match="^pc 2 outside program$"):
            m.run(TaggedMemory(), None, NullDetector(), 1)

    def test_negative_pc_raises(self):
        m = machine_for("mov r0 1\nhalt", mode=Mode.OFF)
        m.pc = -1
        with pytest.raises(cpu.TraceRuntimeError, match="^pc -1 outside program$"):
            m.run(TaggedMemory(), None, NullDetector(), 100)
        assert m.counters.instructions_executed == 0 and m.regs[0] == 0

    def test_zero_budget_executes_nothing(self):
        m = machine_for("mov r0 1\nhalt", mode=Mode.OFF)
        assert m.run(TaggedMemory(), None, NullDetector(), 0) is None
        assert m.pc == 0 and m.counters.instructions_executed == 0 and m.regs[0] == 0

    def test_an_instruction_that_raises_stays_at_pc_uncounted(self):
        # past HEAP_CEILING (1 << 48): the allocator raises, no verdict ends the run
        mem = TaggedMemory()
        m = machine_for("mov r0 1\nalloc r0 281474976710656\nhalt", mode=Mode.OFF)
        with pytest.raises(AllocationError):
            m.run(mem, Allocator(mem, random.Random(0), SimConfig()), NullDetector(), 100)
        assert m.pc == 1 and m.counters.instructions_executed == 1 and m.regs[0] == 1


def test_store_past_top_of_address_space_commits_where_granule_0_is_checked():
    # the tag check wraps the access to granule 0; the bytes must go there too
    m = machine_for("st r2 [r1, #0] w8 p1\nld r4 [r3, #0] w4 p1\nhalt")
    mem = TaggedMemory()
    mem.set_granule_tag(0xFF_FFFF_FFFF_FFF0, 0xA)
    mem.set_granule_tag(0x0, 0xA)
    m.regs[1] = 0x0AFF_FFFF_FFFF_FFFC
    m.regs[2] = 0x0807_0605_0403_0201
    m.regs[3] = 0x0A00_0000_0000_0000
    det = NullDetector()
    assert m.step(mem, None, det) is None and m.step(mem, None, det) is None
    assert m.regs[4] == 0x0807_0605
    top = 1 << 56
    assert mem.nonzero_bytes() == [(0, 5), (1, 6), (2, 7), (3, 8),
                                   (top - 4, 1), (top - 3, 2), (top - 2, 3), (top - 1, 4)]


@pytest.mark.parametrize("mode", [Mode.SYNC, Mode.ASYNC])
def test_bug_past_top_of_address_space_reports_the_unmasked_address(mode):
    # the load's second granule wraps to granule 0, which wears another
    # tag; the sync fault address is left unmasked, as `tag_check` leaves
    # it, and an async report names no address at all
    m = machine_for("ld r4 [r1, #0] w16 p1\nhalt", mode)
    mem = TaggedMemory()
    mem.set_granule_tag(_TOP - 16, 0xA)
    mem.set_granule_tag(0x0, 0x8)
    m.regs[1] = 0x0AFF_FFFF_FFFF_FFF8
    end = m.run(mem, None, Detector(SimConfig(mode=mode.value)), 2)
    assert end.outcome == "BugReported" and m.counters.faults_delivered == 1
    if mode is Mode.SYNC:
        assert end.report.fault_address == 1 << 56
        assert end.report.fault_address == m.tag_check(m.decode(m.program[0]), mem).fault_address
    else:
        assert end.report.fault_address is None and end.report.pc == 1


def test_load_wrapping_into_armed_granule_0_passes_as_across_a_page_edge():
    # a 16-byte load from 8 bytes below the top ends within the 8
    # addressable bytes of granule 0's armed tripwire: a benign hit, as the
    # same load across the page edge at 0x2000 is
    runs = []
    for below in (_TOP - 16, 0x1FF0):
        mem = TaggedMemory()
        mem.set_granule_tag(below, 3)
        ref_arm(mem, (below + 16) & (_TOP - 1), 8, 3)
        counters = RunCounters()
        m = Machine(parse_program("ld r4 [r1, #0] w16 p1\nmov r6 1\nhalt"), Mode.SYNC,
                    counters)
        m.regs[1] = 3 << 56 | below + 8
        runs.append((m.run(mem, None, Detector(SimConfig(), counters), 3), counters))
    assert runs[0] == runs[1]
    assert runs[0][0].outcome == "CleanHalt" and runs[0][1].faults_delivered == 1


# property: one `Machine.step` of a checked load or store matches a
# reference that builds the fault with `tag_check(decode(instr))`, takes the
# benign verdict and hit from `stepwise_hit` (tests/stepwise.py) at the
# unmasked fault address, and hands a bug to
# `handle_tag_mismatch`, then commits a resumed access with the unchecked
# path.  A step ends at its access, so no hit is rearmed in place.  The
# access ends `reach` bytes past the start of a granule that may hold a
# short granule's tripwire: within it (most draws of the first range), or
# up to two granules past it or before it, near a page edge or the top or
# bottom of the address space.  The examples reach a mismatch that wraps
# from the top granule to a differently tagged granule 0, a load that
# wraps from the top granule into granule 0's armed tripwire and ends
# within its addressable bytes, and an allow-listed overread, uncounted, of
# a delegated tripwire whose count has reached the threshold.

_ANCHORS = (0x10_0000, 0x10_0800, 0x10_0FF0, 0x10_1000, 0, _TOP - 16, _TOP - 32)
_NEXT = {"mov": Instruction(Opcode.MOV, dst=6, imm=1), "ret": Instruction(Opcode.RET)}


@settings(max_examples=250, deadline=None)
@given(anchor=st.sampled_from(_ANCHORS), skew=st.integers(-1, 1),
       reach=st.one_of(st.integers(1, 16), st.integers(-8, 48)), store=st.booleans(),
       width=st.sampled_from(WIDTHS), pair=st.sampled_from(PAIRS),
       overread_ok=st.booleans(), addrtag=st.one_of(st.none(), st.integers(0, 15)),
       real_tag=st.integers(0, 15),
       tags=st.lists(st.one_of(st.none(), st.none(), st.none(), st.integers(0, 15)),
                     min_size=4, max_size=4),
       state=st.sampled_from(["plain", "armed", "armed", "armed", "delegated", "retired",
                              "spent"]),
       addressable=st.integers(1, 15), fill=st.binary(min_size=80, max_size=80),
       forge=st.booleans(),
       values=st.lists(st.integers(0, _MASK64), min_size=2, max_size=2),
       after=st.sampled_from(["mov", "ret", "halt"]),
       mode=st.sampled_from([Mode.SYNC, Mode.SYNC, Mode.SYNC, Mode.ASYNC]),
       tripwires=st.sampled_from([True, True, True, False]), overread_skip=st.booleans(),
       threshold=st.integers(1, 3))
@example(anchor=_TOP - 16, skew=0, reach=24, store=False, width=16, pair=1, overread_ok=False,
         addrtag=None, real_tag=3, tags=[None, None, 5, None], state="plain", addressable=1,
         fill=bytes(80), forge=False, values=[0, 0], after="halt", mode=Mode.SYNC,
         tripwires=True, overread_skip=False, threshold=1)
@example(anchor=0, skew=0, reach=8, store=False, width=16, pair=1, overread_ok=False,
         addrtag=None, real_tag=3, tags=[None] * 4, state="armed", addressable=8,
         fill=bytes(80), forge=False, values=[0, 0], after="mov", mode=Mode.SYNC,
         tripwires=True, overread_skip=False, threshold=2)
@example(anchor=0x10_0000, skew=0, reach=8, store=False, width=8, pair=1, overread_ok=True,
         addrtag=5, real_tag=9, tags=[None] * 4, state="delegated", addressable=5,
         fill=bytes(80), forge=False, values=[0, 0], after="mov", mode=Mode.SYNC,
         tripwires=True, overread_skip=True, threshold=1)
def test_step_matches_tag_check_and_handler_reference(
        anchor, skew, reach, store, width, pair, overread_ok, addrtag, real_tag, tags, state,
        addressable, fill, forge, values, after, mode, tripwires, overread_skip, threshold):
    short = (anchor + 16 * skew) & (_TOP - 1)     # the granule that may hold a tripwire
    if addrtag is None:
        addrtag = real_tag                        # a pointer to the buffer
    mem = TaggedMemory()
    mem.write_bytes(short - 32, fill)             # program data, metadata bytes too
    if forge:   # pointer-valued data: the other granules' last nibbles read as the pointer tag
        for i in (-2, -1, 1, 2):
            last = (short + 16 * i + 15) & (_TOP - 1)
            mem.write_byte(last, mem.read_byte(last) & 0xF0 | addrtag)
    # the two granules before the short one and the two after: the real
    # tag (None) or any tag
    for i, tag in zip((-2, -1, 1, 2), tags):
        mem.set_granule_tag((short + 16 * i) & (_TOP - 1), real_tag if tag is None else tag)
    det = Detector(SimConfig(mode=mode.value, tripwires=tripwires, overread_skip=overread_skip,
                             access_threshold=threshold))
    mem.set_granule_tag(short, real_tag)
    if state != "plain":
        ref_arm(mem, short, addressable, real_tag)
    if state == "delegated":        # a benign hit is outstanding; its trap slot lies ahead
        ref_pass(mem, short, addressable, 64, True)
        det.delegations[9] = short
    elif state == "retired":        # retired at a ret edge, counter left as the hit made it
        ref_pass(mem, short, addressable, 64, False)
    elif state == "spent":          # retired by the access threshold, metadata zeroed
        ref_pass(mem, short, addressable, 1, False)

    access = Instruction(Opcode.STORE if store else Opcode.LOAD, dst=4, src=2, base=1,
                         width=width, pair=pair, overread_ok=overread_ok)
    rest = (_NEXT[after],) if after in _NEXT else ()
    m = Machine((access,) + rest + (Instruction(Opcode.HALT),), mode)
    m.regs[1] = addrtag << 56 | (short + reach - width * pair) & (_TOP - 1)
    m.regs[2:4] = values

    # the reference state is a deep copy; the program never changes, so it is shared
    ref_m, ref_mem, ref_det = copy.deepcopy((m, mem, det), {id(m.program): m.program})
    fault = ref_m.tag_check(ref_m.decode(access), ref_mem)
    expected = None
    if fault is not None:
        ref_m.counters.faults_delivered += 1
        desc = fault.access
        if mode is Mode.ASYNC:
            ref_m.async_fault_pending = True
        elif stepwise_hit(ref_det.config, ref_det.counters, ref_det.delegations, 0,
                          fault.fault_address, desc.start, desc.size, desc.addrtag,
                          overread_ok, ref_mem, ref_m) is None:
            expected = ref_det.handle_tag_mismatch(fault, ref_mem, None, ref_m)
    if expected is None:            # the access commits, as an unchecked one does
        ref_m.mode = Mode.OFF
        assert ref_m.step(ref_mem, None, ref_det) is None

    end = m.step(mem, None, det)
    assert (None if end is None else end.report) == expected
    assert m.counters.faults_delivered == ref_m.counters.faults_delivered
    assert m.counters.traps_delivered == 0
    assert m.async_fault_pending == ref_m.async_fault_pending
    assert det.delegations == ref_det.delegations
    assert det.counters == ref_det.counters
    assert mem.snapshot() == ref_mem.snapshot()
    if expected is None:
        assert m.regs == ref_m.regs and m.pc == 1


class TestSlowPathReach:
    """Which accesses take the benign verdict or reach `handle_tag_mismatch`.
    `Machine.run` walks every access's granules itself, so none calls
    `decode` or `tag_check`."""

    @pytest.fixture
    def slow_calls(self, monkeypatch):
        calls = []
        for owner, name in ((Machine, "decode"), (Machine, "tag_check"),
                            (Detector, "pass_benign_mismatch"),
                            (Detector, "handle_tag_mismatch")):
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(owner, name, spy)
        return calls

    @staticmethod
    def memory():
        # granules 0x1ff0..0x211f wear tag 0xA; 0x2120 holds an armed
        # tripwire of a buffer with 8 addressable bytes; 0x2130 wears 0x5.
        # 0x2ff0 wears 0xA, and 0x3000 holds another armed tripwire of 8
        # addressable bytes.  Pages start at 0x2000 and 0x3000.
        mem = TaggedMemory()
        mem.set_tag_range(0x1FF0, 0x130, 0xA)
        ref_arm(mem, 0x2120, 8, 0xA)
        mem.set_granule_tag(0x2130, 0x5)
        mem.set_granule_tag(0x2FF0, 0xA)
        ref_arm(mem, 0x3000, 8, 0xA)
        return mem

    def run_access(self, start, width, pair, tripwires=True, mode=Mode.SYNC):
        m = machine_for(f"ld r4 [r1, #0] w{width} p{pair}\nmov r6 1\nhalt", mode)
        m.regs[1] = 0x0A00_0000_0000_0000 | start
        det = Detector(SimConfig(mode=mode.value, tripwires=tripwires))
        return m.step(self.memory(), None, det), m, det

    def test_matching_access_across_three_granules_stays_inline(self, slow_calls):
        end, m, _ = self.run_access(0x20F8, 16, 2)       # 0x20f8..0x2117
        assert end is None and m.counters.faults_delivered == 0 and slow_calls == []

    def test_benign_tripwire_hit_across_three_granules_stays_inline(self, slow_calls):
        end, m, det = self.run_access(0x2108, 16, 2)     # 0x2108..0x2127, in bounds
        assert end is None and m.counters.faults_delivered == 1
        assert slow_calls == ["pass_benign_mismatch"]
        assert det.delegations == {1: 0x2120}

    def test_access_across_a_page_edge_walks_inline(self, slow_calls):
        end, m, _ = self.run_access(0x1FF8, 8, 2)        # 0x1ff8..0x2007
        assert end is None and m.counters.faults_delivered == 0 and slow_calls == []

    def test_bug_within_a_page_takes_the_benign_verdict_once(self, slow_calls):
        end, m, _ = self.run_access(0x211C, 16, 1)       # 0x211c..0x212b: 12 bytes of 8
        assert end.report.kind.value == "IntraGranuleOverflow"
        assert end.report.fault_address == 0x2120 and m.counters.faults_delivered == 1
        assert slow_calls == ["pass_benign_mismatch", "handle_tag_mismatch"]

    def test_bug_across_a_page_edge_takes_the_benign_verdict_once(self, slow_calls):
        end, _, _ = self.run_access(0x2FFC, 16, 1)       # 0x2ffc..0x300b: 12 bytes of 8
        assert end.report.kind.value == "IntraGranuleOverflow"
        assert end.report.fault_address == 0x3000
        assert slow_calls == ["pass_benign_mismatch", "handle_tag_mismatch"]

    @pytest.mark.parametrize("width, pair", [(1, 2), (2, 1), (4, 1), (8, 1), (8, 2), (16, 1)])
    def test_access_one_byte_into_the_next_granule_faults_there(self, slow_calls, width,
                                                                pair):
        # the last byte is the first of granule 0x2120, whose tag is not 0xA
        end, m, _ = self.run_access(0x2121 - width * pair, width, pair, tripwires=False)
        assert end.report.fault_address == 0x2120 and m.counters.faults_delivered == 1
        assert slow_calls == ["pass_benign_mismatch", "handle_tag_mismatch"]

    def test_plain_tag_check_across_a_page_edge_reports_the_bug(self, slow_calls):
        # the pointer's granule 0x2ff0 wears its tag: an overflow past the edge
        end, _, _ = self.run_access(0x2FF8, 8, 2, tripwires=False)   # 0x2ff8..0x3007
        assert end.report.kind.value == "CrossGranuleOverflow"
        assert slow_calls == ["pass_benign_mismatch", "handle_tag_mismatch"]

    def test_async_mismatch_across_a_page_edge_is_queued(self, slow_calls):
        # 0x2ff8..0x3007: only the armed tripwire past the edge mismatches
        end, m, _ = self.run_access(0x2FF8, 8, 2, mode=Mode.ASYNC)
        assert end is None and m.async_fault_pending and m.counters.faults_delivered == 1
        assert slow_calls == []

    def test_no_access_calls_decode_or_tag_check(self, slow_calls):
        # within one granule, across granules in a page, across a page edge
        # and past the top of the address space; passing and faulting
        shapes = ((0x2008, 8, 1), (0x2128, 8, 1), (0x20F8, 16, 2), (0x211C, 16, 1),
                  (0x1FF8, 8, 2), (0x2FF8, 8, 2), (_TOP - 8, 16, 1))
        for mode in (Mode.SYNC, Mode.ASYNC):
            for start, width, pair in shapes:
                self.run_access(start, width, pair, mode=mode)
        assert "pass_benign_mismatch" in slow_calls   # the spies are in place
        assert "decode" not in slow_calls and "tag_check" not in slow_calls

    def test_benign_hit_across_a_page_edge_resumes_and_delegates(self, slow_calls):
        # the short granule of the 20-byte buffer starts page 0x101000, and
        # the load reads bytes 14..17 of the buffer, 2 of its 4 in that granule
        sim = Simulation(parse_program("alloc r9 4080\nalloc r0 20\nld r4 [r0, #14] w4 p1\n"
                                       "mov r6 1\nhalt"),
                         SimConfig(alloc_threshold=ALWAYS_ARM, sampling_rate=1))
        assert sim.machine.run(sim.mem, sim.allocator, sim.detector, 3) is None
        assert sim.detector.delegations == {3: 0x10_1000}
        assert slow_calls == ["pass_benign_mismatch"]
        report = sim.run()
        assert report.outcome == "CleanHalt" and sim.protocol_quiescent()
        assert report.counters["faults_delivered"] == 1
        assert report.counters["traps_delivered"] == 1

    def test_async_mismatches_before_a_drain_build_no_fault(self, monkeypatch):
        built = []

        def new_fault(cls, values):
            built.append(values[1])
            return tuple.__new__(cls, values)
        monkeypatch.setattr(cpu, "_new_fault", new_fault)
        m = machine_for("ld r4 [r1, #0] w8 p1\nld r4 [r2, #0] w8 p1\nhalt", Mode.ASYNC)
        m.regs[1] = 0x0A00_0000_0000_2130                 # memory tag 0x5
        m.regs[2] = 0x0A00_0000_0000_2128                 # the armed tripwire
        end = m.run(self.memory(), None, Detector(SimConfig(mode="async")), 3)
        assert end.outcome == "BugReported" and end.report.pc == 2
        assert m.counters.faults_delivered == 2 and built == []
        assert not m.async_fault_pending
