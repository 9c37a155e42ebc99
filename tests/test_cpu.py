import random

import pytest

from mtesim import (
    Allocator,
    AllocatorConfig,
    Instruction,
    Machine,
    Mode,
    Opcode,
    TaggedMemory,
    TrapUnavailable,
    parse_program,
)


def machine_for(text, mode=Mode.SYNC):
    return Machine(parse_program(text), mode)


def ld(dst, base, offset=0, width=8, pair=1, offset_reg=None):
    return Instruction(Opcode.LOAD, dst=dst, base=base, offset=offset,
                       offset_reg=offset_reg, width=width, pair=pair)


class NullDetector:
    """Declares every mismatch a bug; never delegates."""

    def handle_tag_mismatch(self, fault, mem, allocator, machine):
        self.fault = fault
        return object()

    def handle_trap(self, machine, mem, allocator):
        raise AssertionError("no trap expected")

    def report_async(self, fault, pc, mem=None, allocator=None):
        self.drained = (fault, pc)
        return object()

    def report_free_mismatch(self, mismatch, pc, regs):
        return object()


class ResumeDetector(NullDetector):
    def handle_tag_mismatch(self, fault, mem, allocator, machine):
        self.fault = fault
        self.mem_snapshot = (dict(mem.data), dict(mem.tags))
        return None


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


class TestTraps:
    def test_trap_on_ret_slot_unavailable(self):
        m = machine_for("ld r0 [r1, #0] w8 p1\nret\nhalt")
        with pytest.raises(TrapUnavailable):
            m.set_trap(1)

    def test_trap_on_halt_slot_unavailable(self):
        m = machine_for("ld r0 [r1, #0] w8 p1\nhalt")
        with pytest.raises(TrapUnavailable):
            m.set_trap(1)

    def test_trap_past_end_unavailable(self):
        m = machine_for("halt")
        with pytest.raises(TrapUnavailable):
            m.set_trap(5)

    def test_clear_trap_is_noop_when_absent(self):
        m = machine_for("halt")
        m.clear_trap(0)  # no error


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
        data_at_handler, _ = det.mem_snapshot
        assert bytes(data_at_handler[0x1000 + i] for i in range(8)) == b"\xaa" * 8
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
        fault, drain_pc = det.drained
        assert fault.pc == 2 and drain_pc == 3
        assert drain_pc >= fault.pc

    def test_alloc_and_free_route_to_allocator(self):
        mem = TaggedMemory()
        alloc = Allocator(mem, random.Random(0), AllocatorConfig())
        m = machine_for("alloc r0 40\nfree r0\nhalt")
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, alloc, det)
        assert end.outcome == "CleanHalt"
        assert alloc.stats.allocations == 1 and alloc.stats.frees == 1

    def test_ret_falls_through(self):
        mem = TaggedMemory()
        m = machine_for("mov r0 1\nret\nmov r0 2\nhalt", mode=Mode.OFF)
        det = NullDetector()
        end = None
        while end is None:
            end = m.step(mem, None, det)
        assert m.regs[0] == 2
