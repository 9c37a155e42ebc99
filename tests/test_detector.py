import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtesim import (
    BugKind,
    Instruction,
    Machine,
    Opcode,
    SimConfig,
    Simulation,
    TaggedMemory,
    check_access,
    parse_program,
    tripwire_armed,
)
from mtesim.allocator import (access_count, arm_tripwire, metadata_span, pass_tripwire,
                              read_tripwire, revoke_tripwire)
from mtesim.detector import Detector, DetectorStats, ProtocolError
from mtesim.runner import ALWAYS_ARM
from mtesim.trace import Program

GBASE = 0x1000


def byte_set_oracle(start, size, addrtag, memtag, metadata, granule_base=GBASE):
    """Independent byte-granular verdict for a faulting access.

    Nothing is addressable with a zero tag on either side; with the
    granule's metadata nibble matching the pointer tag, exactly the first
    `memtag` bytes of the granule are addressable.  Every accessed byte at
    or past the granule start must be addressable (bytes before it were
    already tag-checked by the granules that did not fault).
    """
    if memtag == 0 or addrtag == 0 or metadata != addrtag:
        addressable = frozenset()
    else:
        addressable = frozenset(range(granule_base, granule_base + memtag))
    accessed = frozenset(b for b in range(start, start + size) if b >= granule_base)
    return accessed <= addressable


class TestCheckAccess:
    def test_overflow_past_addressable_bytes(self):
        # 8 addressable bytes, access ends at byte 12 of the granule
        assert check_access(0x1004, 0x1004, 8, 0xA, 8, 0xA) is False

    def test_exact_boundary_is_benign(self):
        assert check_access(0x1000, 0x1000, 8, 0xA, 8, 0xA) is True

    def test_zero_memtag_rejected(self):
        assert check_access(0x1000, 0x1000, 1, 0xA, 0, 0xA) is False

    def test_zero_addrtag_rejected(self):
        assert check_access(0x1000, 0x1000, 1, 0, 8, 0) is False

    def test_metadata_mismatch_rejected(self):
        assert check_access(0x1000, 0x1000, 1, 0x3, 8, 0xA) is False

    def test_unaligned_access_ending_at_limit(self):
        # starts in the previous granule, ends exactly at the addressable limit
        assert check_access(0x1000, 0x0FF8, 16, 0xA, 8, 0xA) is True

    def test_matches_byte_oracle_on_spot_cases(self):
        cases = [
            (0x1004, 8, 0xA, 8, 0xA),
            (0x1000, 8, 0xA, 8, 0xA),
            (0x1000, 1, 0xA, 0, 0xA),
            (0x1000, 1, 0, 8, 0),
            (0x1000, 1, 0x3, 8, 0xA),
            (0x0FF8, 16, 0xA, 8, 0xA),
            (0x100F, 1, 0x5, 15, 0x5),
            (0x100E, 2, 0x5, 15, 0x5),
        ]
        for start, size, at, mt, md in cases:
            f = max(start, GBASE)
            assert check_access(f, start, size, at, mt, md) == \
                byte_set_oracle(start, size, at, mt, md)

    @given(
        start_off=st.integers(-15, 15),
        size=st.sampled_from([1, 2, 4, 8, 16, 32]),
        addrtag=st.integers(0, 15),
        memtag=st.integers(0, 15),
        metadata=st.integers(0, 15),
    )
    def test_matches_byte_oracle_including_spans_from_left(self, start_off, size,
                                                           addrtag, memtag, metadata):
        start = GBASE + start_off
        if start + size <= GBASE:
            return  # access never reaches the granule under test
        f = max(start, GBASE)
        assert check_access(f, start, size, addrtag, memtag, metadata) == \
            byte_set_oracle(start, size, addrtag, memtag, metadata)

    def test_pure_and_total(self):
        for args in [(0, 0, 0, 0, 0, 0), (2**56 - 16, 2**56 - 16, 32, 15, 15, 15)]:
            assert check_access(*args) in (True, False)


def run_sim(text, **cfg):
    cfg.setdefault("seed", 1)
    cfg.setdefault("alloc_threshold", ALWAYS_ARM)
    sim = Simulation(parse_program(text), SimConfig(**cfg))
    report = sim.run()
    return sim, report


class TestRecoveryProtocol:
    def test_swap_is_involution(self):
        mem = TaggedMemory()
        mem.set_granule_tag(GBASE, 8)
        mem.write_byte(GBASE + 15, 0x3A)
        revoke_tripwire(mem, GBASE)
        assert mem.get_granule_tag(GBASE) == 0xA
        assert mem.read_byte(GBASE + 15) == 0x38
        revoke_tripwire(mem, GBASE)
        assert mem.get_granule_tag(GBASE) == 8
        assert mem.read_byte(GBASE + 15) == 0x3A

    def test_bump_carries_into_the_second_metadata_byte(self):
        mem = TaggedMemory()
        mem.set_granule_tag(GBASE, 8)
        mem.write_byte(GBASE + 15, 0xFA)  # count 15, stashed tag 0xA
        assert pass_tripwire(mem, GBASE, 8, 64, delegate=True) == 16
        # delegated: real tag on the granule, addressable count stashed
        assert (mem.read_byte(GBASE + 14), mem.read_byte(GBASE + 15)) == (0x01, 0x08)
        assert read_tripwire(mem, GBASE) == (0xA, 8)

    def test_benign_hit_delegates_then_revokes(self):
        sim, report = run_sim(
            "alloc r0 40\n"
            "ld r1 [r0, #32] w8 p1\n"
            "ld r2 [r0, #32] w8 p1\n"
            "mov r3 1\n"
            "halt"
        )
        assert report.outcome == "CleanHalt"
        # both accesses fault: the tripwire was restored in between
        assert report.counters["faults_delivered"] == 2
        assert report.counters["traps_delivered"] == 2
        assert sim.protocol_quiescent()
        rec = sim.allocator.records[-1]
        assert tripwire_armed(sim.mem, rec)

    def test_second_identical_access_faults_again(self):
        _, report = run_sim(
            "alloc r0 40\nld r1 [r0, #32] w8 p1\nld r1 [r0, #32] w8 p1\nmov r0 0\nhalt"
        )
        assert report.counters["faults_delivered"] == 2

    def test_trap_with_no_delegation_aborts(self):
        det = Detector(SimConfig())
        machine = type("M", (), {"pc": 3})()
        with pytest.raises(ProtocolError):
            det.handle_trap(machine, TaggedMemory(), None)

    def test_counter_removal_at_threshold(self):
        lines = ["alloc r0 40"] + ["ld r1 [r0, #32] w8 p1"] * 10 + ["halt"]
        sim, report = run_sim("\n".join(lines), access_threshold=4)
        assert report.counters["faults_delivered"] == 4
        assert report.counters["tripwires_removed_by_threshold"] == 1
        rec = sim.allocator.records[-1]
        assert not tripwire_armed(sim.mem, rec)
        # metadata zeroed: granule indistinguishable from a never-armed one
        short = rec.base + rec.usable_size - 16
        assert all(sim.mem.read_byte(a) == 0 for a in metadata_span(short, 8))
        assert sim.mem.get_granule_tag(short) == rec.tag

    def test_threshold_one_removes_on_first_hit(self):
        lines = ["alloc r0 40"] + ["ld r1 [r0, #32] w8 p1"] * 3 + ["halt"]
        _, report = run_sim("\n".join(lines), access_threshold=1)
        assert report.counters["faults_delivered"] == 1

    def test_capacity_limit_with_single_byte_padding(self):
        # 47 % 16 == 15: one padding byte, 4-bit counter, capacity 15
        lines = ["alloc r0 47"] + ["ld r1 [r0, #32] w8 p1"] * 40 + ["halt"]
        _, report = run_sim("\n".join(lines), access_threshold=64)
        assert report.counters["faults_delivered"] == 15

    def test_ret_edge_retires_tripwire(self):
        sim, report = run_sim(
            "alloc r0 23\n"
            "ld r1 [r0, #16] w4 p1\n"
            "ret\n"
            "st r2 [r0, #17] w8 p1\n"  # overflow, now invisible
            "halt"
        )
        assert report.outcome == "CleanHalt"
        assert report.counters["tripwires_removed_by_ret_edge"] == 1
        assert report.counters["faults_delivered"] == 1
        rec = sim.allocator.records[-1]
        assert not tripwire_armed(sim.mem, rec)
        short = rec.base + rec.usable_size - 16
        # granule wears the real tag; the metadata stays as the hit left it
        assert read_tripwire(sim.mem, short) == (rec.tag, rec.tag)
        assert access_count(sim.mem, short, 7) == 1


class TestReports:
    def test_report_is_pure_of_machine_state(self):
        sim = Simulation(parse_program(
            "alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt"
        ), SimConfig(seed=1, alloc_threshold=ALWAYS_ARM))
        # run until just before the faulting store
        sim.machine.step(sim.mem, sim.allocator, sim.detector)
        before = sim.mem.snapshot()
        regs_before = list(sim.machine.regs)
        end = sim.machine.step(sim.mem, sim.allocator, sim.detector)
        assert end is not None and end.outcome == "BugReported"
        assert sim.mem.snapshot() == before
        assert sim.machine.regs == regs_before

    def test_intra_report_fields(self):
        _, report = run_sim("alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt")
        bug = report.bug
        assert bug.kind is BugKind.INTRA_GRANULE_OVERFLOW
        assert bug.addressable_bytes == 8
        assert bug.accessed_bytes_in_granule == 12
        assert bug.memtag == 8

    def test_cross_report_labels_live_attacker(self):
        _, report = run_sim("alloc r0 48\nalloc r1 32\nst r2 [r0, #50] w4 p1\nhalt")
        assert report.bug.kind is BugKind.CROSS_GRANULE_OVERFLOW

    def test_uaf_report_carries_stale_and_current_tags(self):
        sim, report = run_sim("alloc r0 40\nfree r0\nld r1 [r0, #0] w1 p1\nhalt")
        bug = report.bug
        assert bug.kind is BugKind.USE_AFTER_FREE_OR_WILD
        assert bug.addrtag != bug.memtag
        assert bug.memtag == sim.mem.get_granule_tag(bug.fault_address)

    def test_use_after_free_is_detected_when_the_region_drew_tag_0(self):
        # with include_zero_tag a primary region may draw tag 0; its free
        # still retags it, so the stale pointer faults on every seed
        program = parse_program("alloc r0 40\nfree r0\nld r1 [r0, #0] w8 p1\nhalt")
        config = SimConfig(include_zero_tag=True, tripwires=False)
        zero_tag_seeds = 0
        for seed in range(200):
            sim = Simulation(program, config.with_seed(seed))
            report = sim.run()
            zero_tag_seeds += sim.machine.regs[0] >> 56 == 0
            assert report.outcome == "BugReported", seed
        assert zero_tag_seeds > 0

    def test_zero_tag_pointer_report(self):
        # untagged pointer aimed at the tagged allocation (heap base 0x100000)
        _, report = run_sim(
            "alloc r0 40\nmov r1 1048576\nst r2 [r1, #0] w1 p1\nhalt", seed=2
        )
        assert report.bug.kind is BugKind.ZERO_TAG

    def test_overflow_detected_on_reused_region_for_every_seed(self):
        trace = "alloc r0 40\nfree r0\nalloc r1 40\nst r2 [r1, #36] w8 p1\nhalt"
        program = parse_program(trace)
        missed = [seed for seed in range(300)
                  if Simulation(program, SimConfig(seed=seed, alloc_threshold=ALWAYS_ARM))
                  .run().outcome != "BugReported"]
        assert missed == []

    def test_report_json_is_golden(self):
        _, report = run_sim("alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt")
        regs = [0] * 32
        regs[0] = report.bug.regs[0]
        expected = (
            '{"kind": "IntraGranuleOverflow", "pc": 1, "fault_address": "0x100024", '
            '"addrtag": 11, "memtag": 8, "addressable_bytes": 8, '
            '"accessed_bytes_in_granule": 12, "regs": ['
            + ", ".join(f'"0x{r:x}"' for r in regs)
            + ', "0x1"]}'
        )
        assert report.bug.to_json() == expected
        assert len(report.bug.to_json_dict()["regs"]) == 33


class TestSpanningStorePrecision:
    def test_nothing_commits_when_a_later_granule_faults(self):
        # store spans a matching granule then the armed short granule and
        # overflows: the bug report must arrive with zero bytes written
        sim = Simulation(parse_program(
            "alloc r0 40\n"
            "mov r1 1229782938247303441\n"    # 0x1111111111111111
            "st r1 [r0, #28] w16 p1\n"        # [28, 44): granule 1 matches, granule 2 trips
            "halt"
        ), SimConfig(seed=1, alloc_threshold=ALWAYS_ARM))
        report = sim.run()
        assert report.outcome == "BugReported"
        base = sim.allocator.records[-1].base
        assert sim.mem.read_bytes(base + 28, 16) == bytes(16)


class TestOverreadSkip:
    TRACE = (
        "alloc r0 40\n"
        "ld r1 [r0, #32] w16 p1 overread_ok\n"  # reads past byte 40, within the granule
        "mov r2 1\n"
        "halt"
    )

    def test_skip_off_reports_overread(self):
        _, report = run_sim(self.TRACE)
        assert report.outcome == "BugReported"
        assert report.bug.kind is BugKind.INTRA_GRANULE_OVERFLOW

    def test_skip_on_delegates_without_counting(self):
        sim, report = run_sim(self.TRACE, overread_skip=True)
        assert report.outcome == "CleanHalt"
        rec = sim.allocator.records[-1]
        short = rec.base + rec.usable_size - 16
        # counter untouched, tripwire restored
        assert access_count(sim.mem, short, 8) == 0
        assert sim.mem.get_granule_tag(short) == 8

    def test_skip_does_not_cover_unmarked_accesses(self):
        trace = self.TRACE.replace(" overread_ok", "")
        _, report = run_sim(trace, overread_skip=True)
        assert report.outcome == "BugReported"


# property: a benign hit taken in one call (`Detector.pass_benign_mismatch`
# through `pass_benign_hit`) and its trap match the stepwise reference below,
# `read_tripwire` -> `check_access` (or the overread-skip rule) ->
# `can_trap` -> `pass_tripwire`, then `revoke_tripwire` at the trap.  The
# granule holds an armed tripwire in any counter state, or program data; a
# declined hit must leave memory, stats and delegations untouched.

_TOP = 1 << 56


def stepwise_hit(config, stats, delegations, pc, address, start, size, addrtag,
                 overread_ok, mem, machine):
    if not config.tripwires:
        return False
    memtag, metadata = read_tripwire(mem, address)
    if (config.overread_skip and overread_ok
            and memtag != 0 and addrtag != 0 and metadata == addrtag):
        threshold = None
    elif check_access(address, start, size, addrtag, memtag, metadata):
        threshold = config.access_threshold
    else:
        return False
    granule = address & ~15
    delegate = machine.can_trap(pc + 1)
    count = pass_tripwire(mem, granule, memtag, threshold, delegate)
    if count == 0 and threshold is not None:
        stats.tripwires_removed_by_threshold += 1
    elif delegate:
        delegations[pc + 1] = granule
    else:
        stats.tripwires_removed_by_ret_edge += 1
    return True


@settings(max_examples=400, deadline=None)
@given(granule=st.sampled_from([0x1000, 0x1FF0, 0x10_0FF0, _TOP - 16]),
       state=st.sampled_from(["armed", "armed", "armed", "data", "untouched"]),
       addressable=st.one_of(st.integers(1, 15), st.sampled_from([14, 15])),
       real_tag=st.integers(0, 15), memtag=st.integers(0, 15),
       # any count, one next to a carry into the second byte, or (negative)
       # that far below the smaller of the threshold and the capacity
       count=st.one_of(st.integers(0, 4094), st.sampled_from([14, 15, 16]),
                       st.integers(-2, -1)),
       padding=st.binary(min_size=16, max_size=16),
       addrtag=st.one_of(st.none(), st.none(), st.integers(0, 15)),
       width=st.sampled_from([1, 2, 4, 8, 16]), pair=st.sampled_from([1, 2]),
       reach=st.integers(1, 16), overread_ok=st.booleans(),
       overread_skip=st.booleans(), tripwires=st.sampled_from([True, True, True, False]),
       threshold=st.sampled_from([1, 2, 3, 64, 4095, 10_000]),
       after=st.sampled_from(["mov", "ret", "halt", "end"]))
def test_fused_benign_hit_matches_stepwise_reference(
        granule, state, addressable, real_tag, memtag, count, padding, addrtag, width, pair,
        reach, overread_ok, overread_skip, tripwires, threshold, after):
    mem = TaggedMemory()
    if state != "untouched":
        mem.write_bytes(granule, padding)
        mem.set_granule_tag(granule, memtag)
    if state == "armed":
        arm_tripwire(mem, granule, addressable, real_tag)
        capacity = 15 if addressable == 15 else 4095
        count = max(0, min(threshold, capacity) + count) if count < 0 else count % capacity
        word = count << 4 | real_tag
        mem.write_byte(granule + 15, word & 0xFF)
        if addressable <= 14:
            mem.write_byte(granule + 14, word >> 8)
    if addrtag is None:
        addrtag = real_tag
    size = width * pair
    start = granule + reach - size           # may begin in the granule before
    address = max(start, granule)            # lowest accessed address in the granule
    halt = Instruction(Opcode.HALT)
    rest = {"mov": (Instruction(Opcode.MOV, dst=6, imm=1), halt),
            "ret": (Instruction(Opcode.RET), halt), "halt": (halt,), "end": ()}[after]
    program = Program((Instruction(Opcode.LOAD, dst=4, base=1, width=width, pair=pair),)
                      + rest)
    config = SimConfig(tripwires=tripwires, overread_skip=overread_skip,
                       access_threshold=threshold)
    det, machine = Detector(config), Machine(program)
    ref_mem, ref_stats, ref_delegations = copy.deepcopy(mem), DetectorStats(), {}
    before = mem.snapshot()

    verdict = det.pass_benign_mismatch(0, address, start, size, addrtag, overread_ok, mem,
                                       machine)
    expected = stepwise_hit(config, ref_stats, ref_delegations, 0, address, start, size,
                            addrtag, overread_ok, ref_mem, machine)
    assert verdict == expected
    assert mem.snapshot() == ref_mem.snapshot()
    assert det.stats == ref_stats
    assert det.delegations == ref_delegations
    if not verdict:
        assert mem.snapshot() == before and det.stats == DetectorStats()
        assert det.delegations == {}
    if det.delegations:
        machine.pc = 1
        det.handle_trap(machine, mem, None)
        revoke_tripwire(ref_mem, ref_delegations.pop(1))
        assert mem.snapshot() == ref_mem.snapshot() and det.quiescent()
