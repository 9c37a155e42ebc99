import json
from dataclasses import replace

import pytest

from mtesim import (
    ALWAYS_ARM,
    Opcode,
    SimConfig,
    Simulation,
    WorkloadSpec,
    generate_workload,
    parse_program,
    run_program,
)
from mtesim import runner
from mtesim.cpu import TraceRuntimeError
from mtesim.detector import Detector, revoke_tripwire
from mtesim.experiments import exp_recovery_transparency
from mtesim.runner import RunReport
from mtesim.trace import WORKLOAD_KINDS

INTRA = "alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt\n"
BENIGN = "alloc r0 40\nst r1 [r0, #32] w8 p1\nld r2 [r0, #0] w8 p1\nhalt\n"


def test_counter_invariants():
    programs = generate_workload(WorkloadSpec(kind="benign", count=50, seed=6))
    for i, p in enumerate(programs):
        r = run_program(p, SimConfig(seed=i, alloc_threshold=ALWAYS_ARM))
        c = r.counters
        assert c["traps_delivered"] <= c["faults_delivered"]
        removed = (c["tripwires_removed_by_threshold"]
                   + c["tripwires_removed_by_ret_edge"])
        assert removed <= c["tripwires_armed"]
        assert c["frees"] <= c["allocations"]


# One run-end identity per check mode.  In sync mode every delivered fault
# ends one way: a trap (taken with its hit, or revoking a delegation), a
# retirement, or the reported access bug.  Off mode checks nothing; async
# mode queues its faults and never traps.
_IDENTITY_CONFIGS = (
    SimConfig(),
    SimConfig(alloc_threshold=ALWAYS_ARM),
    SimConfig(alloc_threshold=0, sampling_rate=2),
    SimConfig(alloc_threshold=ALWAYS_ARM, access_threshold=1),
    SimConfig(tripwires=False),
    SimConfig(mode="off"),
    SimConfig(mode="async"),
)


def test_run_end_counter_identities():
    for kind in WORKLOAD_KINDS:
        programs = generate_workload(WorkloadSpec(kind=kind, count=60, seed=31))
        for i, program in enumerate(programs):
            for config in _IDENTITY_CONFIGS:
                report = run_program(program, config.with_seed(i))
                c = report.counters
                # a refused free is the one bug that is not an access
                access_bug = (report.bug is not None
                              and program[report.bug.pc].kind is not Opcode.FREE)
                case = (kind, i, config)
                if config.mode == "sync":
                    assert c["faults_delivered"] == (
                        c["traps_delivered"] + c["tripwires_removed_by_threshold"]
                        + c["tripwires_removed_by_ret_edge"] + access_bug), case
                elif config.mode == "off":
                    assert c["faults_delivered"] == c["traps_delivered"] == 0, case
                else:
                    assert c["traps_delivered"] == 0, case
                    assert (c["faults_delivered"] > 0) == access_bug, case


def test_bug_exit_code_and_echo():
    r = run_program(parse_program(INTRA), SimConfig(seed=1, alloc_threshold=ALWAYS_ARM))
    assert r.outcome == "BugReported" and r.exit_code == 1
    assert r.config_echo["mode"] == "sync"
    assert r.config_echo["seed"] == 1


def test_run_report_json_field_order():
    r = run_program(parse_program(BENIGN), SimConfig(seed=1, alloc_threshold=ALWAYS_ARM))
    d = r.to_json_dict()
    assert list(d) == ["outcome", "bug", "counters", "config_echo"]
    assert list(d["counters"]) == [
        "instructions_executed", "faults_delivered", "traps_delivered",
        "tripwires_armed", "tripwires_removed_by_threshold",
        "tripwires_removed_by_ret_edge", "allocations", "frees",
    ]
    assert list(d["config_echo"]) == [
        "mode", "seed", "sampling_rate", "alloc_threshold", "access_threshold",
        "tripwires", "overread_skip", "odd_even", "large_threshold", "include_zero_tag",
    ]
    json.loads(r.to_json())  # valid JSON


def test_large_threshold_is_capped_at_one_mebibyte():
    # a tagged region costs the host one tag byte per granule
    assert SimConfig(large_threshold=1 << 20).large_threshold == 1 << 20
    for bad in (-1, (1 << 20) + 1, 2**64):
        with pytest.raises(ValueError):
            SimConfig(large_threshold=bad)


STEPPING_CONFIGS = {
    "off": SimConfig(mode="off", tripwires=False),
    "async": SimConfig(mode="async", tripwires=False),
    "sync": SimConfig(tripwires=False),
    "sync_always_arm": SimConfig(alloc_threshold=ALWAYS_ARM),
}


def _outcome(sim, report):
    return (report.to_json_dict(), sim.machine.pc, list(sim.machine.regs),
            sim.mem.snapshot(), dict(sim.detector.delegations))


@pytest.mark.parametrize("mode", list(STEPPING_CONFIGS))
@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_single_stepping_matches_one_run(kind, mode):
    """`step` is `run` with a budget of one: stepping a program to its end
    leaves everything as one `Simulation.run` does."""
    for i, program in enumerate(generate_workload(WorkloadSpec(kind=kind, count=6, seed=3))):
        config = replace(STEPPING_CONFIGS[mode], seed=f"stepping/{kind}/{i}")
        whole = Simulation(program, config)
        expected = _outcome(whole, whole.run())
        stepped = Simulation(program, config)
        end = None
        while end is None:
            end = stepped.machine.step(stepped.mem, stepped.allocator, stepped.detector)
        report = RunReport(end.outcome, end.report, stepped.counters(), config.echo())
        assert _outcome(stepped, report) == expected


def test_run_stops_after_exactly_max_steps():
    program = generate_workload(WorkloadSpec(kind="benign", count=1, seed=2))[0]
    config = SimConfig(seed=4, alloc_threshold=ALWAYS_ARM)
    whole = Simulation(program, config)
    expected = whole.run()
    assert expected.counters["instructions_executed"] == len(program)
    for k in (0, 1, 9, len(program) - 1):
        sim = Simulation(program, config)
        assert sim.machine.run(sim.mem, sim.allocator, sim.detector, k) is None
        # straight-line code: k instructions executed, the next one not yet
        assert sim.machine.counters.instructions_executed == k
        assert sim.machine.pc == k
        # the budget only pauses the machine; running on finishes the program
        assert sim.run().to_json_dict() == expected.to_json_dict()


def test_a_whole_run_without_halt_runs_off_the_end():
    # a budget of one step past the last slot: never a pause
    sim = Simulation(parse_program("mov r0 1\nmov r1 2\nhalt")[:2])
    with pytest.raises(TraceRuntimeError, match="^pc 2 outside program$"):
        sim.run()
    assert sim.machine.counters.instructions_executed == 2


def test_pausing_anywhere_matches_one_run(monkeypatch):
    """A benign hit whose trap slot runs in the same `run` call is rearmed
    with the hit; one where the budget ends first stays delegated until the
    next call's trap.  Either way the run ends as one whole run does."""
    trapped = []
    handle_trap = Detector.handle_trap

    def spy(self, machine, mem, allocator):
        trapped.append(machine.pc)
        return handle_trap(self, machine, mem, allocator)

    monkeypatch.setattr(Detector, "handle_trap", spy)
    programs = generate_workload(WorkloadSpec(kind="benign", accesses=48, count=15, seed=8))
    traps = paused_on_delegation = 0
    for i, program in enumerate(programs):
        config = SimConfig(seed=f"pause/{i}", alloc_threshold=ALWAYS_ARM)
        whole = Simulation(program, config)
        expected = _outcome(whole, whole.run())
        assert trapped == []    # every trap of a whole run is taken with its hit
        traps += whole.counters()["traps_delivered"]
        for k in range(len(program)):
            sim = Simulation(program, config)
            assert sim.machine.run(sim.mem, sim.allocator, sim.detector, k) is None
            delegated = dict(sim.detector.delegations)   # {k: granule} right after a hit
            assert set(delegated) <= {k}
            paused_on_delegation += bool(delegated)
            assert _outcome(sim, sim.run()) == expected
            assert trapped == list(delegated)
            trapped.clear()
    assert traps > 0 and paused_on_delegation > 0


def test_report_bit_stable_under_fixed_seed():
    a = run_program(parse_program(INTRA), SimConfig(seed=5, alloc_threshold=ALWAYS_ARM))
    b = run_program(parse_program(INTRA), SimConfig(seed=5, alloc_threshold=ALWAYS_ARM))
    assert a.to_json() == b.to_json()


def test_modes_share_allocation_tags():
    # named substreams: arming decisions must not perturb tag draws
    tags = {}
    for mode, tripwires in (("off", False), ("sync", True), ("async", False)):
        sim = Simulation(parse_program(BENIGN),
                         SimConfig(mode=mode, tripwires=tripwires, seed=9,
                                   alloc_threshold=ALWAYS_ARM))
        sim.run()
        alloc = sim.allocator
        queued = [r for fifo in alloc._free_lists.values() for r in fifo]
        tags[mode] = ([(r.base, r.tag) for r in alloc.live.values()],
                      [(r.base, r.tag) for r in queued], alloc.rng.getstate())
    assert tags["off"] == tags["sync"] == tags["async"]


def test_async_mode_never_arms():
    sim = Simulation(parse_program(BENIGN),
                     SimConfig(mode="async", seed=9, alloc_threshold=ALWAYS_ARM))
    r = sim.run()
    assert r.counters["tripwires_armed"] == 0


class TestTransparency:
    def test_equivalence_off_vs_sync(self):
        programs = generate_workload(WorkloadSpec(kind="benign", count=60, seed=21))
        result = exp_recovery_transparency(programs, SimConfig(seed=0), 33)
        assert result.passed, result.diffs

    def test_empty_corpus_vacuous_pass_with_warning(self):
        result = exp_recovery_transparency([], SimConfig(seed=0), 33)
        assert result.passed and result.warning is not None

    def test_skipped_revocation_is_detected(self, monkeypatch):
        # a detector that delegates every hit and then never swaps back nor
        # releases its trap leaves the sync run non-quiescent; the harness
        # must fail it
        pass_benign_mismatch = Detector.pass_benign_mismatch

        def delegate_every_hit(self, *args):
            return pass_benign_mismatch(self, *args[:-1], False)  # as if paused after it

        def skip_revocation(self, machine, mem, allocator):
            pass  # the delegation, and with it the trap, stays open

        monkeypatch.setattr(Detector, "pass_benign_mismatch", delegate_every_hit)
        monkeypatch.setattr(Detector, "handle_trap", skip_revocation)
        programs = generate_workload(WorkloadSpec(kind="benign", count=40, seed=22))
        result = exp_recovery_transparency(programs, SimConfig(seed=0), 34)
        assert not result.passed
        assert any("delegation or armed trap" in d for d in result.diffs)

    def test_mutated_detector_loses_repeat_detection(self, monkeypatch):
        # G3: after revocation an identical access faults again; skipping the
        # swap-back forfeits that and a later overflow goes unseen
        trace = (
            "alloc r0 40\n"
            "ld r1 [r0, #32] w8 p1\n"
            "mov r9 0\n"
            "st r2 [r0, #36] w8 p1\n"  # intra overflow
            "halt"
        )
        baseline = run_program(parse_program(trace),
                               SimConfig(seed=4, alloc_threshold=ALWAYS_ARM))
        assert baseline.outcome == "BugReported"

        pass_benign_mismatch = Detector.pass_benign_mismatch

        def skip_swap(self, pc, address, start, size, addrtag, overread_ok, mem, *rest):
            traps = self.counters.traps_delivered
            benign = pass_benign_mismatch(self, pc, address, start, size, addrtag,
                                          overread_ok, mem, *rest)
            if self.counters.traps_delivered != traps:   # rearmed, its trap taken
                revoke_tripwire(mem, address & ~15)  # the delegation's swap, never undone
            return benign

        monkeypatch.setattr(Detector, "pass_benign_mismatch", skip_swap)
        mutated = run_program(parse_program(trace),
                              SimConfig(seed=4, alloc_threshold=ALWAYS_ARM))
        assert mutated.outcome == "CleanHalt"  # the overflow is missed


def test_sampler_substream_is_seeded_only_when_drawn(monkeypatch):
    seeded = []
    real = runner.substream

    def spy(seed, name):
        seeded.append(name)
        return real(seed, name)

    monkeypatch.setattr(runner, "substream", spy)
    program = parse_program(BENIGN)
    run_program(program, SimConfig(seed=3, alloc_threshold=ALWAYS_ARM))
    assert seeded == ["allocator"]
    seeded.clear()
    run_program(program, SimConfig(seed=3, alloc_threshold=0))
    assert seeded == ["allocator", "sampler"]
