"""The benchmark's workloads: where each trial's program comes from and how
its runs are checked.

Every trial runs one program three times on fresh machines: in the
workload's checked configuration (sync mode, every short granule armed),
then with checks off, then in sync mode without tripwires.  Only the
program source and the checks differ between workloads.

Library functions are looked up through their modules at call time, so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional

from mtesim import experiments, runner, trace
from mtesim.memory import address_tag

ALWAYS_ARM = runner.ALWAYS_ARM
MODES = ("tripwire", "off", "sync")

# register conventions of the generated programs (see mtesim.trace)
ATTACKER_REG = 0   # overflowing / stale pointer
VICTIM_REG = 1     # far victim of a cross-granule overflow

# Gate for an experiment's detection rate.  A 95% interval misses the true
# rate on one seed in twenty, and the benchmark runs on many seeds, so the
# gate uses a 5-sigma binomial band; the 95% Wilson result is reported.
RATE_SIGMAS = 5.0


def mode_configs(tripwire: runner.SimConfig) -> dict:
    return {
        "tripwire": tripwire,
        "off": replace(tripwire, mode="off", tripwires=False),
        "sync": replace(tripwire, tripwires=False),
    }


def uaf_miss_probability(redraws: int) -> float:
    """Chance the region's tag equals the stale pointer's after `redraws`
    retag-at-free draws: p_1 = 0, p_{n+1} = (1 - p_n) / 14."""
    p = 0.0
    for _ in range(redraws - 1):
        p = (1 - p) / 14
    return p


class Experiment:
    """Single-bug trials as `exp_detection_rate` runs them: trial i runs
    `generate_program(spec, i)` under run seed "<seed>/trial/<i>"."""

    def __init__(self, name: str, spec: trace.WorkloadSpec, tripwire: runner.SimConfig,
                 analytic: float, round_size: int):
        self.name = name
        self.base_spec = spec
        self.tripwire = tripwire
        self.configs = mode_configs(tripwire)
        self.analytic = analytic
        self.round_size = round_size

    def prepare(self, seed: int, size: int) -> None:
        self.seed = seed
        self.size = size
        self.spec = replace(self.base_spec, seed=seed, count=1)

    def program(self, i: int):
        return trace.generate_program(self.spec, i)

    def run_seed(self, i: int) -> str:
        return f"{self.seed}/trial/{i}"

    def tags_differ(self, sim) -> bool:
        raise NotImplementedError

    def check_trial(self, sims: dict, reports: dict) -> Optional[str]:
        trip, off, sync = reports["tripwire"], reports["off"], reports["sync"]
        if off.outcome != "CleanHalt":
            return f"off-mode run reported {off.outcome}"
        if sync.outcome != trip.outcome:
            return f"sync without tripwires {sync.outcome}, with tripwires {trip.outcome}"
        expected = self.tags_differ(sims["tripwire"])
        if (trip.outcome == "BugReported") != expected:
            return f"outcome {trip.outcome} but pointer and memory tags differ: {expected}"
        return None

    def check_rate(self, detected: int, trials: int) -> Optional[str]:
        expect = self.analytic * trials
        band = RATE_SIGMAS * math.sqrt(trials * self.analytic * (1 - self.analytic))
        if abs(detected - expect) > band:
            return (f"detected {detected}/{trials}, analytic {self.analytic:.5f} "
                    f"expects {expect:.1f} +- {band:.1f}")
        return None

    def cross_check(self, detected: int) -> List[str]:
        """Run the library's experiment on the same trials; it must agree."""
        result = experiments.exp_detection_rate(self.spec.kind, self.tripwire, self.size,
                                                 self.seed, self.spec)
        notes = [f"wilson_95_ci {list(result.wilson_95_ci)} holds analytic "
                 f"{self.analytic:.5f}: {result.contains(self.analytic)}"]
        if result.detected != detected:
            notes.append(f"FAIL exp_detection_rate detected {result.detected}, "
                         f"benchmark loop {detected}")
        return notes


class DetectFar(Experiment):
    def tags_differ(self, sim) -> bool:
        regs = sim.machine.regs
        return address_tag(regs[ATTACKER_REG]) != address_tag(regs[VICTIM_REG])


class ChurnUaf(Experiment):
    def tags_differ(self, sim) -> bool:
        ptr = sim.machine.regs[ATTACKER_REG]
        return address_tag(ptr) != sim.mem.get_granule_tag(ptr)


class BenignModes:
    """A pre-generated benign corpus; program i runs under the seed that
    `exp_recovery_transparency` gives it, "<seed>/transparency/<i>"."""

    name = "benign-modes"
    round_size = 1000

    def __init__(self):
        self.tripwire = replace(runner.SimConfig(), alloc_threshold=ALWAYS_ARM)
        self.configs = mode_configs(self.tripwire)

    def prepare(self, seed: int, size: int) -> None:
        self.seed = seed
        self.size = size
        spec = trace.WorkloadSpec(kind="benign", accesses=48, count=size, seed=seed)
        self.corpus = trace.generate_workload(spec)

    def program(self, i: int):
        return self.corpus[i]

    def run_seed(self, i: int) -> str:
        return f"{self.seed}/transparency/{i}"

    def check_corpus(self) -> List[str]:
        return [f"program {i} breaks exact bounds: {v[0].reason}"
                for i, p in enumerate(self.corpus) if (v := trace.check_program_bounds(p))]

    def check_trial(self, sims: dict, reports: dict) -> Optional[str]:
        for mode, report in reports.items():
            if report.outcome != "CleanHalt":
                return f"{mode} run reported {report.outcome}"
            if not sims[mode].protocol_quiescent():
                return f"{mode} run halted with an open delegation or armed trap"
        regs = sims["off"].machine.regs
        for mode in ("sync", "tripwire"):
            if sims[mode].machine.regs != regs:
                return f"final registers differ between off and {mode}"
        return None

    def check_rate(self, detected: int, trials: int) -> Optional[str]:
        return None if detected == 0 else f"{detected} benign runs reported a bug"

    def cross_check(self, detected: int) -> List[str]:
        result = experiments.exp_recovery_transparency(self.corpus, runner.SimConfig(),
                                                       self.seed)
        if result.passed:
            return [f"exp_recovery_transparency passed on {result.programs_checked} programs"]
        return [f"FAIL exp_recovery_transparency: {d}" for d in result.diffs[:5]]


def make_workloads() -> dict:
    # criterion 4's shape: far victim behind an untagged 65,537-byte spacer
    detect_far = DetectFar(
        "detect-far",
        trace.WorkloadSpec(kind="cross", adjacent=False),
        runner.SimConfig(alloc_threshold=ALWAYS_ARM, odd_even=False),
        analytic=14 / 15,
        round_size=1000,
    )
    # 32 reuse cycles over sizes up to 1 KiB: every cycle retags the whole
    # region.  Trial times cluster by size; with five equal weights the
    # median and the 99th percentile sit inside a cluster, not on an edge
    # that moves with the seed.
    cycles = 32
    churn_uaf = ChurnUaf(
        "churn-uaf",
        trace.WorkloadSpec(kind="uaf", reuse_cycles=cycles,
                           size_distribution=((47, 1), (256, 1), (520, 1), (777, 1),
                                              (1023, 1))),
        runner.SimConfig(alloc_threshold=ALWAYS_ARM),
        analytic=1 - uaf_miss_probability(cycles + 1),
        round_size=1000,
    )
    return {w.name: w for w in (detect_far, BenignModes(), churn_uaf)}
