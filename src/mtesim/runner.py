"""Wires memory, allocator, sampler, machine, and detector into a run.

All randomness in a run flows from one seed through named substreams
("allocator", "sampler"), so allocation tags are identical across check
modes and arming decisions never perturb tag draws.  Tripwires require
precise faults, so arming happens only in sync mode with tripwires on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from .allocator import LARGE_THRESHOLD, Allocator
from .cpu import MODES, Machine, Mode, RunCounters
from .detector import BugReport, Detector
from .memory import TaggedMemory
from .sampler import TripwireSampler
from .trace import Program

# alloc_threshold value meaning "arm every short granule, forever"
ALWAYS_ARM = 1 << 62
# a tagged region costs the host one tag byte per granule
MAX_LARGE_THRESHOLD = 1 << 20
_SYNC = Mode.SYNC


def substream(seed, name: str) -> random.Random:
    """Deterministic named RNG substream of a run seed."""
    return random.Random(f"{seed}/{name}")


@dataclass(frozen=True)
class SimConfig:
    """The run configuration, the one place each option and its default
    live.  The allocator and detector read their own fields from it, and
    the CLI's flag defaults are its field defaults."""

    mode: str = "sync"                 # a `Mode` value
    seed: "int | str" = 0              # substream derivations may pass strings
    sampling_rate: int = 1000
    alloc_threshold: int = 1000
    access_threshold: int = 64
    tripwires: bool = True
    overread_skip: bool = False
    odd_even: bool = True
    large_threshold: int = LARGE_THRESHOLD
    include_zero_tag: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        if self.alloc_threshold < 0:
            raise ValueError("alloc_threshold must be >= 0")
        if self.access_threshold < 1:
            raise ValueError("access_threshold must be >= 1")
        if not 0 <= self.large_threshold <= MAX_LARGE_THRESHOLD:
            raise ValueError(f"large_threshold must be in 0..{MAX_LARGE_THRESHOLD}")

    def echo(self) -> dict:
        return dict(vars(self))

    def with_seed(self, seed: "int | str") -> "SimConfig":
        """This configuration under another seed.

        Only the seed changes and no check reads it, so the copy skips
        `__init__` and its validation: `dataclasses.replace` would repeat
        them for every trial of an experiment.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(vars(self), seed=seed)
        return clone


@dataclass
class RunReport:
    outcome: str                       # "CleanHalt" | "BugReported"
    bug: Optional[BugReport]
    counters: dict
    config_echo: dict

    @property
    def exit_code(self) -> int:
        return 1 if self.outcome == "BugReported" else 0

    def to_json_dict(self) -> dict:
        return {**vars(self), "bug": None if self.bug is None else self.bug.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


class Simulation:
    """One program on one fresh machine; exposes internals for inspection."""

    def __init__(self, program: Program, config: Optional[SimConfig] = None):
        config = self.config = config or SimConfig()
        self.program = program
        self.mem = TaggedMemory()
        mode = MODES[config.mode]
        sampler = None
        if config.tripwires and mode is _SYNC:
            seed = config.seed
            sampler = TripwireSampler(lambda: substream(seed, "sampler"),
                                      config.alloc_threshold, config.sampling_rate)
        counters = RunCounters()
        self.allocator = Allocator(self.mem, substream(config.seed, "allocator"), config,
                                   sampler, counters)
        self.detector = Detector(config, counters)
        self.machine = Machine(program, mode, counters)

    def run(self) -> RunReport:
        """Run the program on to its verdict, from wherever the machine is.

        Execution is straight-line, so each slot runs at most once, and a
        budget of one more step than the program has slots always ends in
        a verdict: a program with no `halt` runs off its end and raises
        `TraceRuntimeError`, where one of exactly `len` steps would pause.
        """
        end = self.machine.run(self.mem, self.allocator, self.detector, len(self.program) + 1)
        return RunReport(end.outcome, end.report, self.counters(), self.config.echo())

    def counters(self) -> dict:
        return dict(vars(self.machine.counters))

    def protocol_quiescent(self) -> bool:
        """No open delegation, hence no armed trap; holds at any clean halt."""
        return not self.detector.delegations


def run_program(program: Program, config: Optional[SimConfig] = None) -> RunReport:
    return Simulation(program, config).run()
