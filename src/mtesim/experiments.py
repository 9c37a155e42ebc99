"""Statistical harness over generated corpora.

Every experiment is reproducible byte-for-byte from (name, config, trials,
seed): programs come from the workload generator's seeded substreams and
each trial runs under a per-trial derived seed.  Rates are reported with
Wilson 95% confidence intervals, which behave sensibly at small counts and
extreme rates.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

from .allocator import ZERO_TAG, generate_tag
from .detector import metadata_span
from .memory import GRANULE_SIZE
from .runner import ALWAYS_ARM, SimConfig, Simulation, run_program, substream
from .trace import (Program, WorkloadError, WorkloadSpec, check_size_distribution,
                    generate_program)

Z_95 = 1.96


def wilson_95_ci(successes: int, trials: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z2 = Z_95 * Z_95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    # the interval's edge is exact at degenerate counts; don't let rounding move it
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class ExperimentResult:
    """A detected count out of `trials`; the rate and its interval follow
    from the two."""

    name: str
    trials: int
    detected: int
    rate: float = field(init=False)
    wilson_95_ci: Tuple[float, float] = field(init=False)
    config_echo: dict

    def __post_init__(self):
        # the module global, so that a wrapper installed on it sees the call
        self.wilson_95_ci = wilson_95_ci(self.detected, self.trials)
        self.rate = self.detected / self.trials

    def contains(self, value: float) -> bool:
        lo, hi = self.wilson_95_ci
        return lo <= value <= hi

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def exp_detection_rate(kind: str, config: SimConfig, trials: int, seed: int,
                       spec: Optional[WorkloadSpec] = None) -> ExperimentResult:
    """Detection rate over `trials` single-bug programs of `kind`.

    Each trial gets its own generated program and its own run seed, both
    derived from `seed`.  The echo leaves out `overread_skip`: no generated
    program marks an access `overread_ok`, so the field changes nothing.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base_spec = spec or WorkloadSpec(kind=kind)
    base_spec = replace(base_spec, kind=kind, seed=seed, count=1)
    detected = 0
    for i in range(trials):
        program = generate_program(base_spec, i)
        report = run_program(program, config.with_seed(f"{seed}/trial/{i}"))
        if report.outcome == "BugReported":
            detected += 1
    return ExperimentResult(f"detection_rate/{kind}", trials, detected,
                            {k: v for k, v in config.echo().items() if k != "overread_skip"})


def exp_vulnerable_fraction(size_distribution: Union[range, Sequence[Tuple[int, float]]],
                            n: int, seed: int) -> float:
    """Fraction of drawn allocation sizes that leave a short granule.

    `size_distribution` is a sequence of (size, weight) pairs, or a range
    of equally likely sizes (`uniform_sizes`), drawn from without listing it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, "vulnerable-fraction")
    if isinstance(size_distribution, range):
        if not size_distribution:
            raise WorkloadError("empty size distribution")
        if size_distribution[0] < 1:
            raise WorkloadError("sizes must be >= 1")
        if size_distribution[-1] > sys.maxsize:
            raise WorkloadError(f"sizes must be <= {sys.maxsize}")
        drawn = rng.choices(size_distribution, k=n)
    else:
        check_size_distribution(size_distribution)
        sizes = [s for s, _ in size_distribution]
        weights = [w for _, w in size_distribution]
        drawn = rng.choices(sizes, weights=weights, k=n)
    short = sum(1 for s in drawn if s % GRANULE_SIZE != 0)
    return short / n


def uniform_sizes(lo: int, hi: int) -> range:
    """Sizes lo..hi, equally likely.  `rng.choices` over the range draws
    exactly what equal (size, 1.0) weights would, without a list of pairs."""
    return range(lo, hi + 1)


def exp_collision_rate(trials: int, seed: int, include_zero: bool = False) -> ExperimentResult:
    """Collision frequency of independently drawn tag pairs.

    The default tag space {1..15} collides at 1/15; admitting tag zero
    models a full 16-tag space and collides at 1/16.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = substream(seed, "collision")
    mask = 0 if include_zero else ZERO_TAG
    collisions = 0
    for _ in range(trials):
        a = generate_tag(mask, rng)
        b = generate_tag(mask, rng)
        if a == b:
            collisions += 1
    return ExperimentResult("collision_rate", trials, collisions,
                            {"include_zero": include_zero, "seed": seed})


@dataclass
class TransparencyResult:
    passed: bool
    programs_checked: int
    diffs: List[str]
    warning: Optional[str] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _metadata_mask(sim: Simulation) -> set:
    """Byte addresses that may hold tripwire metadata: the metadata span of
    every live allocation with a short granule.

    Every short granule of the sync run was armed, and `free` clears a
    region's span in every mode, so a freed region's padding must read the
    same with checks off and on; only live spans may differ.
    """
    mask = set()
    for rec in sim.allocator.live.values():
        if rec.addressable_count:
            mask.update(metadata_span(rec.short_granule_base, rec.addressable_count))
    return mask


def exp_recovery_transparency(programs: Sequence[Program], config: SimConfig,
                              seed: int) -> TransparencyResult:
    """Check that the recovery protocol is invisible to benign programs.

    Each program runs twice, with checks off and in sync mode with every
    short granule armed.  Both runs read `config`'s `large_threshold`,
    `odd_even` and `include_zero_tag`, and the sync run its
    `access_threshold` and (for an access marked `overread_ok`)
    `overread_skip`.  `mode`, `tripwires`, `alloc_threshold` and the per-run
    `seed` are overridden, so `sampling_rate` goes unread.  Final registers
    and data bytes must agree, apart from the metadata bytes of live short
    granules, and the sync run must end quiescent (no open delegation, so
    no armed trap).
    """
    diffs: List[str] = []
    for idx, program in enumerate(programs):
        run_seed = f"{seed}/transparency/{idx}"
        off = Simulation(program, replace(config, mode="off", tripwires=False, seed=run_seed))
        sync = Simulation(program, replace(config, mode="sync", tripwires=True,
                                           alloc_threshold=ALWAYS_ARM, seed=run_seed))
        off_report = off.run()
        sync_report = sync.run()
        if off_report.outcome != "CleanHalt" or sync_report.outcome != "CleanHalt":
            diffs.append(f"program {idx}: outcomes {off_report.outcome} vs {sync_report.outcome}")
            continue
        if not sync.protocol_quiescent():
            diffs.append(f"program {idx}: sync run halted with open delegation or armed trap")
            continue
        if off.machine.regs != sync.machine.regs:
            bad = [i for i in range(len(off.machine.regs))
                   if off.machine.regs[i] != sync.machine.regs[i]]
            diffs.append(f"program {idx}: registers differ at {bad}")
            continue
        off_bytes = dict(off.mem.nonzero_bytes())
        sync_bytes = dict(sync.mem.nonzero_bytes())
        addrs = (off_bytes.keys() | sync_bytes.keys()) - _metadata_mask(sync)
        bad_addrs = [a for a in sorted(addrs) if off_bytes.get(a, 0) != sync_bytes.get(a, 0)]
        if bad_addrs:
            diffs.append(f"program {idx}: data bytes differ at "
                         + ", ".join(f"0x{a:x}" for a in bad_addrs[:8]))
    warning = "empty corpus: vacuous pass" if not programs else None
    return TransparencyResult(
        passed=not diffs,
        programs_checked=len(programs),
        diffs=diffs,
        warning=warning,
    )

