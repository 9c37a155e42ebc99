"""mtesim: a deterministic simulator of an MTE-style tagged-memory machine.

The package models 4-bit memory tags over 16-byte granules, a hardened
size-class allocator with random tagging, retag-at-free, and odd-even
tagging, plus byte-granular heap-overflow detection for short granules via
sampled tripwires and a delegation/escalation/revocation fault-recovery
protocol.  A trace-program machine drives it all; a statistical harness
reproduces the stack's probabilistic detection guarantees.
"""

from .allocator import (
    Allocator,
    generate_tag,
    size_class,
)
from .cpu import (
    Instruction,
    Machine,
    Mode,
    Opcode,
)
from .detector import BugKind, check_access, tripwire_armed
from .experiments import (
    exp_collision_rate,
    exp_detection_rate,
    exp_recovery_transparency,
    exp_vulnerable_fraction,
    uniform_sizes,
    wilson_95_ci,
)
from .memory import TaggedMemory, tag_storage_overhead
from .runner import ALWAYS_ARM, SimConfig, Simulation, run_program
from .sampler import TripwireSampler
from .trace import (
    TraceParseError,
    WorkloadSpec,
    check_program_bounds,
    generate_workload,
    parse_program,
    render_program,
)

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_ARM",
    "Allocator",
    "BugKind",
    "Instruction",
    "Machine",
    "Mode",
    "Opcode",
    "SimConfig",
    "Simulation",
    "TaggedMemory",
    "TraceParseError",
    "TripwireSampler",
    "WorkloadSpec",
    "check_access",
    "check_program_bounds",
    "exp_collision_rate",
    "exp_detection_rate",
    "exp_recovery_transparency",
    "exp_vulnerable_fraction",
    "generate_tag",
    "generate_workload",
    "parse_program",
    "render_program",
    "run_program",
    "size_class",
    "tag_storage_overhead",
    "tripwire_armed",
    "uniform_sizes",
    "wilson_95_ci",
]
