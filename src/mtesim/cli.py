"""Command line front end: run traces, generate corpora, run experiments.

Exit codes: 0 for a clean halt, 1 when a bug is reported, 2 for usage,
parse, configuration, or I/O errors, which print one `error:` line and no
traceback.  Usage errors end in `_Parser.error`; every other exit 2 comes
from the one handler in `main`, around whichever command runs, so the
commands raise their errors and never print them.  The MTESIM_SEED
environment variable supplies a default seed; an explicit --seed always
wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from .allocator import AllocationError
from .cpu import MODES, TraceRuntimeError
from .detector import ProtocolError
from .experiments import (
    exp_collision_rate,
    exp_detection_rate,
    exp_recovery_transparency,
    exp_vulnerable_fraction,
    uniform_sizes,
)
from .runner import ALWAYS_ARM, MAX_LARGE_THRESHOLD, SimConfig, run_program
from .trace import (
    WORKLOAD_KINDS,
    TraceParseError,
    WorkloadError,
    WorkloadSpec,
    check_size_distribution,
    generate_workload,
    parse_program,
    render_program,
)

EXIT_CLEAN = 0
EXIT_BUG = 1
EXIT_USAGE = 2

# A run that cannot go on: out of simulated address space, out of host
# memory (a huge trace, corpus or region's tags), malformed execution state,
# or broken recovery bookkeeping.  Exit 2, not a verdict.
_RUN_ERRORS = (AllocationError, MemoryError, TraceRuntimeError, ProtocolError)


def _reason(e: Exception) -> str:
    """One line for an error; a MemoryError usually carries no message.

    `main` prints it after its `except` block ends: until then the
    traceback keeps the failed run's memory alive, and with the host out of
    memory the print itself could fail.
    """
    if isinstance(e, MemoryError):
        return "out of host memory"
    if isinstance(e, UnicodeDecodeError):
        return f"not UTF-8 text: {e}"
    return str(e)


def _seed(args) -> int:
    """--seed if given, else MTESIM_SEED, else 0; ValueError if the variable is not an integer."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MTESIM_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"MTESIM_SEED must be an integer, got {env!r}") from None


# Argument types: argparse prefixes their errors with the flag's name.  The
# integer flags repeat the bounds `SimConfig` and `WorkloadSpec` check, so
# a bad value is refused naming its flag, not its field.
def _int_in(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """The type of an integer flag whose values run from `lo` to `hi`."""
    expected = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < lo or hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return n
    return parse


_positive = _int_in(1)
_non_negative = _int_in(0)


def _sizes(text: str) -> Tuple[Tuple[int, float], ...]:
    """A `--sizes` value: comma-separated SIZE or SIZE:WEIGHT (weight 1)."""
    out = []
    for part in text.split(","):
        size, _, weight = part.partition(":")
        try:
            out.append((int(size), float(weight) if weight else 1.0))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected SIZE[:WEIGHT], got {part!r}") from None
    try:
        check_size_distribution(out)
    except WorkloadError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return tuple(out)


def _uniform(text: str) -> range:
    """A `--uniform` value LO:HI: the sizes LO..HI, equally likely."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi <= sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI with 1 <= LO <= HI <= {sys.maxsize}, got {text!r}")
    return uniform_sizes(lo, hi)


# `WorkloadSpec`'s default distribution as `--sizes` text
_DEFAULT_SIZES = ",".join(f"{s}:{w:g}" for s, w in WorkloadSpec.size_distribution)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The `SimConfig` flags every config command takes, each stored under
    its field's name.  The parser-level defaults are every field's default,
    whether or not the command has its flag, and override any a flag would
    have; `--seed` alone defaults to None, so MTESIM_SEED can apply."""
    p.set_defaults(always_arm=False,
                   **{f.name: f.default for f in fields(SimConfig) if f.name != "seed"})
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--access-threshold", type=_positive)
    p.add_argument("--no-odd-even", dest="odd_even", action="store_false")
    p.add_argument("--large-threshold", type=_int_in(0, MAX_LARGE_THRESHOLD))
    p.add_argument("--include-zero-tag", action="store_true")


def _add_arming_flags(p: argparse.ArgumentParser) -> None:
    """The check mode and the tripwire arming, for `run` and `exp detection`;
    `exp transparency` sets both itself."""
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--sampling-rate", type=_positive)
    p.add_argument("--alloc-threshold", type=_non_negative)
    p.add_argument("--no-tripwires", dest="tripwires", action="store_false")
    p.add_argument("--always-arm", action="store_true",
                   help="arm every short granule (no sampling phase)")


def _config_from_args(args) -> SimConfig:
    values = {f.name: getattr(args, f.name) for f in fields(SimConfig)}
    values["seed"] = _seed(args)
    if args.always_arm:
        values["alloc_threshold"] = ALWAYS_ARM
    return SimConfig(**values)


def _add_sizes_flag(p) -> None:
    """`--sizes` on a parser or an argument group."""
    p.add_argument("--sizes", type=_sizes, default=_DEFAULT_SIZES)


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the `WorkloadSpec` fields `gen` and `exp detection` share;
    the defaults are the spec's."""
    _add_sizes_flag(p)
    p.add_argument("--non-adjacent", dest="adjacent", action="store_false",
                   default=WorkloadSpec.adjacent)
    p.add_argument("--reuse-cycles", type=_non_negative, default=WorkloadSpec.reuse_cycles)


def _workload_spec(args, **given) -> WorkloadSpec:
    """The workload of `gen` or `exp detection`: the shared flags plus
    `given`; every other field keeps its `WorkloadSpec` default."""
    return WorkloadSpec(kind=args.kind, size_distribution=args.sizes,
                        seed=_seed(args), adjacent=args.adjacent,
                        reuse_cycles=args.reuse_cycles, **given)


class _TraceError(Exception):
    """An error of `run` that belongs to its trace; the message names it."""


def cmd_run(args) -> int:
    config = _config_from_args(args)
    # An OSError of the read names the path itself.
    try:
        text = Path(args.trace).read_text(encoding="utf-8")
        report = run_program(parse_program(text), config)
    except (UnicodeDecodeError, TraceParseError) + _RUN_ERRORS as e:
        raise _TraceError(f"{args.trace}: {_reason(e)}") from None
    payload = report.to_json()
    if args.report:
        Path(args.report).write_text(payload + "\n")
    else:
        print(payload)
    return report.exit_code


def cmd_gen(args) -> int:
    spec = _workload_spec(args, count=args.count, preamble_allocs=args.preamble,
                          accesses=args.accesses)
    programs = generate_workload(spec)
    kind_dir = Path(args.out) / spec.kind
    kind_dir.mkdir(parents=True, exist_ok=True)
    for i, program in enumerate(programs):
        (kind_dir / f"{i:05d}.mtr").write_text(render_program(program))
    # every field of the spec, so the manifest alone rebuilds the corpus
    manifest = {f.name: getattr(spec, f.name) for f in fields(spec) if f.init}
    (kind_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(programs)} programs to {kind_dir}")
    return EXIT_CLEAN


def cmd_exp(args) -> int:
    seed = _seed(args)
    if args.experiment == "detection":
        spec = _workload_spec(args)
        print(exp_detection_rate(args.kind, _config_from_args(args), args.trials, seed,
                                 spec).to_json())
    elif args.experiment == "collision":
        result = exp_collision_rate(args.trials, seed, include_zero=args.include_zero_tag)
        print(result.to_json())
    elif args.experiment == "vulnerable-fraction":
        dist = args.uniform or list(args.sizes)
        fraction = exp_vulnerable_fraction(dist, args.trials, seed)
        print(json.dumps({"name": "vulnerable_fraction", "trials": args.trials,
                          "fraction": fraction, "seed": seed}, indent=2))
    elif args.experiment == "transparency":
        config = _config_from_args(args)
        spec = WorkloadSpec(kind="benign", size_distribution=args.sizes,
                            count=args.trials, seed=seed)
        result = exp_recovery_transparency(generate_workload(spec), config, seed)
        print(json.dumps(result.to_json_dict(), indent=2))
        return EXIT_CLEAN if result.passed else EXIT_BUG
    return EXIT_CLEAN


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line, without the usage text, then exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtesim", description="tagged-memory machine simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a trace program")
    p_run.add_argument("trace")
    p_run.add_argument("--report", help="write the run report JSON here instead of stdout")
    _add_config_flags(p_run)
    _add_arming_flags(p_run)
    # only a hand-written trace marks an access `overread_ok`
    p_run.add_argument("--overread-skip", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="generate a workload corpus")
    p_gen.add_argument("--kind", required=True, choices=WORKLOAD_KINDS)
    p_gen.add_argument("--count", type=_positive, default=100)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default="corpus")
    p_gen.add_argument("--preamble", type=_non_negative, default=WorkloadSpec.preamble_allocs)
    p_gen.add_argument("--accesses", type=_non_negative, default=WorkloadSpec.accesses)
    _add_workload_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    # Each experiment takes only the flags it reads, so a flag it would
    # ignore is a usage error.
    p_exp = sub.add_parser("exp", help="run a statistical experiment")
    experiments = p_exp.add_subparsers(dest="experiment", required=True, metavar="experiment")
    p_det = experiments.add_parser("detection", help="detection rate of one workload kind")
    p_det.add_argument("--kind", default="intra", choices=WORKLOAD_KINDS)
    _add_workload_flags(p_det)
    _add_config_flags(p_det)
    _add_arming_flags(p_det)
    p_col = experiments.add_parser("collision", help="tag collision rate of random tags")
    p_col.add_argument("--seed", type=int, default=None)
    p_col.add_argument("--include-zero-tag", action="store_true")
    p_vul = experiments.add_parser("vulnerable-fraction",
                                   help="share of allocation sizes that leave a short granule")
    p_vul.add_argument("--seed", type=int, default=None)
    dist = p_vul.add_mutually_exclusive_group()
    _add_sizes_flag(dist)
    dist.add_argument("--uniform", type=_uniform,
                      help="uniform size range lo:hi, instead of --sizes")
    p_tra = experiments.add_parser(
        "transparency", help="benign programs end alike with checks off and every tripwire armed")
    _add_sizes_flag(p_tra)
    _add_config_flags(p_tra)
    for p in (p_det, p_col, p_vul, p_tra):
        p.add_argument("--trials", type=_positive, default=1000)
        p.set_defaults(func=cmd_exp)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, WorkloadError, TraceParseError, _TraceError) + _RUN_ERRORS as e:
        reason = _reason(e)
    print(f"error: {reason}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
