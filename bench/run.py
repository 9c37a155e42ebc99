"""mtesim benchmark: host-time throughput end to end and per layer.

    python3 bench/run.py --workload detect-far --seed 1 --seconds 30 --trace 0

The library is imported from the repository's ./src.  A run sets the
workload up several times (reporting the median), then repeats one fixed
round of trials until --seconds have passed.  Every round must produce the
same report digest and simulated counts.  --trace 0 prints the end-to-end
metrics; --trace 1 measures untraced rounds for a third of the time, then
traced rounds, and prints the per-layer metrics.  The last line of standard
output is one JSON object; details and raw spans go to .bench_out/.
bench/METRICS.md says what each metric means and how times are taken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("detect-far", "benign-modes", "churn-uaf")
SETUP_REPEATS = 3
WARMUP_TRIALS = 10
TRACED_SHARE = 2 / 3   # of --seconds, in a --trace 1 run

# Host time is reported on a nominal host: each time is multiplied by the
# host's speed, read from a fixed reference loop just before and just after
# every CHUNK trials.  The cores are shared with other tenants, whose load
# changes the speed of every Python loop by tens of percent for minutes.
CHUNK = 50
REFERENCE_LOOPS = 400
NOMINAL_RATE = 2.6e5   # reference-loop iterations per second of the nominal host


@dataclass(frozen=True)
class _Item:
    key: int
    tag: int
    size: int


class _Store:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cells = {}

    def put(self, item):
        for k in range(item.key, item.key + item.size, 4):
            self.cells[k >> 2] = item.tag
        return item

    def get(self, key):
        return self.cells.get(key >> 2, 0)


def _reference_loop(n):
    """Mixed interpreter work that shares no code with mtesim: seeded RNGs,
    frozen dataclasses, method calls, dict stores and string formatting.
    A plain dict loop tracked contention on the reference host about half
    as well."""
    acc = 0
    store = _Store("reference/0")
    for i in range(n):
        item = store.put(_Item(key=(i * 40503) & 0xFFFF, tag=store.rng.randrange(1, 16),
                               size=16 + (i & 3) * 8))
        acc += store.get(item.key) + len(f"r{item.tag} {item.size}".split())
        if i % 64 == 63:
            store = _Store(f"reference/{i}")
    return acc


def host_speed():
    """How fast this host runs Python now, relative to the nominal host."""
    start = perf_counter()
    _reference_loop(REFERENCE_LOOPS)
    return REFERENCE_LOOPS / (perf_counter() - start) / NOMINAL_RATE


def timed(fn):
    """Run fn(); return (nominal seconds, host seconds)."""
    before = host_speed()
    start = perf_counter()
    fn()
    took = perf_counter() - start
    return took * (before + host_speed()) / 2, took


def import_library():
    """Import mtesim from ./src and the benchmark modules; (nominal, host) seconds."""
    src = ROOT / "src"
    if not (src / "mtesim" / "__init__.py").is_file():
        sys.exit(f"bench: no mtesim sources under {src}")
    sys.path.insert(0, str(src))

    def load():
        import mtesim  # noqa: F401
        import tracer  # noqa: F401
        import workloads  # noqa: F401

    took = timed(load)
    loaded = Path(sys.modules["mtesim"].__file__).resolve().parent
    if loaded != (src / "mtesim").resolve():
        sys.exit(f"bench: imported mtesim from {loaded}, not from {src}")
    return took


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_round(w, n, tracer=None):
    """Run trials 0..n-1 of workload `w` once in every mode, checking each.

    Per-trial host times are kept by trial index ("trial" is program plus
    tripwire run; one entry per mode for the runs), inf for a failed trial,
    with the host's speed around each trial.
    """
    from mtesim.runner import Simulation
    from workloads import MODES

    times = {key: [math.inf] * n for key in ("trial",) + MODES}
    instr = {mode: [0] * n for mode in MODES}
    speed = [1.0] * n
    sim = Counter()
    digest = hashlib.sha256()
    detected = lines = resident = 0
    problems = []
    before, chunk_start = host_speed(), 0
    for i in range(n + 1):
        if i == n or (i and i % CHUNK == 0):
            after = host_speed()
            speed[chunk_start:i] = [(before + after) / 2] * (i - chunk_start)
            before, chunk_start = after, i
            if i == n:
                break
        if tracer is not None:
            tracer.trial = i
        configs = {m: replace(c, seed=w.run_seed(i)) for m, c in w.configs.items()}
        sims, reports, took = {}, {}, {}
        try:
            start = perf_counter()
            program = w.program(i)
            got_program = perf_counter()
            for mode in MODES:
                t0 = perf_counter()
                sims[mode] = s = Simulation(program, configs[mode])
                reports[mode] = s.run()
                took[mode] = perf_counter() - t0
            problem = w.check_trial(sims, reports)
        except Exception as exc:  # a failed operation, counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"trial {i}: {problem}")
            digest.update(f"{i} failed\n".encode())
            continue
        times["trial"][i] = got_program - start + took["tripwire"]
        for mode in MODES:
            times[mode][i] = took[mode]
            instr[mode][i] = reports[mode].counters["instructions_executed"]
            digest.update(json.dumps(reports[mode].to_json_dict(), sort_keys=True).encode())
        trip = reports["tripwire"]
        sim.update(trip.counters)
        detected += trip.outcome == "BugReported"
        lines += len(program)
        resident += len(sims["tripwire"].mem.data) + len(sims["tripwire"].mem.tags)
    instructions = sim["instructions_executed"]
    return {
        "trials": n,
        # compact, so that memory does not grow with the number of rounds
        "times": {k: array("f", v) for k, v in times.items()},
        "speed": array("f", speed),
        "instr": instr,
        "digest": digest.hexdigest(),
        "sim": {
            "sim.instructions": instructions,
            "sim.faults_per_kinstr": 1000 * sim["faults_delivered"] / max(instructions, 1),
            "sim.traps_per_kinstr": 1000 * sim["traps_delivered"] / max(instructions, 1),
            "sim.tripwires_armed": sim["tripwires_armed"],
            "sim.retired_threshold": sim["tripwires_removed_by_threshold"],
            "sim.retired_ret_edge": sim["tripwires_removed_by_ret_edge"],
            "sim.detected": detected,
        },
        "lines": lines,
        "resident": resident,
        "problems": problems,
    }


def trial_times(rounds, nominal=True):
    """Each trial's median time over the rounds, per timed key.

    Times are scaled to the nominal host unless `nominal` is false.
    Failed trials are dropped.
    """
    out = {}
    for key in rounds[0]["times"]:
        per_round = [[t * f for t, f in zip(r["times"][key], r["speed"])] if nominal
                     else r["times"][key] for r in rounds]
        out[key] = [statistics.median(col) for col in zip(*per_round)]
    ok = [i for i, t in enumerate(out["trial"]) if t < math.inf]
    return {k: [v[i] for i in ok] for k, v in out.items()}, ok


def throughput(rounds, nominal=True):
    """Trials per second and simulated instructions per second per mode."""
    from workloads import MODES

    times, ok = trial_times(rounds, nominal)
    if not ok:
        return 0.0, dict.fromkeys(MODES, 0.0)
    instr = rounds[0]["instr"]
    per_mode = {m: sum(instr[m][i] for i in ok) / sum(times[m]) for m in MODES}
    return len(ok) / sum(times["trial"]), per_mode


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(w, n, seconds, min_rounds, tracer=None):
    """Repeat the round; also return the peak memory after the first one,
    before the stored timings of later rounds add to it."""
    rounds, rss = [], None
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.record = not rounds
        r = run_round(w, n, tracer)
        if rounds:
            del r["instr"]  # the digest check covers it; only round 0's is used
        else:
            rss = peak_rss_mb()
        rounds.append(r)
    return rounds, rss


def setup(w, seed, n, repeats):
    """Prepare the workload and warm up, `repeats` times; median (nominal, host) seconds."""
    def once():
        w.prepare(seed, n)
        run_round(w, min(WARMUP_TRIALS, n))

    took = [timed(once) for _ in range(repeats)]
    return tuple(statistics.median(t[k] for t in took) for k in (0, 1))


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, problem):
        self.attempted += 1
        if problem:
            self.failures.append(problem)

    def rounds(self, rounds):
        first = rounds[0]
        for r in rounds:
            self.attempted += r["trials"] - len(r["problems"])
            for p in r["problems"]:
                self.check(p)
        for k, r in enumerate(rounds[1:], start=1):
            self.check(None if (r["digest"], r["sim"]) == (first["digest"], first["sim"])
                       else f"round {k} digest or sim counts differ from round 0")


def end_to_end_metrics(rounds, setup_s, rss, nominal=True):
    times, _ = trial_times(rounds, nominal)
    trials, runs = sorted(times["trial"]), sorted(times["tripwire"])
    trials_per_s, instr_per_s = throughput(rounds, nominal)
    m = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "trials_per_s": (trials_per_s, "1/s"),
        "trial_ms.p50": (1e3 * percentile(trials, 0.50), "ms"),
        "trial_ms.p99": (1e3 * percentile(trials, 0.99), "ms"),
        "run_ms.p50": (1e3 * percentile(runs, 0.50), "ms"),
        "run_ms.p99": (1e3 * percentile(runs, 0.99), "ms"),
    }
    for mode, value in instr_per_s.items():
        m[f"instr_per_s.{mode}"] = (value, "1/s")
    return m


def per_layer_metrics(plain, traced, stats, tr, n):
    """Per-layer figures from the traced run's span aggregates."""
    merged = {}
    for phase in stats.values():
        for name, (calls, total, self_s) in phase.items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    rounds = stats["rounds"]
    traced_trials = n * len(traced)

    def us(name, self_time=False):
        calls, total, self_s = merged.get(name, (0, 0.0, 0.0))
        return 1e6 * (self_s if self_time else total) / calls if calls else 0.0

    def per_trial(name):
        return rounds.get(name, (0, 0.0, 0.0))[0] / traced_trials

    first = traced[0]
    plain_trials, plain_instr = throughput(plain)
    trial_self = merged.get("experiments.trial", (0, 0.0, 0.0))[2]
    m = {
        "trace.generate_program.us": (us("trace.generate_program"), "us"),
        "trace.parse_program.us": (us("trace.parse_program"), "us"),
        "trace.lines_per_program": (first["lines"] / n, "lines"),
        "runner.substream.us": (us("runner.substream"), "us"),
        "runner.sim_init.us": (us("runner.sim_init"), "us"),
        "runner.run.self_us": (us("runner.run", self_time=True), "us"),
        "cpu.step.self_us": (us("cpu.step", self_time=True), "us"),
        "cpu.steps": (per_trial("cpu.step"), "calls/trial"),
        "cpu.decode.us": (us("cpu.decode"), "us"),
        "cpu.tag_check.us": (us("cpu.tag_check"), "us"),
        "memory.read_bytes.us": (us("memory.read_bytes"), "us"),
        "memory.write_bytes.us": (us("memory.write_bytes"), "us"),
        "memory.get_granule_tag.calls": (per_trial("memory.get_granule_tag"), "calls/trial"),
        "memory.set_granule_tag.calls": (per_trial("memory.set_granule_tag"), "calls/trial"),
        "memory.set_granule_tag.self_s": (
            rounds.get("memory.set_granule_tag", (0, 0.0, 0.0))[2] / len(traced), "s/round"),
        "memory.resident_entries": (first["resident"] / n, "entries"),
        "allocator.allocate.us": (us("allocator.allocate"), "us"),
        "allocator.free.us": (us("allocator.free"), "us"),
        "allocator.generate_tag.us": (us("allocator.generate_tag"), "us"),
        "sampler.should_arm.calls": (per_trial("sampler.should_arm"), "calls/trial"),
        "detector.handle_tag_mismatch.us": (us("detector.handle_tag_mismatch"), "us"),
        "detector.handle_trap.us": (us("detector.handle_trap"), "us"),
        "detector.round_trip.us": (
            1e6 * statistics.fmean(tr.round_trips) if tr.round_trips else 0.0, "us"),
        "detector.benign_ratio": (tr.benign / tr.faults if tr.faults else 0.0, "ratio"),
        "detector.make_bug_report.us": (us("detector.make_bug_report"), "us"),
        "experiments.trial.self_us": (1e6 * trial_self / n, "us"),
        "experiments.wilson_95_ci.us": (us("experiments.wilson_95_ci"), "us"),
        "tripwire_overhead_x": (plain_instr["off"] / plain_instr["tripwire"], "x"),
        "tracing_overhead": (plain_trials / throughput(traced)[0], "x"),
    }
    units = {"sim.faults_per_kinstr": "1/kinstr", "sim.traps_per_kinstr": "1/kinstr"}
    for name, value in first["sim"].items():
        m[name] = (value, units.get(name, "count"))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="trials per round (corpus size for benign-modes); "
                         "defaults to the workload's own")
    args = ap.parse_args(argv)

    import_s, import_host_s = import_library()
    import tracer as tracing
    import workloads

    w = workloads.make_workloads()[args.workload]
    n = args.size or w.round_size
    ledger = Ledger()
    stats = {}
    tr = None
    if args.trace == 0:
        setup_s, setup_host_s = setup(w, args.seed, n, SETUP_REPEATS)
        rounds, rss = measure(w, n, args.seconds, min_rounds=2)
        cross = w.cross_check(rounds[0]["sim"]["sim.detected"])
        checked = rounds
    else:
        setup(w, args.seed, n, 1)
        plain, _ = measure(w, n, args.seconds * (1 - TRACED_SHARE), min_rounds=2)
        tr = tracing.Tracer()
        tr.install()
        try:
            w.prepare(args.seed, n)
            stats["setup"] = tr.reset_stats()
            traced, _ = measure(w, n, args.seconds * TRACED_SHARE, min_rounds=1, tracer=tr)
            stats["rounds"] = tr.reset_stats()
            tr.trial = -1
            cross = w.cross_check(traced[0]["sim"]["sim.detected"])
            stats["check"] = tr.reset_stats()
        finally:
            tr.uninstall()
        checked = plain + traced

    ledger.rounds(checked)
    ledger.check(w.check_rate(checked[0]["sim"]["sim.detected"], n))
    ledger.check(next((c for c in cross if c.startswith("FAIL")), None))
    if hasattr(w, "check_corpus"):
        ledger.check("; ".join(w.check_corpus()[:3]) or None)

    first = checked[0]
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(checked), "trials_per_round": n,
        "host_speed": statistics.median(s for r in checked for s in r["speed"]),
        "digest": first["digest"], "sim": first["sim"], "machine": machine,
        "notes": cross, "failures": ledger.failures[:20],
    }
    if args.trace == 0:
        metrics = end_to_end_metrics(rounds, import_s + setup_s, rss)
        host = end_to_end_metrics(rounds, import_host_s + setup_host_s, rss, nominal=False)
        record["host_seconds_metrics"] = {k: v for k, (v, _) in host.items()}
    else:
        metrics = per_layer_metrics(plain, traced, stats, tr, n)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tr is not None:
        tr.write_spans(OUT_DIR / f"{stem}-spans.jsonl")

    print(f"# machine {json.dumps(machine)}, host speed {record['host_speed']:.3f} of nominal")
    print(f"# {args.workload} seed {args.seed}: {len(checked)} rounds of {n} trials, "
          f"error_rate {len(ledger.failures) / ledger.attempted:.6f}")
    print(f"# digest {first['digest']}")
    print(f"# sim {json.dumps(first['sim'])}")
    for line in cross + ledger.failures[:10]:
        print(f"# {line}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
