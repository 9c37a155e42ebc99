"""Spans around the public functions and methods of each mtesim layer.

`Tracer.install()` replaces the listed module functions and class methods
with wrappers; `uninstall()` puts the originals back, so untraced rounds
run the library unmodified.  Each wrapper opens a span (name, start, end,
parent, trial).  Spans are aggregated as they close: call count, total
time, and self time (duration minus the time of the spans it contains).
Raw spans are kept only while `record` is set, and then only for the
first `keep_trials` trials, so a long traced run stays small in memory.
"""

from __future__ import annotations

import json
from time import perf_counter

from mtesim import allocator, cpu, detector, experiments, memory, runner, sampler, trace

# (span name, owner, attribute)
TARGETS = (
    ("trace.generate_program", trace, "generate_program"),
    ("trace.generate_program", experiments, "generate_program"),
    ("trace.parse_program", trace, "parse_program"),
    ("runner.substream", runner, "substream"),
    ("runner.sim_init", runner.Simulation, "__init__"),
    ("runner.run", runner.Simulation, "run"),
    ("cpu.step", cpu.Machine, "step"),
    ("cpu.decode", cpu.Machine, "decode"),
    ("cpu.tag_check", cpu.Machine, "tag_check"),
    ("memory.read_bytes", memory.TaggedMemory, "read_bytes"),
    ("memory.write_bytes", memory.TaggedMemory, "write_bytes"),
    ("memory.get_granule_tag", memory.TaggedMemory, "get_granule_tag"),
    ("memory.set_granule_tag", memory.TaggedMemory, "set_granule_tag"),
    ("allocator.allocate", allocator.Allocator, "allocate"),
    ("allocator.free", allocator.Allocator, "free"),
    ("allocator.generate_tag", allocator, "generate_tag"),
    ("sampler.should_arm", sampler.TripwireSampler, "should_arm"),
    ("detector.handle_tag_mismatch", detector.Detector, "handle_tag_mismatch"),
    ("detector.handle_trap", detector.Detector, "handle_trap"),
    ("detector.make_bug_report", detector.Detector, "make_bug_report"),
    ("experiments.trial", experiments, "exp_detection_rate"),
    ("experiments.trial", experiments, "exp_recovery_transparency"),
    ("experiments.wilson_95_ci", experiments, "wilson_95_ci"),
)


class Tracer:
    def __init__(self, keep_trials: int = 3):
        self.keep_trials = keep_trials
        self.trial = -1          # trial id stamped on spans; -1 outside trials
        self.record = False      # keep raw spans of trials below keep_trials
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.spans = []          # kept raw spans: (id, name, start, end, parent, trial)
        self.faults = 0          # sync-mode mismatches delivered to the detector
        self.benign = 0          # of those, handled without a bug report
        self.round_trips = []    # fault -> delegate -> trap -> revoke, seconds
        self._pending = {}       # (detector id, trap pc) -> fault handling start
        self._stack = []         # open spans: [child_s, span id]
        self._next_id = 0
        self._originals = []

    def reset_stats(self) -> dict:
        """Return the aggregates so far and start new ones."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if self.record and 0 <= self.trial < self.keep_trials:
                    self.spans.append((span_id, name, start, end, parent, self.trial))

        return traced

    def _wrap_mismatch(self, fn):
        def handle_tag_mismatch(det, fault, mem, alloc, machine):
            start = perf_counter()
            report = fn(det, fault, mem, alloc, machine)
            self.faults += 1
            if report is None:
                self.benign += 1
                if fault.pc + 1 in det.delegations:
                    self._pending[(id(det), fault.pc + 1)] = start
            return report
        return handle_tag_mismatch

    def _wrap_trap(self, fn):
        def handle_trap(det, machine, mem, alloc):
            start = self._pending.pop((id(det), machine.pc), None)
            fn(det, machine, mem, alloc)
            if start is not None:
                self.round_trips.append(perf_counter() - start)
        return handle_trap

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if name == "detector.handle_tag_mismatch":
                wrapped = self._wrap_mismatch(wrapped)
            elif name == "detector.handle_trap":
                wrapped = self._wrap_trap(wrapped)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        self._pending.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, name, start, end, parent, trial in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent, "trial": trial}) + "\n")
