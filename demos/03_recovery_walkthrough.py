"""Watching delegation, escalation, and revocation happen.

A benign access to an armed short granule faults.  The handler swaps the
granule tag with the stashed real tag (delegation), puts a trap on the
next instruction (escalation), and lets the access run.  At the trap it
swaps back (revocation), so the very next access to the granule faults
again.  An in-padding counter retires tripwires that fault too often.
"""

from mtesim import ALWAYS_ARM, SimConfig, Simulation, parse_program, tripwire_armed
from mtesim.allocator import access_count, metadata_span, stashed_tag

TRACE = """\
alloc r0 40
ld r1 [r0, #32] w8 p1   # benign: bytes [32, 40) are addressable
ld r2 [r0, #32] w8 p1   # faults again: the tripwire came back
mov r3 1
halt
"""

sim = Simulation(parse_program(TRACE), SimConfig(seed=3, alloc_threshold=ALWAYS_ARM))


def metadata_bytes(rec):
    span = metadata_span(rec.short_granule_base, rec.addressable_count)
    return " ".join(f"{sim.mem.read_byte(a):02x}" for a in span)


def dump(label):
    rec = sim.allocator.records[-1]
    short = rec.short_granule_base
    print(f"  {label:<26} granule tag {sim.mem.get_granule_tag(short):#3x}   "
          f"metadata {metadata_bytes(rec)} "
          f"(count {access_count(sim.mem, short, rec.addressable_count)}, "
          f"stashed tag {stashed_tag(sim.mem, short):#x})   "
          f"traps {sorted(sim.machine.traps)}   armed {tripwire_armed(sim.mem, rec)}")


print("pc 0: alloc r0 40")
sim.machine.step(sim.mem, sim.allocator, sim.detector)
dump("armed at allocation:")

print("pc 1: ld r1 [r0, #32]  -> tag mismatch fault, benign verdict")
sim.machine.step(sim.mem, sim.allocator, sim.detector)
dump("after delegation:")

print("pc 2: trap fires first, then the second load runs (and faults too)")
sim.machine.step(sim.mem, sim.allocator, sim.detector)
dump("after revocation+fault 2:")

while sim.machine.step(sim.mem, sim.allocator, sim.detector) is None:
    pass
dump("at halt:")

print()
c = sim.counters()
print(f"faults {c['faults_delivered']}, traps {c['traps_delivered']}: "
      "every benign hit costs one fault and one trap")

print()
print("== retirement: the counter in the padding bytes ==")
lines = ["alloc r0 40"] + ["ld r1 [r0, #32] w8 p1"] * 10 + ["halt"]
sim = Simulation(parse_program("\n".join(lines)),
                 SimConfig(seed=3, alloc_threshold=ALWAYS_ARM, access_threshold=4))
report = sim.run()
rec = sim.allocator.records[-1]
print(f"threshold 4: faults {report.counters['faults_delivered']} "
      f"(then the tripwire is gone), armed {tripwire_armed(sim.mem, rec)}")
short = rec.short_granule_base
print(f"granule tag restored to the real tag {sim.mem.get_granule_tag(short):#x}, "
      f"metadata zeroed: {metadata_bytes(rec)}")
