"""Use-after-free and double free under retag-at-free.

Freeing retags the whole region with a fresh tag drawn to differ from the
old one, so a stale pointer can never match immediately; a second free of
the same pointer trips the allocator's own check.  Tag reuse at free means
a recycled region keeps its free-time tag, which is where the residual
probability of missing a stale access after reuse cycles comes from.
"""

import random

from mtesim import Allocator, SimConfig, TaggedMemory, parse_program, run_program
from mtesim.memory import address_tag, untagged

print("== retag at free, seen from the allocator ==")
mem = TaggedMemory()
alloc = Allocator(mem, random.Random(5), SimConfig())
ptr = alloc.allocate(48)
print(f"allocated with tag {address_tag(ptr):#x}")
alloc.free(ptr)
print(f"after free the granules wear   {mem.get_granule_tag(untagged(ptr)):#x} "
      "(drawn to differ from the old tag)")
again = alloc.allocate(48)
print(f"reuse serves the same region at {untagged(again):#x} "
      f"with the free-time tag {address_tag(again):#x}, no retagging")

print()
print("== use after free ==")
report = run_program(parse_program(
    "alloc r0 40\nfree r0\nld r1 [r0, #0] w8 p1\nhalt"), SimConfig(seed=5))
print(f"outcome: {report.outcome}, kind: {report.bug.kind.value}")
print(f"stale pointer tag {report.bug.addrtag:#x} vs current granule tag "
      f"{report.bug.memtag:#x}")

print()
print("== double free ==")
report = run_program(parse_program(
    "alloc r0 40\nfree r0\nfree r0\nhalt"), SimConfig(seed=5))
print(f"outcome: {report.outcome}, kind: {report.bug.kind.value}")

print()
print("== async mode: the report is late and imprecise ==")
report = run_program(parse_program(
    "alloc r0 40\nfree r0\nld r1 [r0, #0] w8 p1\nmov r2 1\nsyscall\nhalt"),
    SimConfig(seed=5, mode="async"))
print(f"outcome: {report.outcome}; the access was at pc 2, the report says pc "
      f"{report.bug.pc} (the next kernel entry)")
