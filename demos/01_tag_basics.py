"""Tagged memory in five minutes.

Memory carries a 4-bit tag per 16-byte granule; pointers carry a 4-bit tag
in their top byte.  An access is allowed when the two match.  This script
pokes at the raw model: granule tagging, top-byte-ignore addressing, and
the storage cost of the tag carve-out.
"""

from mtesim import TaggedMemory, tag_storage_overhead
from mtesim.memory import address_tag, untagged

mem = TaggedMemory()

print("== granules ==")
mem.set_granule_tag(0x1000, 0xA)
print(f"tag at 0x1000: {mem.get_granule_tag(0x1000):#x}")
print(f"tag at 0x100f: {mem.get_granule_tag(0x100F):#x}  (same granule)")
print(f"tag at 0x1010: {mem.get_granule_tag(0x1010):#x}  (next granule, untouched)")

print()
print("== tagged pointers ==")
ptr = 0x1000 | 0xA << 56          # the tag sits in bits [59:56]
print(f"raw pointer value: {ptr:#018x}")
print(f"address: {untagged(ptr):#x}, tag: {address_tag(ptr):#x}")
print("the top byte is ignored for addressing, so data reads work through it:")
mem.write_bytes(ptr, b"hello")
print(f"read back: {mem.read_bytes(0x1000, 5)}")

print()
print("== tag and data stores are independent ==")
mem.set_granule_tag(0x1000, 0x5)
print(f"retagging left the bytes alone: {mem.read_bytes(0x1000, 5)}")
mem.write_bytes(0x1000, b"world")
print(f"rewriting left the tag alone: {mem.get_granule_tag(0x1000):#x}")

print()
print("== what the tag storage costs ==")
for granule in (16, 32, 4, 1):
    frac = tag_storage_overhead(granule_size=granule)
    print(f"{granule:>3}-byte granules: {frac}  (~{float(frac):.1%} of physical memory)")
print("16-byte granules cost ~3%; byte-granular tags in hardware would cost a third.")
