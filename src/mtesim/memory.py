"""Tagged memory model.

Memory is a sparse byte store plus a parallel sparse store of 4-bit tags,
one tag per 16-byte granule.  Untouched bytes read as 0 and untouched
granules carry tag 0, so "never allocated" and "unprotected" fall out of
the representation for free.  Tags are written one granule at a time
(`set_granule_tag`) or for a whole region in one call (`set_tag_range`),
as Scudo's `storeTags` tags an allocation.

Pointers carry a 4-bit address tag in bits [59:56] (the low nibble of the
top byte); the whole top byte is ignored when forming an address, mirroring
top-byte-ignore addressing.  Bits [63:60] are kept zero as a canary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

GRANULE_SHIFT = 4
GRANULE_SIZE = 1 << GRANULE_SHIFT
TAG_BITS = 4
TAG_SHIFT = 56
ADDRESS_SPACE = 1 << TAG_SHIFT      # addresses run 0 .. ADDRESS_SPACE - 1
ADDRESS_MASK = ADDRESS_SPACE - 1    # clears the whole top byte
MASK64 = (1 << 64) - 1
GRANULE_MASK = ~(GRANULE_SIZE - 1)


def untagged(raw: int) -> int:
    """Strip the top byte of a 64-bit pointer value, leaving the address."""
    return raw & ADDRESS_MASK


def address_tag(raw: int) -> int:
    """Extract the 4-bit address tag from bits [59:56] of a pointer value."""
    return (raw >> TAG_SHIFT) & 0xF


@dataclass(frozen=True)
class TaggedPointer:
    """A 64-bit pointer value with a 4-bit tag in the top byte.

    Bits [63:60] must be zero; the allocator never produces anything else
    and consumers treat a nonzero high nibble as a wild pointer.
    """

    raw: int

    def __post_init__(self):
        if not 0 <= self.raw <= MASK64:
            raise ValueError(f"pointer value out of 64-bit range: {self.raw:#x}")
        if (self.raw >> 60) & 0xF:
            raise ValueError(f"bits [63:60] of a tagged pointer must be zero: {self.raw:#x}")

    @classmethod
    def make(cls, address: int, tag: int) -> "TaggedPointer":
        if not 0 <= tag <= 0xF:
            raise ValueError(f"tag out of range: {tag}")
        return cls((address & ADDRESS_MASK) | (tag << TAG_SHIFT))

    @property
    def tag(self) -> int:
        return address_tag(self.raw)

    @property
    def address(self) -> int:
        return untagged(self.raw)


class TaggedMemory:
    """Sparse data bytes plus a 4-bit tag per 16-byte granule.

    Data and tags are independent maps: tag writes never disturb bytes and
    byte writes never disturb tags.  Reads of untouched locations return 0.
    All addresses are interpreted with the top byte masked off, so callers
    may pass tagged pointer values directly.

    `data` maps byte address to byte and `tags` maps granule index
    (address >> GRANULE_SHIFT) to tag; the machine's tag check reads `tags`
    directly.
    """

    def __init__(self):
        self.data: Dict[int, int] = {}
        self.tags: Dict[int, int] = {}

    # Addresses are masked inline (`& ADDRESS_MASK`, `>> GRANULE_SHIFT`)
    # rather than through `untagged`: these methods run on every access.
    # A byte move that runs past the top of the address space wraps to
    # address 0, as `read_byte`, `write_byte` and the machine's tag check
    # do; only such a move takes the split path.

    def set_granule_tag(self, addr: int, tag: int) -> None:
        if not 0 <= tag <= 0xF:
            raise ValueError(f"tag out of range: {tag}")
        self.tags[(addr & ADDRESS_MASK) >> GRANULE_SHIFT] = tag

    def set_tag_range(self, addr: int, size: int, tag: int) -> None:
        """Tag every granule that overlaps [addr, addr + size) with `tag`."""
        if not 0 <= tag <= 0xF:
            raise ValueError(f"tag out of range: {tag}")
        start = addr & ADDRESS_MASK
        tags = self.tags
        for g in range(start >> GRANULE_SHIFT, (start + size + GRANULE_SIZE - 1) >> GRANULE_SHIFT):
            tags[g] = tag

    def get_granule_tag(self, addr: int) -> int:
        return self.tags.get((addr & ADDRESS_MASK) >> GRANULE_SHIFT, 0)

    def read_bytes(self, addr: int, length: int) -> bytes:
        base = addr & ADDRESS_MASK
        end = base + length
        if end > ADDRESS_SPACE:
            room = ADDRESS_SPACE - base
            return self.read_bytes(base, room) + self.read_bytes(0, length - room)
        get = self.data.get
        return bytes([get(a, 0) for a in range(base, end)])

    def write_bytes(self, addr: int, data: bytes) -> None:
        base = addr & ADDRESS_MASK
        if base + len(data) > ADDRESS_SPACE:
            room = ADDRESS_SPACE - base
            self.write_bytes(base, data[:room])
            self.write_bytes(0, data[room:])
            return
        store = self.data
        for a, b in enumerate(data, base):
            store[a] = b

    def read_byte(self, addr: int) -> int:
        return self.data.get(addr & ADDRESS_MASK, 0)

    def write_byte(self, addr: int, value: int) -> None:
        self.data[addr & ADDRESS_MASK] = value & 0xFF


def tag_storage_overhead(granule_size: int = GRANULE_SIZE, tag_bits: int = TAG_BITS) -> Fraction:
    """Fraction of total physical storage devoted to tag storage.

    Each granule of `granule_size` bytes (8 * granule_size bits) needs
    `tag_bits` bits of tag storage, so tags take
    tag_bits / (8 * granule_size + tag_bits) of everything.  With the
    default 16-byte granule and 4-bit tag this is 1/33, about 3%.
    Overrides exist so experiments can report hypothetical geometries
    (1-byte granules cost a full third of memory).
    """
    return Fraction(tag_bits, 8 * granule_size + tag_bits)
