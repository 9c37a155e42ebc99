"""Tagged memory model.

Memory is stored in 4 KiB pages: each page of data bytes is a
`bytearray(4096)`, and each page's 256 granule tags are a
`bytearray(256)`, one byte per 4-bit tag.  A page exists once something
has been written to it; untouched bytes read as 0 and untouched granules
carry tag 0, so "never allocated" and "unprotected" fall out of the
representation for free.  `read_bytes` and `write_bytes` move one slice
per page they touch; the machine moves an access within one page on the
page itself and calls them only for the rest.  Tagging a region
(`set_tag_range`, as Scudo's `storeTags` tags an allocation) is one fill
per page: one `pack_into` of the run's granule count from a 256-byte run
of the tag.  The allocator's `free` retags a region within one page with
that fill itself.

The simulator spends a whole byte on each tag, where the modelled hardware
spends 4 bits; `tag_storage_overhead` reports the hardware's cost.

Pointers carry a 4-bit address tag in bits [59:56] (the low nibble of the
top byte); the whole top byte is ignored when forming an address, mirroring
top-byte-ignore addressing.  Bits [63:60] are kept zero as a canary.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

GRANULE_SHIFT = 4
GRANULE_SIZE = 1 << GRANULE_SHIFT
TAG_BITS = 4
TAG_SHIFT = 56
ADDRESS_SPACE = 1 << TAG_SHIFT      # addresses run 0 .. ADDRESS_SPACE - 1
ADDRESS_MASK = ADDRESS_SPACE - 1    # clears the whole top byte
MASK64 = (1 << 64) - 1
GRANULE_OFFSET_MASK = GRANULE_SIZE - 1    # a byte's offset in its granule; 15 is the last
GRANULE_MASK = ~GRANULE_OFFSET_MASK

# Pages: address >> PAGE_SHIFT indexes both `data` and `tags`; within a
# page, a byte sits at address & PAGE_MASK and a granule's tag at
# (address & PAGE_MASK) >> GRANULE_SHIFT.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
GRANULES_PER_PAGE = PAGE_SIZE >> GRANULE_SHIFT
_PAGE_INDEX_MASK = ADDRESS_MASK >> PAGE_SHIFT
_GRANULE_PAGE_SHIFT = PAGE_SHIFT - GRANULE_SHIFT    # granule index -> page index
_TAG_FILLS = tuple(bytes([tag]) * GRANULES_PER_PAGE for tag in range(16))
# `_FILLERS[n](page, first, _TAG_FILLS[tag])` writes `tag` to the n granule
# tags from `first`: a `Struct(f"{n}s").pack_into`, which copies the first n
# bytes of the fill into the page.  Slice assignment would copy a `bytes`
# source into a temporary `bytearray` first.  Each count's `Struct` is made
# on first use, by `_make_filler`.
_FILLERS: List[Optional[Callable[..., None]]] = [None] * (GRANULES_PER_PAGE + 1)
# New pages are copies of these, never written: `.copy()` costs a third to
# a half of what `bytearray(n)` does.
_BLANK_DATA_PAGE = bytearray(PAGE_SIZE)
_BLANK_TAG_PAGE = bytearray(GRANULES_PER_PAGE)


def _make_filler(n: int) -> Callable[..., None]:
    """`_FILLERS[n]`, made now; call sites read `_FILLERS[n] or _make_filler(n)`."""
    pack = _FILLERS[n] = struct.Struct(f"{n}s").pack_into
    return pack


def untagged(raw: int) -> int:
    """Strip the top byte of a 64-bit pointer value, leaving the address."""
    return raw & ADDRESS_MASK


def address_tag(raw: int) -> int:
    """Extract the 4-bit address tag from bits [59:56] of a pointer value."""
    return (raw >> TAG_SHIFT) & 0xF


_NONZERO_RUN = re.compile(rb"[^\x00]+")


def _nonzero(pages: Dict[int, bytearray], shift: int) -> List[Tuple[int, int]]:
    """(address, value) of every nonzero entry, ascending; entry i of page
    p sits at address (p << PAGE_SHIFT) + (i << shift).  The regular
    expression skips the zero stretches of a page in one C-level scan."""
    out = []
    for index in sorted(pages):
        base = index << PAGE_SHIFT
        for run in _NONZERO_RUN.finditer(pages[index]):
            first = run.start()
            out.extend((base + (i << shift), value)
                       for i, value in enumerate(run.group(), first))
    return out


class TaggedMemory:
    """Data bytes plus a 4-bit tag per 16-byte granule, both in pages.

    Data and tags are independent stores: tag writes never disturb bytes
    and byte writes never disturb tags.  Reads of untouched locations
    return 0 and make no page.  All addresses are interpreted with the top
    byte masked off, so callers may pass tagged pointer values directly.

    `data` maps page index (address >> PAGE_SHIFT) to the page's bytes and
    `tags` maps the same index to the page's granule tags, one byte each.
    Outside this class pages are indexed only on paths with traffic:
    `Machine.run`, the detector's `arm_tripwire`, `clear_metadata` and
    `Detector.pass_benign_mismatch`, and the retag in `Allocator.free`.
    Everything else reads and writes memory through the methods,
    `nonzero_bytes`, `nonzero_tags` and `snapshot`.
    """

    def __init__(self):
        self.data: Dict[int, bytearray] = {}
        self.tags: Dict[int, bytearray] = {}

    # Addresses are masked inline (`& ADDRESS_MASK`) rather than through
    # `untagged`.  `read_bytes` and `write_bytes` serve the machine's
    # accesses across a page edge or past the top of the address space:
    # they move one slice per page, and wrap a move past that top to
    # address 0, as `read_byte`, `write_byte` and the machine's tag check
    # do.

    def data_page(self, index: int) -> bytearray:
        """Data page `index`, made zero-filled if absent."""
        page = self.data.get(index)
        if page is None:
            page = self.data[index] = _BLANK_DATA_PAGE.copy()
        return page

    def tag_page(self, index: int) -> bytearray:
        """Tag page `index`, made all tag 0 if absent."""
        page = self.tags.get(index)
        if page is None:
            page = self.tags[index] = _BLANK_TAG_PAGE.copy()
        return page

    def set_granule_tag(self, addr: int, tag: int) -> None:
        if not 0 <= tag <= 0xF:
            raise ValueError(f"tag out of range: {tag}")
        a = addr & ADDRESS_MASK
        self.tag_page(a >> PAGE_SHIFT)[(a & PAGE_MASK) >> GRANULE_SHIFT] = tag

    def set_tag_range(self, addr: int, size: int, tag: int) -> None:
        """Tag every granule that overlaps [addr, addr + size) with `tag`,
        wrapping past the top of the address space to granule 0."""
        if not 0 <= tag <= 0xF:
            raise ValueError(f"tag out of range: {tag}")
        start = addr & ADDRESS_MASK
        offset = start & PAGE_MASK
        first = offset >> GRANULE_SHIFT
        end = (offset + size + GRANULE_SIZE - 1) >> GRANULE_SHIFT
        fill = _TAG_FILLS[tag]
        if end <= GRANULES_PER_PAGE:
            # within one page: one fill
            index = start >> PAGE_SHIFT
            page = self.tags.get(index)
            if page is None:
                page = self.tags[index] = _BLANK_TAG_PAGE.copy()
            n = end - first
            (_FILLERS[n] or _make_filler(n))(page, first, fill)
            return
        g = start >> GRANULE_SHIFT
        end = (start + size + GRANULE_SIZE - 1) >> GRANULE_SHIFT
        while g < end:
            first = g & (GRANULES_PER_PAGE - 1)
            n = min(end - g, GRANULES_PER_PAGE - first)
            page = self.tag_page((g >> _GRANULE_PAGE_SHIFT) & _PAGE_INDEX_MASK)
            (_FILLERS[n] or _make_filler(n))(page, first, fill)
            g += n

    def get_granule_tag(self, addr: int) -> int:
        a = addr & ADDRESS_MASK
        page = self.tags.get(a >> PAGE_SHIFT)
        return 0 if page is None else page[(a & PAGE_MASK) >> GRANULE_SHIFT]

    def read_bytes(self, addr: int, length: int) -> bytes:
        base = addr & ADDRESS_MASK
        out = bytearray()
        while length:
            offset = base & PAGE_MASK
            n = min(length, PAGE_SIZE - offset)
            page = self.data.get(base >> PAGE_SHIFT)
            out += bytes(n) if page is None else page[offset:offset + n]
            base = (base + n) & ADDRESS_MASK
            length -= n
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        base = addr & ADDRESS_MASK
        done = 0
        while done < len(data):
            offset = base & PAGE_MASK
            n = min(len(data) - done, PAGE_SIZE - offset)
            self.data_page(base >> PAGE_SHIFT)[offset:offset + n] = data[done:done + n]
            base = (base + n) & ADDRESS_MASK
            done += n

    def read_byte(self, addr: int) -> int:
        a = addr & ADDRESS_MASK
        page = self.data.get(a >> PAGE_SHIFT)
        return 0 if page is None else page[a & PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        a = addr & ADDRESS_MASK
        self.data_page(a >> PAGE_SHIFT)[a & PAGE_MASK] = value & 0xFF

    # -- whole-memory views --------------------------------------------

    def nonzero_bytes(self) -> List[Tuple[int, int]]:
        """(address, byte) for every nonzero data byte, ascending."""
        return _nonzero(self.data, 0)

    def nonzero_tags(self) -> List[Tuple[int, int]]:
        """(granule base address, tag) for every nonzero tag, ascending."""
        return _nonzero(self.tags, GRANULE_SHIFT)

    def snapshot(self) -> Tuple[Dict[int, bytes], Dict[int, bytes]]:
        """A copy of the data and tag pages that shares nothing with memory.

        Pages holding only zeros are left out, so two snapshots are equal
        exactly when the memories read the same at every address.
        """
        return ({i: bytes(p) for i, p in self.data.items() if any(p)},
                {i: bytes(p) for i, p in self.tags.items() if any(p)})


def tag_storage_overhead(granule_size: int = GRANULE_SIZE, tag_bits: int = TAG_BITS) -> Fraction:
    """Fraction of total physical storage devoted to tag storage.

    Each granule of `granule_size` bytes (8 * granule_size bits) needs
    `tag_bits` bits of tag storage, so tags take
    tag_bits / (8 * granule_size + tag_bits) of everything.  With the
    default 16-byte granule and 4-bit tag this is 1/33, about 3%.
    Overrides exist so experiments can report hypothetical geometries
    (1-byte granules cost a full third of memory).  This is the modelled
    hardware's cost, not the simulator's: `TaggedMemory` stores each tag
    in a whole byte.
    """
    return Fraction(tag_bits, 8 * granule_size + tag_bits)
