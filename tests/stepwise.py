"""Stepwise reference for the short-granule metadata operations.

Each tripwire event is spelled out one step and one byte at a time through
`TaggedMemory`'s methods: bump the counter, then retire (clearing the
metadata at the threshold) or swap the granule tag with the stashed nibble.
The tests hold the fused one-pass operations of mtesim.detector, which
owns the padding layout, to these steps: the arm (`arm_tripwire`, called by
`Allocator.allocate`), the clear (`clear_metadata`, called by
`Allocator.free`) and the benign hit (`Detector.pass_benign_mismatch`).
The revocation (`revoke_tripwire`) is not fused: it makes the same
`TaggedMemory` calls as `ref_swap`, and a test still holds the two equal.
The tests also use `ref_arm` and `ref_pass` to put a tripwire into a given
state.
"""


def _span(granule, addressable):
    last = granule + 15
    return [last - 1, last] if addressable <= 14 else [last]


def ref_load(mem, granule, addressable):
    """The metadata word: counter bits above the stashed 4-bit tag."""
    word = 0
    for a in _span(granule, addressable):
        word = word << 8 | mem.read_byte(a)
    return word


def ref_store(mem, granule, addressable, word):
    for a in reversed(_span(granule, addressable)):
        mem.write_byte(a, word & 0xFF)
        word >>= 8


def ref_arm(mem, granule, addressable, real_tag):
    """Arm: tag the granule with its addressable count and stash the real
    tag under a zero counter, as `arm_tripwire` does."""
    mem.set_granule_tag(granule, addressable)
    ref_store(mem, granule, addressable, real_tag)


def ref_clear(mem, granule, addressable):
    """Zero the metadata bytes, as `clear_metadata` does; the granule tag is
    left alone."""
    ref_store(mem, granule, addressable, 0)


def ref_swap(mem, granule):
    """Swap the granule tag with the stashed nibble (delegate or revoke)."""
    tag, byte = mem.get_granule_tag(granule), mem.read_byte(granule + 15)
    mem.set_granule_tag(granule, byte & 0xF)
    mem.write_byte(granule + 15, (byte & 0xF0) | tag)


def _retire(mem, granule):
    mem.set_granule_tag(granule, mem.read_byte(granule + 15) & 0xF)


def ref_pass(mem, granule, addressable, threshold, delegate):
    """Let one benign access through the armed tripwire at `granule`.

    `addressable` is the granule's memory tag.  Whatever happens, the
    granule ends up wearing the stashed real tag.  A counted access
    (`threshold` given) bumps the counter; once the count reaches the
    smaller of `threshold` and the counter's capacity, the tripwire retires
    for good and its metadata is zeroed.  Otherwise the tripwire is
    delegated when `delegate`, stashing the addressable count where the
    real tag was, or else retired with the metadata left as this access
    made it.  An uncounted access (`threshold` None, an allow-listed
    overread) leaves the counter alone and never retires by threshold.

    Returns the count the metadata now holds: 0 after a threshold retirement.
    """
    if threshold is None:
        (ref_swap if delegate else _retire)(mem, granule)
        return ref_load(mem, granule, addressable) >> 4
    word = ref_load(mem, granule, addressable) + 16
    ref_store(mem, granule, addressable, word)
    capacity = 15 if addressable == 15 else 4095
    if word >> 4 >= min(capacity, threshold):
        _retire(mem, granule)
        ref_store(mem, granule, addressable, 0)
        return 0
    (ref_swap if delegate else _retire)(mem, granule)
    return word >> 4
