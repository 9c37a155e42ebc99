"""Tripwire arming decisions: slow start, then sampled arming.

The sampler sees one call per short-granule allocation, and its state is
two counters.  `slow_start` counts the calls left that arm
unconditionally: the first `alloc_threshold` calls.  After them, gaps
between armed calls are drawn uniformly from [1, 2 * sampling_rate],
giving a mean gap of (1 + 2R) / 2; `countdown` counts the calls left
until the next arm, and 0 means the next call draws a gap.  Slow start
draws nothing, so the generator can be made at the first draw: a run that
never leaves slow start never pays for seeding one.
"""

from __future__ import annotations

import random
from typing import Callable, Union


class TripwireSampler:
    """Decides which short-granule allocations get a tripwire.

    Owned by a single allocator; must be called exactly once per
    short-granule allocation, in allocation order.
    """

    def __init__(self, rng: Union[random.Random, Callable[[], random.Random]],
                 alloc_threshold: int, sampling_rate: int):
        """`rng` is the gap generator, or a function that makes it; the
        function is called once, at the first draw."""
        if alloc_threshold < 0:
            raise ValueError("alloc_threshold must be >= 0")
        if sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        self.rng = rng
        self.sampling_rate = sampling_rate
        self.slow_start = alloc_threshold
        self.countdown = 0

    def should_arm(self) -> bool:
        if self.slow_start:
            self.slow_start -= 1
            return True
        if not self.countdown:
            if not isinstance(self.rng, random.Random):
                self.rng = self.rng()
            self.countdown = self.rng.randint(1, 2 * self.sampling_rate)
        self.countdown -= 1
        return not self.countdown
