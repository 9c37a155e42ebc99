"""Tripwire arming decisions: slow start, then sampled arming.

The sampler sees one call per short-granule allocation.  During slow start
every call arms.  After `alloc_threshold` allocations it switches to a
sampling phase where gaps between armed allocations are drawn uniformly
from [1, 2 * sampling_rate], giving a mean gap of (1 + 2R) / 2.  Slow start
draws nothing, so the generator can be made at the first draw: a run that
never leaves slow start never pays for seeding one.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Union


class Phase(enum.Enum):
    SLOW_START = "slow_start"
    SAMPLING = "sampling"


class TripwireSampler:
    """Decides which short-granule allocations get a tripwire.

    Owned by a single allocator; must be called exactly once per
    short-granule allocation, in allocation order.  The phase transition
    happens once and is never re-entered.
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
        self.alloc_threshold = alloc_threshold
        self.sampling_rate = sampling_rate
        self.phase = Phase.SLOW_START
        self.alloc_count = 0
        self.countdown = 0

    def _draw_gap(self) -> int:
        if not isinstance(self.rng, random.Random):
            self.rng = self.rng()
        return self.rng.randint(1, 2 * self.sampling_rate)

    def _enter_sampling(self) -> None:
        self.phase = Phase.SAMPLING
        self.countdown = self._draw_gap()

    def should_arm(self) -> bool:
        if self.phase is Phase.SLOW_START:
            if self.alloc_count < self.alloc_threshold:
                self.alloc_count += 1
                if self.alloc_count >= self.alloc_threshold:
                    self._enter_sampling()
                return True
            # alloc_threshold == 0: no always-armed prefix at all
            self._enter_sampling()
        self.countdown -= 1
        if self.countdown == 0:
            self.countdown = self._draw_gap()
            return True
        return False
