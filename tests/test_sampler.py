import math
import random

import pytest

from mtesim import TripwireSampler
from mtesim.sampler import Phase


def make(seed=0, threshold=1000, rate=1000):
    return TripwireSampler(random.Random(seed), alloc_threshold=threshold,
                           sampling_rate=rate)


def test_slow_start_arms_everything():
    s = make(threshold=1000)
    assert all(s.should_arm() for _ in range(1000))


def test_exactly_threshold_calls_always_arm():
    s = make(seed=7, threshold=50, rate=3)
    prefix = [s.should_arm() for _ in range(50)]
    assert all(prefix)
    assert s.phase is Phase.SAMPLING


def test_zero_threshold_with_rate_one_arms_at_least_every_other_call():
    s = make(seed=3, threshold=0, rate=1)
    results = [s.should_arm() for _ in range(200)]
    assert any(results)
    for a, b in zip(results, results[1:]):
        assert a or b  # gaps are 1 or 2


def test_phase_transition_happens_once():
    s = make(seed=1, threshold=5, rate=2)
    phases = []
    for _ in range(100):
        s.should_arm()
        phases.append(s.phase)
    flips = sum(1 for a, b in zip(phases, phases[1:]) if a is not b)
    assert flips == 1
    assert phases[-1] is Phase.SAMPLING


def test_determinism():
    a = [make(seed=11, threshold=10, rate=7).should_arm() for _ in range(1)]
    s1 = make(seed=11, threshold=10, rate=7)
    s2 = make(seed=11, threshold=10, rate=7)
    assert [s1.should_arm() for _ in range(500)] == [s2.should_arm() for _ in range(500)]


def test_arm_positions_are_partial_sums_of_uniform_draws():
    seed, rate = 13, 9
    s = TripwireSampler(random.Random(seed), alloc_threshold=0, sampling_rate=rate)
    n = 2000
    arm_positions = [i for i in range(n) if s.should_arm()]

    replay = random.Random(seed)
    expected = []
    pos = 0
    while True:
        pos += replay.randint(1, 2 * rate)
        if pos > n:
            break
        expected.append(pos - 1)  # positions are 0-based call indices
    assert arm_positions == expected


def test_countdown_stays_in_range():
    s = make(seed=5, threshold=0, rate=4)
    for _ in range(500):
        s.should_arm()
        assert 1 <= s.countdown <= 8


def test_arm_frequency_matches_mean_gap():
    # gaps are uniform on [1, 2R]: mean (1 + 2R) / 2, frequency 2 / (1 + 2R)
    rate = 25
    s = make(seed=17, threshold=0, rate=rate)
    n = 40_000
    arms = sum(s.should_arm() for _ in range(n))
    p = 2 / (1 + 2 * rate)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(arms / n - p) <= 3 * sigma


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        make(threshold=-1)
    with pytest.raises(ValueError):
        make(rate=0)


@pytest.mark.parametrize("threshold,rate", [(0, 1), (3, 2), (10, 7), (50, 1000)])
def test_lazily_seeded_sampler_matches_eager_one(threshold, rate):
    made = []

    def make_rng():
        made.append(True)
        return random.Random("9/sampler")

    lazy = TripwireSampler(make_rng, alloc_threshold=threshold, sampling_rate=rate)
    eager = TripwireSampler(random.Random("9/sampler"), alloc_threshold=threshold,
                            sampling_rate=rate)
    for _ in range(3000):
        assert lazy.should_arm() == eager.should_arm()
        assert lazy.countdown == eager.countdown
    assert made == [True]


def test_slow_start_never_makes_the_generator():
    def make_rng():
        raise AssertionError("slow start drew from the generator")

    s = TripwireSampler(make_rng, alloc_threshold=500, sampling_rate=3)
    assert all(s.should_arm() for _ in range(499))
