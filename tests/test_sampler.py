import math
import random

import pytest

from mtesim import TripwireSampler


def make(seed=0, threshold=1000, rate=1000):
    return TripwireSampler(random.Random(seed), alloc_threshold=threshold,
                           sampling_rate=rate)


def test_slow_start_arms_everything():
    s = make(threshold=1000)
    assert all(s.should_arm() for _ in range(1000))


def test_exactly_threshold_calls_always_arm():
    # slow start draws nothing: after it, the decisions are those of a
    # sampler with no slow start on the same generator
    s = make(seed=7, threshold=50, rate=3)
    no_slow_start = make(seed=7, threshold=0, rate=3)
    assert all(s.should_arm() for _ in range(50))
    assert [s.should_arm() for _ in range(500)] == [no_slow_start.should_arm()
                                                    for _ in range(500)]


def test_zero_threshold_with_rate_one_arms_at_least_every_other_call():
    s = make(seed=3, threshold=0, rate=1)
    results = [s.should_arm() for _ in range(200)]
    assert any(results)
    for a, b in zip(results, results[1:]):
        assert a or b  # gaps are 1 or 2


def test_determinism():
    a = [make(seed=11, threshold=10, rate=7).should_arm() for _ in range(1)]
    s1 = make(seed=11, threshold=10, rate=7)
    s2 = make(seed=11, threshold=10, rate=7)
    assert [s1.should_arm() for _ in range(500)] == [s2.should_arm() for _ in range(500)]


def test_arm_positions_are_partial_sums_of_uniform_draws():
    # 0-based call indices: calls 0..T-1 arm, then T-1 plus each partial sum
    # of the randint(1, 2R) gap draws
    seed, rate, n = 13, 9, 2000
    for threshold in (0, 1, 5, 50):
        s = TripwireSampler(random.Random(seed), alloc_threshold=threshold,
                            sampling_rate=rate)
        arm_positions = [i for i in range(n) if s.should_arm()]

        replay = random.Random(seed)
        expected = list(range(threshold))
        pos = threshold - 1
        while True:
            pos += replay.randint(1, 2 * rate)
            if pos >= n:
                break
            expected.append(pos)
        assert arm_positions == expected, threshold


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
    assert [lazy.should_arm() for _ in range(3000)] == [eager.should_arm()
                                                        for _ in range(3000)]
    assert made == [True]
    assert lazy.rng.getstate() == eager.rng.getstate()   # the same draws, in the same order


def test_slow_start_never_makes_the_generator():
    def make_rng():
        raise AssertionError("slow start drew from the generator")

    s = TripwireSampler(make_rng, alloc_threshold=500, sampling_rate=3)
    assert all(s.should_arm() for _ in range(499))
