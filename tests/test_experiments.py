import math
import random

import pytest

from mtesim import (
    ALWAYS_ARM,
    Allocator,
    SimConfig,
    WorkloadSpec,
    exp_collision_rate,
    exp_detection_rate,
    exp_recovery_transparency,
    exp_vulnerable_fraction,
    generate_workload,
    parse_program,
    uniform_sizes,
    wilson_95_ci,
)
from mtesim.detector import metadata_span
from mtesim.experiments import ExperimentResult
from mtesim.memory import untagged


class TestWilson:
    def test_against_hand_computed_value(self):
        # k=50, n=100, z=1.96: center = (0.5 + z^2/200) / (1 + z^2/100)
        z = 1.96
        lo, hi = wilson_95_ci(50, 100)
        center = (0.5 + z * z / 200) / (1 + z * z / 100)
        half = (z / (1 + z * z / 100)) * math.sqrt(0.25 / 100 + z * z / 40000)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)

    def test_degenerate_counts_stay_in_unit_interval(self):
        lo, hi = wilson_95_ci(0, 10)
        assert lo == 0.0 and 0 < hi < 0.5
        lo, hi = wilson_95_ci(10, 10)
        assert 0.5 < lo < 1 and hi == 1.0

    def test_interval_contains_point_estimate(self):
        for k, n in [(1, 7), (250, 1000), (999, 1000)]:
            lo, hi = wilson_95_ci(k, n)
            assert lo <= k / n <= hi

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_95_ci(1, 0)
        with pytest.raises(ValueError):
            wilson_95_ci(5, 3)

    def test_result_derives_rate_and_interval_from_its_counts(self):
        r = ExperimentResult("x", 10, 3, {})
        assert r.rate == 0.3 and r.wilson_95_ci == wilson_95_ci(3, 10)


class TestCollision:
    def test_fifteen_tag_space(self):
        r = exp_collision_rate(100_000, seed=1)
        assert r.contains(1 / 15)
        assert not r.contains(1 / 16)  # the reserved zero tag is measurable

    def test_sixteen_tag_space_override(self):
        r = exp_collision_rate(20_000, seed=2, include_zero=True)
        assert r.contains(1 / 16)

    def test_reproducible(self):
        assert exp_collision_rate(500, seed=4).to_json() == \
            exp_collision_rate(500, seed=4).to_json()


class TestVulnerableFraction:
    def test_all_multiples_of_16(self):
        assert exp_vulnerable_fraction([(16, 1), (32, 1), (64, 1)], 500, 1) == 0.0

    def test_single_short_size(self):
        assert exp_vulnerable_fraction([(40, 1)], 500, 1) == 1.0

    def test_uniform_1_256(self):
        # 16 of 256 residues are multiples of 16: expect 15/16
        frac = exp_vulnerable_fraction(uniform_sizes(1, 256), 50_000, 2)
        lo, hi = wilson_95_ci(round(frac * 50_000), 50_000)
        assert lo <= 15 / 16 <= hi

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            exp_vulnerable_fraction([(40, 1)], 0, 1)


class TestDetectionRate:
    BASE = SimConfig(seed=0, alloc_threshold=ALWAYS_ARM)

    def test_intra_always_armed_is_total(self):
        r = exp_detection_rate("intra", self.BASE, 100, seed=51)
        assert r.rate == 1.0

    def test_intra_without_tripwires_is_blind(self):
        from dataclasses import replace
        r = exp_detection_rate("intra", replace(self.BASE, tripwires=False), 100, seed=52)
        assert r.rate == 0.0

    def test_result_reproducible(self):
        a = exp_detection_rate("uaf", self.BASE, 60, seed=53)
        b = exp_detection_rate("uaf", self.BASE, 60, seed=53)
        assert a.to_json() == b.to_json()

    def test_result_json_fields(self):
        r = exp_detection_rate("double_free", self.BASE, 30, seed=54)
        d = r.to_json_dict()
        assert list(d) == ["name", "trials", "detected", "rate", "wilson_95_ci",
                           "config_echo"]
        assert d["detected"] == 30
        # no generated program marks an access `overread_ok`: `overread_skip`
        # changes nothing, so the echo leaves it out
        assert list(d["config_echo"]) == [
            "mode", "seed", "sampling_rate", "alloc_threshold", "access_threshold",
            "tripwires", "odd_even", "large_threshold", "include_zero_tag"]


# Sizes in two classes (32 and 48 bytes) whose addressable counts differ, so
# a reused region's metadata span moves: 31 keeps one padding byte, 17 two.
_REUSE_SIZES = (17, 20, 24, 29, 30, 31, 32, 33, 46, 47)


def _reuse_heavy_program(rng, steps=30):
    """A benign program that frees and reallocates four slots (r0-r3) in the
    same two classes, storing and loading in bounds between."""
    sizes = [None] * 4
    lines = []
    for _ in range(steps):
        slot = rng.randrange(4)
        size = sizes[slot]
        if size is None:
            sizes[slot] = rng.choice(_REUSE_SIZES)
            lines.append(f"alloc r{slot} {sizes[slot]}")
        elif rng.random() < 0.3:
            sizes[slot] = None
            lines.append(f"free r{slot}")
        else:
            width = rng.choice([w for w in (1, 2, 4, 8) if w <= size])
            off = rng.randint(max(0, size - 16), size - width)  # near the short granule
            if rng.random() < 0.5:
                lines.append(f"mov r8 {rng.randint(1, 2**32)}")
                lines.append(f"st r8 [r{slot}, #{off}] w{width} p1")
            else:
                lines.append(f"ld r{9 + slot} [r{slot}, #{off}] w{width} p1")
    return parse_program("\n".join(lines + ["halt"]))


class TestRecoveryTransparency:
    def test_reuse_heavy_programs_pass_with_every_tripwire_armed(self):
        rng = random.Random(7)
        programs = [_reuse_heavy_program(rng) for _ in range(40)]
        result = exp_recovery_transparency(programs, SimConfig(seed=0), 35)
        assert result.passed, result.diffs

    def test_metadata_left_behind_by_free_is_reported(self, monkeypatch):
        # the mask covers live short granules only: a free that leaves
        # tripwire metadata in the padding must show as a data difference
        free = Allocator.free

        def free_leaving_metadata(self, raw):
            rec = self.live.get(untagged(raw))
            span = () if rec is None or rec.short_granule_base is None else \
                metadata_span(rec.short_granule_base, rec.addressable_count)
            saved = [(a, self.mem.read_byte(a)) for a in span]
            freed = free(self, raw)
            for a, byte in saved:
                self.mem.write_byte(a, byte)
            return freed

        monkeypatch.setattr(Allocator, "free", free_leaving_metadata)
        programs = generate_workload(WorkloadSpec(kind="benign", count=60, seed=1))
        result = exp_recovery_transparency(programs, SimConfig(seed=0), 36)
        assert not result.passed
        assert all("data bytes differ" in d for d in result.diffs)
