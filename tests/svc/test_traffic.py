"""Determinism and distribution properties of the svc traffic models.

The seeded-determinism contract is the foundation of the whole svc
subsystem (byte-identical artifacts, reproducible survivors), so it is
pinned with hypothesis property tests: equal seeds give identical
streams, and the generators never touch the ``random`` module's global
state.  Seed *divergence* is checked against fixed pairs rather than
searched for — distinct LCG streams can legitimately collide on short
projections.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.svc.traffic import BurstyArrivals, ZipfianSampler

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


class TestZipfianSampler:
    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=1, max_value=2000))
    def test_equal_seeds_identical_streams(self, seed, n):
        a = ZipfianSampler(n, seed=seed).sample_many(50)
        b = ZipfianSampler(n, seed=seed).sample_many(50)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=5000))
    def test_samples_in_range(self, seed, n):
        for rank in ZipfianSampler(n, seed=seed).sample_many(100):
            assert 0 <= rank < n

    def test_distinct_seeds_diverge(self):
        for a, b in ((1, 2), (42, 43), (7, 1 << 20)):
            sa = ZipfianSampler(1000, seed=a).sample_many(200)
            sb = ZipfianSampler(1000, seed=b).sample_many(200)
            assert sa != sb, (a, b)

    def test_skew_favours_low_ranks(self):
        # Zipf(0.99) over 10^4 keys: rank 0 alone should absorb a few
        # percent of draws, and the top decile a clear majority.
        samples = ZipfianSampler(10_000, seed=7).sample_many(2000)
        top_decile = sum(1 for s in samples if s < 1000)
        assert samples.count(0) >= 20
        assert top_decile / len(samples) > 0.5

    def test_theta_zero_is_roughly_uniform(self):
        samples = ZipfianSampler(100, theta=0.0, seed=11).sample_many(5000)
        assert samples.count(0) < 5000 * 0.05

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_does_not_touch_random_module(self, seed):
        state = random.getstate()
        ZipfianSampler(500, seed=seed).sample_many(100)
        assert random.getstate() == state

    @pytest.mark.parametrize("n,theta,seed,ranks", [
        (200_000, 0.99, 42, [
            1, 100142, 719, 626, 47, 44539, 12, 1244, 190581, 389, 9,
            44862, 47451, 21, 117572, 191, 9, 38, 100, 54, 19, 1280, 25921,
            95879, 3225, 821, 34, 7322, 190298, 60668, 35673, 9755, 1864,
            144, 0, 5096, 67498, 385, 39450, 84823, 3077, 612, 11620,
            157231, 16, 1820, 28329, 13, 787, 0, 5, 2539, 1883, 43955,
            17749, 15961, 34694, 17, 196031, 5634, 733, 6, 283, 167031]),
        (256, 0.5, 7, [
            30, 14, 132, 52, 204, 7, 255, 198, 153, 97, 95, 8, 149, 30, 0,
            209, 172, 16, 149, 43, 141, 223, 96, 5, 243, 0, 1, 61, 24, 11,
            197, 157, 170, 47, 121, 41, 1, 181, 191, 92, 42, 49, 1, 192,
            242, 120, 25, 40, 0, 74, 21, 30, 241, 27, 59, 109, 246, 26,
            246, 41, 118, 191, 55, 75]),
    ])
    def test_pinned_rank_streams(self, n, theta, seed, ranks):
        # Captured from the per-sampler list table: the shared array
        # table must reproduce its draws exactly.
        assert ZipfianSampler(n, theta=theta, seed=seed).sample_many(64) \
            == ranks

    def test_equal_keyspaces_share_one_table(self):
        a = ZipfianSampler(4096, theta=0.8, seed=1)
        b = ZipfianSampler(4096, theta=0.8, seed=2)
        assert a._cdf is b._cdf
        assert ZipfianSampler(4096, theta=0.7)._cdf is not a._cdf
        assert ZipfianSampler(4095, theta=0.8)._cdf is not a._cdf

    def test_shared_table_is_read_only(self):
        table = ZipfianSampler(64, seed=3)._cdf
        with pytest.raises(TypeError):
            table[0] = 0.5
        assert ZipfianSampler(64, seed=4)._cdf[0] == table[0]


class TestBurstyArrivals:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, count=st.integers(min_value=1, max_value=300))
    def test_equal_seeds_identical_schedules(self, seed, count):
        a = BurstyArrivals(seed).schedule(count)
        b = BurstyArrivals(seed).schedule(count)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, count=st.integers(min_value=1, max_value=300))
    def test_schedule_nondecreasing_and_sized(self, seed, count):
        schedule = BurstyArrivals(seed).schedule(count)
        assert len(schedule) == count
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))
        assert schedule[0] >= 0

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_schedule_prefix_stable(self, seed):
        # Asking for more arrivals extends the schedule; it never
        # rewrites history (workload scale changes keep early arrivals).
        short = BurstyArrivals(seed).schedule(50)
        long = BurstyArrivals(seed).schedule(120)
        assert long[:50] == short

    def test_distinct_seeds_diverge(self):
        for a, b in ((1, 2), (42, 43), (9, 1 << 19)):
            assert BurstyArrivals(a).schedule(100) != \
                BurstyArrivals(b).schedule(100), (a, b)

    def test_bursts_are_denser_than_steady_phases(self):
        gaps = BurstyArrivals(3, base_gap=64, burst_gap=8,
                              idle_gap=600).gaps(400)
        small = sum(1 for g in gaps if g <= 12)
        large = sum(1 for g in gaps if g >= 32)
        assert small > 0 and large > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_does_not_touch_random_module(self, seed):
        state = random.getstate()
        BurstyArrivals(seed).schedule(200)
        assert random.getstate() == state
