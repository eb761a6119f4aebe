"""Unit tests for the per-partition scan statistics.

The store-level behavior (skew-aware estimates through ``estimate``) is
locked in by ``tests/test_backend_contract.py::TestHistogramEstimates``;
this file exercises the structures directly — equi-depth histogram
accuracy on uniform and skewed data, the zero-soundness invariant, cache
invalidation, and the count-min frequency sketch.
"""

from __future__ import annotations

import random

from repro.storage.scanstats import (EquiDepthHistogram, FrequencySketch,
                                     PartitionStatistics)


class TestEquiDepthHistogram:
    def test_empty_histogram_estimate_is_zero(self):
        histogram = EquiDepthHistogram([])
        assert histogram.total == 0
        assert histogram.estimate_range(0.0, 100.0) == 0

    def test_single_point_mass(self):
        histogram = EquiDepthHistogram([42.0])
        assert histogram.estimate_range(42.0, 43.0) == 1
        assert histogram.estimate_range(41.0, 42.0) == 0
        assert histogram.estimate_range(0.0, 100.0) == 1

    def test_uniform_data_estimates_within_a_bucket_of_truth(self):
        timestamps = [float(i) for i in range(1000)]
        histogram = EquiDepthHistogram(timestamps)
        for start, end in ((0.0, 500.0), (250.0, 750.0), (900.0, 1000.0),
                           (0.0, 1000.0), (123.0, 456.0)):
            actual = sum(1 for ts in timestamps if start <= ts < end)
            estimate = histogram.estimate_range(start, end)
            # Equi-depth error is bounded by ~one boundary bucket per
            # window edge (2 * ceil(n/32) here).
            assert abs(estimate - actual) <= 2 * 32, (start, end)
            assert actual / 2 <= estimate <= actual * 2 or actual < 64

    def test_skewed_data_estimates_within_factor_two(self):
        """The case the uniform assumption loses: 95% of the mass in the
        first 1% of the span."""
        rng = random.Random(7)
        timestamps = ([rng.uniform(0.0, 10.0) for _ in range(950)]
                      + [rng.uniform(10.0, 1000.0) for _ in range(50)])
        histogram = EquiDepthHistogram(timestamps)
        dense = histogram.estimate_range(0.0, 10.0)
        sparse = histogram.estimate_range(500.0, 1000.0)
        actual_sparse = sum(1 for ts in timestamps if 500.0 <= ts < 1000.0)
        assert 950 / 2 <= dense <= 950 * 2
        assert sparse <= max(2 * actual_sparse, 2 * (1000 // 32))
        # A uniform scaler would claim ~475 events for the empty half.
        assert sparse < 100

    def test_estimate_vs_actual_ratio_bounded_on_random_windows(self):
        rng = random.Random(13)
        timestamps = sorted(rng.expovariate(1 / 50.0) for _ in range(2000))
        histogram = EquiDepthHistogram(timestamps)
        depth = -(-2000 // 32)  # one bucket of mass
        for _ in range(50):
            a, b = sorted((rng.uniform(0, 400), rng.uniform(0, 400)))
            actual = sum(1 for ts in timestamps if a <= ts < b)
            estimate = histogram.estimate_range(a, b)
            assert abs(estimate - actual) <= 2 * depth + 1, (a, b)

    def test_nonempty_range_never_estimates_zero(self):
        """Any window holding a real data point estimates >= 1 — the
        invariant 'zero estimate implies no matches' rests on."""
        timestamps = [0.0, 0.0, 5.0, 5.0, 5.0, 100.0, 1000.0]
        histogram = EquiDepthHistogram(timestamps)
        for ts in set(timestamps):
            assert histogram.estimate_range(ts, ts + 1e-9) >= 1, ts
        assert histogram.estimate_range(1000.0, 2000.0) >= 1

    def test_duplicate_heavy_data_collapses_to_point_masses(self):
        histogram = EquiDepthHistogram([7.0] * 500 + [9.0] * 500)
        assert histogram.estimate_range(7.0, 8.0) == 500
        assert histogram.estimate_range(8.0, 9.0) == 0
        assert histogram.estimate_range(6.0, 10.0) == 1000


class TestPartitionStatistics:
    def test_histograms_are_memoized(self):
        stats = PartitionStatistics()
        calls = []

        def factory():
            calls.append(1)
            return [1.0, 2.0, 3.0]

        first = stats.histogram(("dim", "key"), 3, factory)
        second = stats.histogram(("dim", "key"), 3, factory)
        assert first is second
        assert len(calls) == 1
        assert len(stats) == 1

    def test_growth_invalidates(self):
        stats = PartitionStatistics()
        stats.histogram("k", 3, lambda: [1.0, 2.0, 3.0])
        rebuilt = stats.histogram("k", 4, lambda: [1.0, 2.0, 3.0, 4.0])
        assert rebuilt.total == 4


class TestFrequencySketch:
    def test_never_undercounts(self):
        sketch = FrequencySketch()
        for i in range(500):
            sketch.add(f"key-{i}", count=i % 7 + 1)
        for i in range(0, 500, 17):
            assert sketch.estimate(f"key-{i}") >= i % 7 + 1

    def test_absent_keys_rarely_collide(self):
        sketch = FrequencySketch()
        for i in range(200):
            sketch.add(f"stored-{i}")
        ghosts = sum(1 for i in range(1000)
                     if sketch.estimate(f"ghost-{i}") > 0)
        # 3 independent rows at ~20% load: a few-percent false-positive
        # rate at worst, not the tens of percent correlated probing gives.
        assert ghosts < 100

    def test_estimate_total_caps_at_grand_total(self):
        sketch = FrequencySketch(width=8, depth=2)  # force collisions
        for i in range(100):
            sketch.add(f"k{i}")
        assert sketch.estimate_total(f"k{i}" for i in range(100)) <= 100
        assert sketch.estimate_total([]) == 0
