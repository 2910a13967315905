"""Percentiles are reported only where the sample count supports them."""
import pytest

from stats import (
    describe,
    median,
    percentile,
    summary,
    supported_percentile,
    tail_rank,
)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_of_even_and_odd_samples():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_supported_percentile_keeps_ten_samples_beyond_it():
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(2000) == 99.5
    assert supported_percentile(25) == 60.0
    assert supported_percentile(20) is None
    assert supported_percentile(0) is None
    for count in (21, 37, 100, 999, 1000, 4321):
        q = supported_percentile(count)
        beyond = sum(1 for rank in range(1, count + 1)
                     if rank > q / 100.0 * count)
        assert beyond >= 10


def test_summary_carries_the_sample_count():
    samples = [float(value) for value in range(1000)]
    info = summary(samples)
    assert info["n"] == 1000
    assert info["tail_q"] == 99.0
    assert info["tail"] == percentile(samples, 99)
    small = summary([1.0, 2.0, 3.0])
    assert small["tail_q"] is None and small["n"] == 3
    assert "n=3" in describe("x", [1.0, 2.0, 3.0], "s")
    assert "no tail percentile" in describe("x", [1.0, 2.0, 3.0], "s")


def test_tail_rank_never_claims_an_unsupported_percentile():
    assert tail_rank(5000) == 99.0
    assert tail_rank(1000) == 99.0
    assert tail_rank(875) == 98.8
    assert tail_rank(40) == 75.0
    assert tail_rank(12) == 50.0
    assert tail_rank(1) == 50.0
