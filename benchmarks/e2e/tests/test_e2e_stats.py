import _paths  # noqa: F401 - import path side effect

import pytest

import stats


@pytest.mark.parametrize("count, expected", [
    (5, 0.0),           # not even the median has ten samples beyond it
    (20, 50.0),
    (100, 90.0),
    (200, 95.0),
    (999, 95.0),        # p99 would leave 9.99 samples beyond it
    (1000, 99.0),
    (10_000, 99.9),
    (100_000, 99.99),
    (10_000_000, 99.99),
])
def test_highest_percentile_has_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_percentile_interpolates():
    ordered = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(ordered, 0.0) == 10.0
    assert stats.percentile(ordered, 50.0) == 30.0
    assert stats.percentile(ordered, 100.0) == 50.0
    assert stats.percentile(ordered, 62.5) == pytest.approx(35.0)
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
