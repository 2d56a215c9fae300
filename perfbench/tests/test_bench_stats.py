"""The percentile index rule."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import median, percentile  # noqa: E402


def test_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile(values, 100) == 100


def test_rank_rounds_up_and_ignores_order():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([4, 3, 2, 1], 50) == 2
    assert percentile(list(range(10)), 90) == 8  # ceil(9.0) = 9th smallest


def test_at_least_ten_samples_beyond_p90_from_100_samples():
    for n in (100, 101, 137, 250):
        values = list(range(n))
        assert sum(v > percentile(values, 90) for v in values) >= 10


def test_bad_arguments():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
