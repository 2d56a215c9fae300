"""Scaling timings by the speed samples around and inside them."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def _probe(samples):
    probe = speed.Probe()
    for at, took in samples:
        probe.at.append(at)
        probe.took.append(took)
    return probe


def test_a_long_stretch_is_scaled_by_the_samples_inside_it():
    # twice as slow as the reference inside [10, 20), at the reference outside
    inside = [(10 + i, 2 * speed.REFERENCE_S) for i in range(speed.NEAREST)]
    probe = _probe([(i, speed.REFERENCE_S) for i in range(10)] + inside + [(30, speed.REFERENCE_S)])
    assert probe.scale(10, 20) == pytest.approx(0.5)
    assert probe.sample_seconds(10, 20) == pytest.approx(speed.NEAREST * 2 * speed.REFERENCE_S)


def test_a_short_stretch_is_scaled_by_the_nearest_samples():
    # slow samples close before and after the stretch, fast ones far away
    samples = [(i, speed.REFERENCE_S / 2) for i in range(20)]
    samples += [(20 + i, 4 * speed.REFERENCE_S) for i in range(5)]
    samples += [(30 + i, 4 * speed.REFERENCE_S) for i in range(4)]
    samples += [(40 + i, speed.REFERENCE_S / 2) for i in range(20)]
    probe = _probe(samples)
    assert probe.scale(25, 26) == pytest.approx(0.25)
    assert probe.sample_seconds(25, 26) == 0


def test_samples_time_the_task():
    probe = speed.Probe()
    probe.sample()
    probe.sample()
    assert len(probe.took) == 2 and all(t > 0 for t in probe.took)
    assert probe.at[0] <= probe.at[1]
    with pytest.raises(ValueError):
        speed.Probe().scale(0, 1)
