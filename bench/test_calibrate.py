"""Tests of the benchmark's host-speed calibration. Run from the repository
root:

    python3 -m pytest bench/test_calibrate.py -q
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter

import pytest

import calibrate


def busy(seconds: float) -> int:
    end, n = perf_counter() + seconds, 0
    while perf_counter() < end:
        n += 1
    return n


def test_scale_takes_out_own_units_and_divides_by_the_mean():
    ref = calibrate.REFERENCE_UNIT_S
    # Units twice as slow as the reference: the rest of the span halves.
    own = [2 * ref] * 10
    assert calibrate.scale(1.0, own) == pytest.approx((1.0 - 20 * ref) / 2)
    # Units timed elsewhere count in the mean but are not taken out.
    assert calibrate.scale(1.0, own, 30 * ref, 30) == pytest.approx((1.0 - 20 * ref) / 1.25)
    with pytest.raises(ValueError):
        calibrate.scale(1.0, [])


def test_speedometer_samples_the_main_thread_and_forked_workers():
    speed = calibrate.Speedometer()
    with speed:
        busy(0.2)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            pool.map(busy, [0.2, 0.2])
    assert speed.forks == 2
    assert len(speed.samples) >= 10
    total, count = speed.worker_totals(0)
    assert count >= 10 and total > 0
    # Uninstalled: no more ticks, and later forks are not counted.
    n = len(speed.samples)
    busy(0.05)
    assert len(speed.samples) == n
