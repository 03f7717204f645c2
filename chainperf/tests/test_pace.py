"""Scaling program time by the reference load's samples."""

import time

import pytest

from pace import NOMINAL_S, PERIOD_S, Pace


def with_samples(*samples):
    p = Pace()
    p.samples = list(samples)
    return p


def test_nominal_speed_leaves_program_time_unchanged():
    p = with_samples((0.0, 1.0, NOMINAL_S), (3.0, 3.5, NOMINAL_S), (6.0, 7.0, NOMINAL_S))
    assert p.scaled_s(1.0, 6.0) == pytest.approx(4.5)
    assert p.paced_s(1.0, 6.0) == pytest.approx(0.5)


def test_each_stretch_scales_by_the_samples_at_its_ends():
    # twice as slow around the first stretch, on the reference speed after it
    p = with_samples((0.0, 1.0, 2 * NOMINAL_S), (3.0, 3.5, 2 * NOMINAL_S), (6.0, 7.0, NOMINAL_S))
    expected = 2.0 / 2 + 2.5 / 1.5
    assert p.scaled_s(1.0, 6.0) == pytest.approx(expected)


def test_time_outside_the_interval_is_left_out():
    p = with_samples((0.0, 1.0, NOMINAL_S), (5.0, 6.0, NOMINAL_S))
    assert p.scaled_s(2.0, 4.0) == pytest.approx(2.0)
    assert p.paced_s(0.5, 5.5) == pytest.approx(1.0)


def test_samples_are_taken_at_most_every_period():
    p = with_samples((0.0, time.perf_counter(), NOMINAL_S))
    p.sample_if_due()
    assert len(p.samples) == 1
    p.samples = [(0.0, time.perf_counter() - PERIOD_S, NOMINAL_S)]
    p.sample_if_due()
    assert len(p.samples) == 2


def test_load_takes_measurable_time():
    p = Pace()
    p.sample()
    (t0, t1, load_s), = p.samples
    assert 0 < load_s and t1 > t0


def test_time_before_the_first_and_after_the_last_sample_takes_its_speed():
    p = with_samples((1.0, 1.5, 2 * NOMINAL_S), (3.0, 3.5, NOMINAL_S))
    assert p.scaled_s(0.0, 4.0) == pytest.approx(1.0 / 2 + 1.5 / 1.5 + 0.5)
