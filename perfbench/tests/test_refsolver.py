"""Closed-form checks of the benchmark's independent reference code.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from refsolver import (ac_transfer, magnitude_db,  # noqa: E402
                       point_polyline_distance, scaled)

FREQS = np.array([10.0, 159.1549, 1e3, 2.5e4, 1e6])


def test_divider_is_flat_ratio():
    net = [("V", "VIN", "in", "0", 1.0, 0.0),
           ("R", "R1", "in", "out", 3e3),
           ("R", "R2", "out", "0", 1e3)]
    h = ac_transfer(net, "out", "VIN", FREQS)
    np.testing.assert_allclose(h, 0.25, rtol=1e-14, atol=0.0)


def test_rc_lowpass_matches_closed_form():
    r, c = 1e3, 1e-6
    net = [("V", "VIN", "in", "0", 1.0, 0.0),
           ("R", "R1", "in", "out", r),
           ("C", "C1", "out", "0", c)]
    expected = 1.0 / (1.0 + 2j * math.pi * FREQS * r * c)
    h = ac_transfer(net, "out", "VIN", FREQS)
    np.testing.assert_allclose(h, expected, rtol=1e-13, atol=0.0)
    corner = 1.0 / (2 * math.pi * r * c)
    db = magnitude_db(ac_transfer(net, "out", "VIN", [corner]))
    assert abs(db[0] - 10 * math.log10(0.5)) < 1e-9


def test_rl_highpass_matches_closed_form():
    r, inductance = 50.0, 1e-3
    net = [("V", "VIN", "in", "0", 2.0, 30.0),
           ("R", "R1", "in", "out", r),
           ("L", "L1", "out", "0", inductance)]
    s = 2j * math.pi * FREQS
    expected = s * inductance / (r + s * inductance)
    h = ac_transfer(net, "out", "VIN", FREQS)
    np.testing.assert_allclose(h, expected, rtol=1e-13, atol=0.0)


def test_ideal_inverting_amplifier():
    net = [("V", "VIN", "in", "0", 1.0, 0.0),
           ("R", "R1", "in", "m", 1e3),
           ("R", "R2", "m", "out", 4.7e3),
           ("OPAMP", "OA", "0", "m", "out")]
    h = ac_transfer(net, "out", "VIN", FREQS)
    np.testing.assert_allclose(h, -4.7, rtol=1e-13, atol=0.0)


def test_voltage_follower_buffers_rc_section():
    r, c = 2e3, 1e-8
    net = [("V", "VIN", "in", "0", 1.0, 0.0),
           ("R", "R1", "in", "a", r),
           ("C", "C1", "a", "0", c),
           ("OPAMP", "OA", "a", "out", "out"),
           ("R", "RL", "out", "0", 10.0)]
    expected = 1.0 / (1.0 + 2j * math.pi * FREQS * r * c)
    h = ac_transfer(net, "out", "VIN", FREQS)
    np.testing.assert_allclose(h, expected, rtol=1e-12, atol=0.0)


def test_scaled_changes_only_the_named_value():
    net = [("V", "VIN", "in", "0", 1.0, 0.0),
           ("R", "R1", "in", "out", 1e3),
           ("R", "R2", "out", "0", 1e3)]
    faulty = scaled(net, "R2", 1.2)
    assert faulty[2][4] == pytest.approx(1.2e3)
    assert faulty[:2] == net[:2]
    h = ac_transfer(faulty, "out", "VIN", [1e3])
    assert h[0].real == pytest.approx(1.2 / 2.2, rel=1e-14)
    with pytest.raises(ValueError):
        scaled(net, "VIN", 1.1)


def test_rejects_unknown_elements_and_missing_stimulus():
    with pytest.raises(ValueError):
        ac_transfer([("E", "E1", "a", "0", 1.0)], "a", "E1", [1.0])
    with pytest.raises(ValueError):
        ac_transfer([("V", "VIN", "in", "0", 0.0, 0.0),
                     ("R", "R1", "in", "0", 1.0)], "in", "VIN", [1.0])


def test_polyline_distance_cases():
    line = [[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]
    assert point_polyline_distance([1.0, 0.0], line) == 0.0
    assert point_polyline_distance([0.5, 0.0], line) == 0.0
    assert point_polyline_distance([0.5, -0.3], line) == pytest.approx(0.3)
    assert point_polyline_distance([1.5, 1.0], line) == pytest.approx(0.5)
    # Beyond the first endpoint: distance to the endpoint itself.
    assert point_polyline_distance([-3.0, -4.0], line) == pytest.approx(5.0)
    # Degenerate (zero-length) segment and a single-vertex polyline.
    assert point_polyline_distance(
        [3.0, 4.0], [[0.0, 0.0], [0.0, 0.0]]) == pytest.approx(5.0)
    assert point_polyline_distance([3.0, 4.0], [[0.0, 0.0]]) == \
        pytest.approx(5.0)
    with pytest.raises(ValueError):
        point_polyline_distance([0.0, 0.0, 0.0], line)
