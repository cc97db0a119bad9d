"""Differentials for the one-pass snippet-feature kernel.

``extract_features`` derives all twelve features from one walk over the
records; the ``repro.geometry.measure`` helpers stay the definition.  The
oracle below is the helper composition the kernel replaced, and every
property compares ``tobytes()``, so equality is bit for bit (signed zeros
included).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.annotation import extract_features
from repro.core.annotation.features import _variance
from repro.geometry import (
    Point,
    count_turns,
    covering_range,
    floor_changes,
    location_variance,
    max_speed,
    mean_speed,
    path_length,
    straightness,
)
from repro.positioning import RawPositioningRecord


def helper_features(records) -> np.ndarray:
    """The feature vector as a composition of the ``measure`` helpers."""
    points = [r.location for r in records]
    timestamps = [r.timestamp for r in records]
    duration = timestamps[-1] - timestamps[0]
    count = len(records)
    return np.array(
        [
            duration,
            float(count),
            location_variance(points) if count > 1 else 0.0,
            path_length(points),
            mean_speed(points, timestamps),
            max_speed(points, timestamps),
            covering_range(points),
            float(count_turns(points)),
            straightness(points),
            duration / (count - 1) if count > 1 else 0.0,
            float(floor_changes([p.floor for p in points])),
            count / duration if duration > 0 else float(count),
        ],
        dtype=np.float64,
    )


coordinates = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
# Zero steps, sub-1e-12 steps (speed and mean-speed guards) and real ones.
time_steps = st.sampled_from([0.0, 1e-13, 5e-13, 1e-6, 0.5, 2.0, 5.0, 37.25])


@st.composite
def snippets(draw):
    # Mostly splitter-sized snippets; a few past the 128-value block, where
    # the variance falls back to np.var.
    size = draw(st.integers(1, 24) | st.integers(120, 200))
    start = draw(st.floats(0.0, 1e6, allow_nan=False))
    repeat = draw(st.booleans())  # a stationary cloud of repeated points
    origin = Point(draw(coordinates), draw(coordinates), draw(st.integers(1, 3)))
    records = []
    timestamp = start
    for index in range(size):
        if index:
            timestamp += draw(time_steps)
        if repeat and draw(st.booleans()):
            location = origin
        else:
            location = Point(
                draw(coordinates), draw(coordinates), draw(st.integers(1, 3))
            )
        records.append(RawPositioningRecord(timestamp, "dev", location))
    return records


def _records(points, interval=5.0, start=0.0):
    return [
        RawPositioningRecord(start + interval * i, "dev", Point(x, y, f))
        for i, (x, y, f) in enumerate(points)
    ]


@settings(max_examples=40, deadline=None)
@given(snippets())
@example(_records([(1.0, 2.0, 1)]))
@example(_records([(3.0, 3.0, 1)] * 9, interval=0.0))
@example(_records([(0.0, 0.0, 1), (1.0, 0.0, 2), (1.0, 1.0, 1)], interval=1e-13))
@example(_records([(-0.0, -0.0, 1), (0.0, -0.0, 1), (-0.0, 0.0, 2)]))
@example(_records([(float(i % 7), float(i % 5), 1 + i % 2) for i in range(200)]))
def test_kernel_equals_the_helper_composition(records):
    assert (
        extract_features(records).tobytes()
        == helper_features(records).tobytes()
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(coordinates, min_size=1, max_size=128))
@example([0.1] * 8)
@example([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@example([1e16, 1.0, -1e16, 3.0] * 32)
def test_numpy_order_variance_equals_np_var(values):
    assert _variance(values).hex() == float(np.var(np.array(values))).hex()


def test_long_snippets_fall_back_to_np_var():
    values = [math.sin(i) * 1e3 for i in range(300)]
    assert _variance(values) == float(np.var(np.array(values)))
