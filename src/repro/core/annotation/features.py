"""Snippet feature extraction for event identification.

"The feature extraction considers the information of positioning location
variance, traveling distance and speed, covering range, number of turns,
etc." (paper §3).  The extractor turns a record segment into a fixed-width
vector; the same function serves both the Event Editor's training segments
and the splitter's snippets at annotation time, so train/serve skew is
impossible by construction.  It is one pass: each step's ``math.hypot``
is measured once and every feature uses the expressions and summation
order of the :mod:`repro.geometry.measure` helpers (the definition, and
the test oracle), so the vector is theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import AnnotationError
from ...geometry.measure import _wrap_angle, floor_changes
from ...positioning import RawPositioningRecord

#: Feature order produced by :func:`extract_features`.
FEATURE_NAMES = (
    "duration",
    "record_count",
    "location_variance",
    "path_length",
    "mean_speed",
    "max_speed",
    "covering_range",
    "turn_count",
    "straightness",
    "mean_interval",
    "floor_changes",
    "point_density",
)

_TURN_THRESHOLD = math.pi / 4  # count_turns' default angle


def _pairwise_sum(values: list[float]) -> float:
    """numpy's float64 ``add.reduce`` up to its 128-value block: a plain
    loop below 8 values, else eight strided lanes summed as a tree, then
    the remainder."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    lanes = values[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            lanes[j] += values[i + j]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for value in values[stop:]:
        total += value
    return total


def _variance(values: list[float]) -> float:
    """``float(np.var(values))`` bit for bit, summed in numpy's order
    (longer arrays recurse in numpy, so they call it)."""
    n = len(values)
    if n > 128:
        return float(np.var(np.array(values)))
    mean = _pairwise_sum(values) / n
    return _pairwise_sum([(v - mean) * (v - mean) for v in values]) / n


def extract_features(records: list[RawPositioningRecord]) -> np.ndarray:
    """The paper's snippet feature vector, in :data:`FEATURE_NAMES` order."""
    count = len(records)
    if count < 1:
        raise AnnotationError("cannot extract features from zero records")
    points = [record.location for record in records]
    xs = [point.x for point in points]
    ys = [point.y for point in points]
    timestamps = [record.timestamp for record in records]
    duration = timestamps[-1] - timestamps[0]
    # path_length's running total, speeds' kept steps and count_turns'
    # headings, in one walk over the steps.
    travel = 0.0
    speeds: list[float] = []
    headings: list[float] = []
    for k in range(1, count):
        x0, y0, x1, y1 = xs[k - 1], ys[k - 1], xs[k], ys[k]
        step = math.hypot(x0 - x1, y0 - y1)
        travel += step
        dt = timestamps[k] - timestamps[k - 1]
        if dt > 1e-12:
            speeds.append(step / dt)
        if step > 1e-9:
            headings.append(math.atan2(y1 - y0, x1 - x0))
    turns = sum(
        1
        for h1, h2 in zip(headings, headings[1:])
        if abs(_wrap_angle(h2 - h1)) >= _TURN_THRESHOLD
    )
    if count > 1:
        variance = _variance(xs) + _variance(ys)
        covering = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        mean_speed = 0.0 if duration <= 1e-12 else travel / duration
        interval = duration / (count - 1)
    else:
        variance = covering = mean_speed = interval = 0.0
    displacement = math.hypot(xs[0] - xs[-1], ys[0] - ys[-1])
    straightness = 0.0 if travel <= 1e-12 else min(1.0, displacement / travel)
    return np.array(
        [
            duration,
            float(count),
            variance,
            travel,
            mean_speed,
            max(speeds) if speeds else 0.0,
            covering,
            float(turns),
            straightness,
            interval,
            float(floor_changes([point.floor for point in points])),
            count / duration if duration > 0 else float(count),
        ],
        dtype=np.float64,
    )


def feature_index(name: str) -> int:
    """Column index of a named feature (raises on unknown names)."""
    try:
        return FEATURE_NAMES.index(name)
    except ValueError:
        raise AnnotationError(f"unknown feature name: {name!r}") from None
