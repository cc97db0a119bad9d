"""Location interpolation: the second repair step of the cleaning layer.

"If the speed constraint violation still occurs after the correction, a
location interpolation is performed by deriving the possible locations at
the time of that record based on the indoor geometrical and topological
information captured by the DSM" (paper §3).  The repaired location is
placed on the shortest indoor walking path between the surrounding valid
anchors, at the arc-length fraction matching the record's timestamp — never
inside a wall, because the path itself respects doors.
"""

from __future__ import annotations

from ...dsm import Topology
from ...geometry import Point
from ...positioning import RawPositioningRecord


class LocationInterpolator:
    """Derives plausible locations for invalid records from the DSM.

    Two seams let the columnar pipeline share its per-chunk memos without
    changing a result: ``locator`` answers ``partition_at`` /
    ``nearest_partition`` (default: the DSM) and ``router`` answers
    ``walking_path`` (default: the topology).
    """

    def __init__(self, topology: Topology, locator=None, router=None):
        self.topology = topology
        self.locator = locator if locator is not None else topology.model
        self.router = router if router is not None else topology

    def interpolate(
        self,
        record: RawPositioningRecord,
        previous: RawPositioningRecord | None,
        following: RawPositioningRecord | None,
    ) -> RawPositioningRecord:
        """A repaired copy of ``record`` between the two valid anchors.

        With both anchors, the location is the point at the time-matched
        arc-length fraction of the indoor walking path.  With a single
        anchor (sequence edge), the record snaps to that anchor's location —
        the most conservative feasible estimate.  With no anchors the
        record is snapped into the nearest partition unchanged.
        """
        if previous is not None and following is not None:
            location = self._along_path(
                previous.location,
                following.location,
                self._fraction(
                    previous.timestamp, record.timestamp, following.timestamp
                ),
            )
        elif previous is not None:
            location = previous.location
        elif following is not None:
            location = following.location
        else:
            location = self._snap(record.location)
        return record.moved(location)

    def _fraction(self, t_prev: float, t_now: float, t_next: float) -> float:
        span = t_next - t_prev
        if span <= 0.0:
            return 0.5
        return min(1.0, max(0.0, (t_now - t_prev) / span))

    def _along_path(self, start: Point, goal: Point, fraction: float) -> Point:
        waypoints = self.router.walking_path(start, goal)
        if len(waypoints) < 2:
            # Unreachable pair (shouldn't happen for valid anchors); fall
            # back to whichever endpoint the fraction favors, snapped in.
            return self._snap(start if fraction < 0.5 else goal)
        target = self._path_length(waypoints) * fraction
        walked = 0.0
        for a, b in zip(waypoints, waypoints[1:]):
            leg = a.planar_distance_to(b)
            if walked + leg >= target and leg > 0.0:
                t = (target - walked) / leg
                point = Point(
                    a.x + (b.x - a.x) * t,
                    a.y + (b.y - a.y) * t,
                    a.floor if t < 1.0 else b.floor,
                )
                return self._snap(point)
            walked += leg
        return self._snap(waypoints[-1])

    @staticmethod
    def _path_length(waypoints: list[Point]) -> float:
        return sum(a.planar_distance_to(b) for a, b in zip(waypoints, waypoints[1:]))

    def _snap(self, point: Point) -> Point:
        """Project a point into walkable space if it fell outside."""
        locator = self.locator
        if locator.partition_at(point) is not None:
            return point
        snapped = locator.nearest_partition(point, max_distance=10.0)
        if snapped is None:
            return point
        partition, _ = snapped
        from ...geometry import Circle, Polygon

        shape = partition.shape
        if isinstance(shape, Polygon):
            if shape.contains_point(point):
                return point
            best = min(
                (edge.closest_point_to(point) for edge in shape.edges()),
                key=lambda candidate: candidate.planar_distance_to(point),
            )
            # Nudge slightly inside so downstream containment tests succeed.
            centroid = shape.centroid
            return best.lerp(centroid, 0.02)
        if isinstance(shape, Circle):
            direction = point.planar_distance_to(shape.center)
            if direction <= shape.radius:
                return point
            t = (shape.radius * 0.98) / direction
            return Point(
                shape.center.x + (point.x - shape.center.x) * t,
                shape.center.y + (point.y - shape.center.y) * t,
                shape.floor,
            )
        return point
