"""Floor value correction: the first repair step of the cleaning layer.

"An invalid positioning record is repaired in two steps.  A floor value
correction fixes an error in that record's floor value." (paper §3).
Wi-Fi floor estimation misfires far more often than planar coordinates, so
trying neighbor floors first repairs most violations without touching the
(x, y) fix at all.
"""

from __future__ import annotations

from ...positioning import RawPositioningRecord
from .speed import SpeedValidator


class FloorCorrector:
    """Attempts to repair an invalid record by changing only its floor.

    ``locator`` answers ``partition_at`` / ``nearest_partition``; it
    defaults to the DSM itself, and the columnar pipeline passes its
    memoizing :class:`~repro.columnar.locate.LocatorSession` instead.
    """

    def __init__(self, validator: SpeedValidator, locator=None):
        self.validator = validator
        self.locator = (
            locator if locator is not None else validator.topology.model
        )

    def candidate_floors(
        self,
        record: RawPositioningRecord,
        previous: RawPositioningRecord | None,
        following: RawPositioningRecord | None,
    ) -> list[int]:
        """Floors worth trying, most plausible first.

        Neighbor floors come first (people rarely change floors between
        consecutive fixes), then floors adjacent to the reported one.
        """
        candidates: list[int] = []
        for neighbor in (previous, following):
            if neighbor is not None and neighbor.floor not in candidates:
                if neighbor.floor != record.floor:
                    candidates.append(neighbor.floor)
        for delta in (-1, 1):
            floor = record.floor + delta
            if floor not in candidates and floor != record.floor:
                candidates.append(floor)
        return candidates

    def try_correct(
        self,
        record: RawPositioningRecord,
        previous: RawPositioningRecord | None,
        following: RawPositioningRecord | None,
    ) -> RawPositioningRecord | None:
        """The floor-corrected record, or None when no floor fixes it.

        A candidate floor is accepted only when the corrected record is
        feasible against *both* the previous and the following anchor
        (where they exist) — "If the speed constraint violation still
        occurs after the correction, a location interpolation is
        performed."
        """
        for floor in self.candidate_floors(record, previous, following):
            corrected = record.refloored(floor)
            if not self._location_exists(corrected):
                continue
            if previous is not None and not self.validator.transition_feasible(
                previous, corrected
            ):
                continue
            if following is not None and not self.validator.transition_feasible(
                corrected, following
            ):
                continue
            return corrected
        return None

    def _location_exists(self, record: RawPositioningRecord) -> bool:
        """The corrected fix must land in (or near) walkable space."""
        locator = self.locator
        if locator.partition_at(record.location) is not None:
            return True
        return (
            locator.nearest_partition(record.location, max_distance=3.0)
            is not None
        )
