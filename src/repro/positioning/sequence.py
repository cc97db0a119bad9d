"""Per-device positioning sequences.

The Translator "takes each individual positioning sequence as input"
(paper §3): a time-ordered list of one device's raw records.  The class here
is an immutable value object with the temporal/spatial accessors every layer
needs, plus gap splitting and time slicing for the Data Selector.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from ..errors import DataSourceError
from ..geometry import BoundingBox, Point
from ..timeutil import TimeRange
from .record import RawPositioningRecord


@dataclass(frozen=True)
class PositioningSequence:
    """A time-ordered sequence of one device's positioning records."""

    device_id: str
    records: tuple[RawPositioningRecord, ...]

    def __init__(
        self, device_id: str, records: list[RawPositioningRecord] | tuple
    ):
        records = tuple(sorted(records, key=attrgetter("timestamp")))
        if not records:
            raise DataSourceError(f"empty sequence for device {device_id!r}")
        for record in records:
            if record.device_id != device_id:
                raise DataSourceError(
                    f"record of device {record.device_id!r} in sequence of "
                    f"{device_id!r}"
                )
        object.__setattr__(self, "device_id", device_id)
        object.__setattr__(self, "records", records)

    @classmethod
    def group_records(
        cls, records: list[RawPositioningRecord]
    ) -> list["PositioningSequence"]:
        """Group a mixed record batch into per-device sequences.

        Sequences are returned in device-id order, which keeps downstream
        batch translation deterministic.
        """
        by_device: dict[str, list[RawPositioningRecord]] = {}
        for record in records:
            by_device.setdefault(record.device_id, []).append(record)
        return [cls(device, recs) for device, recs in sorted(by_device.items())]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RawPositioningRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RawPositioningRecord:
        return self.records[index]

    @property
    def points(self) -> list[Point]:
        """All record locations in time order."""
        return [r.location for r in self.records]

    @property
    def timestamps(self) -> list[float]:
        """All record timestamps in time order."""
        return [r.timestamp for r in self.records]

    @property
    def time_range(self) -> TimeRange:
        """Closed interval from first to last record."""
        return TimeRange(self.records[0].timestamp, self.records[-1].timestamp)

    @property
    def duration(self) -> float:
        """Elapsed seconds between first and last record."""
        return self.time_range.duration

    @property
    def floors_visited(self) -> list[int]:
        """Distinct reported floors in ascending order."""
        return sorted({r.floor for r in self.records})

    @property
    def bounds(self) -> BoundingBox:
        """Planar bounding box over all records."""
        return BoundingBox.around(self.points)

    @property
    def mean_interval(self) -> float:
        """Mean seconds between consecutive records (0 for singletons)."""
        if len(self.records) < 2:
            return 0.0
        return self.duration / (len(self.records) - 1)

    @property
    def frequency(self) -> float:
        """Positioning frequency in records per minute.

        This is the quantity the paper's Data Selector filters on
        ("positioning frequency" rule).
        """
        if self.duration <= 0.0:
            return float(len(self.records)) * 60.0
        return len(self.records) / self.duration * 60.0

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_records(
        self, records: list[RawPositioningRecord]
    ) -> "PositioningSequence":
        """A new sequence for the same device with different records."""
        return PositioningSequence(self.device_id, records)

    def slice_time(self, window: TimeRange) -> "PositioningSequence | None":
        """Records falling inside ``window``, or None when empty."""
        kept = [r for r in self.records if window.contains(r.timestamp)]
        if not kept:
            return None
        return self.with_records(kept)

    def slice_index(self, start: int, stop: int) -> "PositioningSequence":
        """Records by positional range ``[start, stop)``."""
        kept = list(self.records[start:stop])
        if not kept:
            raise DataSourceError("index slice selected no records")
        return self.with_records(kept)

    def split_on_gaps(self, max_gap: float) -> list["PositioningSequence"]:
        """Split where consecutive records are more than ``max_gap`` apart.

        Devices that leave the building and return later produce one
        sequence per visit; the Data Selector applies this before
        sequence-level rules.
        """
        if max_gap <= 0:
            raise DataSourceError(f"max_gap must be positive, got {max_gap}")
        pieces: list[PositioningSequence] = []
        current: list[RawPositioningRecord] = [self.records[0]]
        for prev, record in zip(self.records, self.records[1:]):
            if record.timestamp - prev.timestamp > max_gap:
                pieces.append(self.with_records(current))
                current = []
            current.append(record)
        pieces.append(self.with_records(current))
        return pieces

    def gaps_longer_than(self, threshold: float) -> list[TimeRange]:
        """Inter-record gaps exceeding ``threshold`` seconds."""
        found = []
        for prev, record in zip(self.records, self.records[1:]):
            if record.timestamp - prev.timestamp > threshold:
                found.append(TimeRange(prev.timestamp, record.timestamp))
        return found

    def __str__(self) -> str:
        return (
            f"sequence({self.device_id}: {len(self.records)} records, "
            f"{self.duration:.0f}s, floors {self.floors_visited})"
        )
