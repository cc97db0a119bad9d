"""Positioning data sources: text files, tables and streams.

The Data Selector "accepts the indoor positioning data from multi-sources
(e.g., text files, database tables, and streams APIs)" (paper §2).  Every
source implements the one-method :class:`DataSource` protocol so the
selector can consume them uniformly; CSV and JSON-lines files cover the
text formats, :class:`TableSource` adapts row tuples from any DB cursor,
and :mod:`repro.positioning.stream` adds the streaming API.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from ..errors import DataSourceError
from ..geometry import Point
from .record import RawPositioningRecord

#: Canonical CSV column order.
CSV_COLUMNS = ("device_id", "x", "y", "floor", "timestamp")


class DataSource(Protocol):
    """Anything that can yield raw positioning records."""

    def iter_records(self) -> Iterator[RawPositioningRecord]:
        """Yield records in source order (not necessarily time order)."""
        ...


class MemorySource:
    """An in-memory record batch, mostly for tests and simulation output."""

    def __init__(self, records: Iterable[RawPositioningRecord]):
        self._records = list(records)

    def iter_records(self) -> Iterator[RawPositioningRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class CsvFileSource:
    """Reads ``device_id,x,y,floor,timestamp`` CSV files (with header)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def iter_records(self) -> Iterator[RawPositioningRecord]:
        try:
            with open(self.path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                # A repeated column resolves to its last occurrence, as in a dict.
                index = {name: i for i, name in enumerate(next(reader, ()))}
                missing = set(CSV_COLUMNS) - set(index)
                if missing:
                    raise DataSourceError(
                        f"{self.path}: missing CSV columns {sorted(missing)}"
                    )
                d, x, y, f, t = (index[name] for name in CSV_COLUMNS)
                # Blank rows are skipped and not counted in line numbers.
                line_number = 1
                for row in reader:
                    if not row:
                        continue
                    line_number += 1
                    try:
                        timestamp = float(row[t])
                        device_id = row[d]
                        location = Point(float(row[x]), float(row[y]), int(row[f]))
                    except IndexError:
                        raise DataSourceError(
                            f"{self.path}:{line_number}: short row {row!r}"
                        ) from None
                    except ValueError as exc:
                        raise DataSourceError(
                            f"{self.path}:{line_number}: bad record fields: {exc}"
                        ) from exc
                    yield RawPositioningRecord(timestamp, device_id, location)
        except OSError as exc:
            raise DataSourceError(f"cannot read {self.path}: {exc}") from exc


class JsonlFileSource:
    """Reads JSON-lines files with one record object per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def iter_records(self) -> Iterator[RawPositioningRecord]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataSourceError(
                            f"{self.path}:{line_number}: malformed JSON: {exc}"
                        ) from exc
                    yield _record_from_row(data, f"{self.path}:{line_number}")
        except OSError as exc:
            raise DataSourceError(f"cannot read {self.path}: {exc}") from exc


class TableSource:
    """Adapts database-style row tuples ``(device_id, x, y, floor, ts)``.

    Accepts any iterable of sequences — a DB-API cursor, a list of tuples,
    a generator — which is how TRIPS would sit on top of a positioning
    table.
    """

    def __init__(self, rows: Iterable[Sequence]):
        self._rows = rows

    def iter_records(self) -> Iterator[RawPositioningRecord]:
        for index, row in enumerate(self._rows):
            if len(row) != 5:
                raise DataSourceError(
                    f"table row {index} has {len(row)} fields, expected 5"
                )
            device_id, x, y, floor, timestamp = row
            yield _make_record(device_id, x, y, floor, timestamp, f"row {index}")


def _record_from_row(row: dict, context: str) -> RawPositioningRecord:
    try:
        return _make_record(
            row["device_id"], row["x"], row["y"], row["floor"], row["timestamp"],
            context,
        )
    except KeyError as exc:
        raise DataSourceError(f"{context}: missing field {exc}") from exc


def _make_record(
    device_id, x, y, floor, timestamp, context: str
) -> RawPositioningRecord:
    try:
        return RawPositioningRecord(
            timestamp=float(timestamp),
            device_id=str(device_id),
            location=Point(float(x), float(y), int(floor)),
        )
    except (TypeError, ValueError) as exc:
        raise DataSourceError(f"{context}: bad record fields: {exc}") from exc


def write_csv(records: Iterable[RawPositioningRecord], path: str | Path) -> int:
    """Write records to CSV; returns the count written."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(
                (
                    record.device_id,
                    f"{record.location.x:.4f}",
                    f"{record.location.y:.4f}",
                    record.floor,
                    f"{record.timestamp:.3f}",
                )
            )
            count += 1
    return count


def write_jsonl(records: Iterable[RawPositioningRecord], path: str | Path) -> int:
    """Write records to JSON-lines; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "device_id": record.device_id,
                        "x": record.location.x,
                        "y": record.location.y,
                        "floor": record.floor,
                        "timestamp": record.timestamp,
                    }
                )
            )
            handle.write("\n")
            count += 1
    return count
