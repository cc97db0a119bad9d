"""Columnar record batches: parallel arrays over one window of records.

A :class:`RecordBatch` stores one window's positioning records as parallel
columns — timestamps, x, y (``array('d')``), floors (``array('q')``),
device ids (a list), plus an optional quality column — instead of a list
of per-record objects.  The batch is the unit the columnar phase-one
kernels (:mod:`repro.columnar.kernels`) sweep over; conversion to and from
:class:`~repro.positioning.RawPositioningRecord` objects happens only at
the pipeline boundary.

Round-tripping is exact: ``RecordBatch.from_records(rs).to_records()``
reproduces the input records bit for bit (``array('d')`` stores IEEE-754
doubles verbatim, ``array('q')`` stores the floor integers exactly), in
the original order.  ``tests/test_columnar_equivalence.py`` property-tests
this invariant, including empty windows and single-record devices.

:meth:`RecordBatch.column` returns zero-copy numpy ``float64``/``int64``
views of the columns.  Every *decision* made over the columns is taken
with scalar arithmetic (see :mod:`repro.columnar.locate`), so the
vectorized prime can only accelerate, never change, results.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as _np

from ..positioning import PositioningSequence, RawPositioningRecord


class RecordBatch:
    """Parallel-array view of a window of positioning records.

    Columns are index-aligned: row ``i`` holds record ``i`` of the input
    order.  The batch itself is layout only — it carries no pipeline
    semantics — and is immutable by convention (kernels never write to a
    batch they did not build).
    """

    __slots__ = ("timestamps", "xs", "ys", "floors", "device_ids", "qualities")

    def __init__(
        self,
        timestamps: array,
        xs: array,
        ys: array,
        floors: array,
        device_ids: list[str],
        qualities: array | None = None,
    ):
        n = len(timestamps)
        if not (len(xs) == len(ys) == len(floors) == len(device_ids) == n) or (
            qualities is not None and len(qualities) != n
        ):
            raise ValueError("record batch columns must be index-aligned")
        self.timestamps = timestamps
        self.xs = xs
        self.ys = ys
        self.floors = floors
        self.device_ids = device_ids
        self.qualities = qualities

    # ------------------------------------------------------------------
    # Boundary conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[RawPositioningRecord],
        qualities: Iterable[float] | None = None,
    ) -> "RecordBatch":
        """Columnarize records in order; the empty window is a valid batch.

        ``qualities`` optionally attaches one quality weight per record
        (positioning confidence, signal strength — whatever the feed
        reports); the column is carried verbatim and round-tripped
        bit for bit alongside the coordinates.
        """
        locations = [record.location for record in records]
        timestamps = array("d", [record.timestamp for record in records])
        xs = array("d", [location.x for location in locations])
        ys = array("d", [location.y for location in locations])
        floors = array("q", [location.floor for location in locations])
        device_ids = [record.device_id for record in records]
        quality_column = None
        if qualities is not None:
            quality_column = array("d", qualities)
        return cls(timestamps, xs, ys, floors, device_ids, quality_column)

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[PositioningSequence]
    ) -> tuple["RecordBatch", list[tuple[int, int]]]:
        """One batch over several sequences, plus per-sequence row spans.

        Returns ``(batch, spans)`` where ``spans[k] = (start, end)`` are
        the half-open row indexes of sequence ``k`` — the chunked pipeline
        primes one batch per chunk and addresses each device by its span.
        """
        records: list[RawPositioningRecord] = []
        spans: list[tuple[int, int]] = []
        for sequence in sequences:
            start = len(records)
            records.extend(sequence.records)
            spans.append((start, len(records)))
        return cls.from_records(records), spans

    def to_records(self) -> list[RawPositioningRecord]:
        """The exact record objects back, in batch order.

        Floats come straight out of the ``array('d')`` columns, so every
        coordinate and timestamp is bit-identical to what went in
        (including signed zeros and subnormals).
        """
        from ..geometry import Point

        return [
            RawPositioningRecord(
                self.timestamps[i],
                self.device_ids[i],
                Point(self.xs[i], self.ys[i], self.floors[i]),
            )
            for i in range(len(self.timestamps))
        ]

    def to_sequences(
        self, spans: Iterable[tuple[int, int]]
    ) -> list[PositioningSequence]:
        """The sequences back from :meth:`from_sequences`' batch and spans,
        records exact as in :meth:`to_records`."""
        records = self.to_records()
        return [
            PositioningSequence(records[start].device_id, records[start:end])
            for start, end in spans
        ]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    def column(self, name: str):
        """A column by name, as a zero-copy numpy view.

        ``device_ids`` is always the plain list (and an absent quality
        column ``None``).
        """
        values = getattr(self, name)
        if name == "device_ids" or values is None:
            return values
        return _np.frombuffer(
            values, dtype=_np.int64 if name == "floors" else _np.float64
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return (
            self.timestamps.tobytes() == other.timestamps.tobytes()
            and self.xs.tobytes() == other.xs.tobytes()
            and self.ys.tobytes() == other.ys.tobytes()
            and self.floors.tobytes() == other.floors.tobytes()
            and self.device_ids == other.device_ids
            and (self.qualities is None) == (other.qualities is None)
            and (
                self.qualities is None
                or self.qualities.tobytes() == other.qualities.tobytes()  # type: ignore[union-attr]
            )
        )

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} records)"
