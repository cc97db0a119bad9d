"""Unit tests for records, sequences, IO sources and streams."""

import csv
import re

import pytest

from repro.errors import DataSourceError
from repro.geometry import Point
from repro.positioning import (
    CsvFileSource,
    JsonlFileSource,
    MemorySource,
    PositioningSequence,
    RawPositioningRecord,
    RecordStream,
    TableSource,
    windowed_sequences,
    write_csv,
    write_jsonl,
)
from repro.positioning.io import _record_from_row
from repro.timeutil import TimeRange

from .conftest import walk_sequence


def rec(t, device="dev", x=0.0, y=0.0, floor=1):
    return RawPositioningRecord(t, device, Point(x, y, floor))


class TestRecord:
    def test_paper_notation(self):
        record = rec(13 * 3600 + 125, device="oi", x=5.1, y=12.7, floor=3)
        assert str(record) == "oi, (5.1, 12.7, 3F), 1:02:05pm"

    def test_requires_device(self):
        with pytest.raises(DataSourceError):
            rec(0.0, device="")

    def test_sort_by_time_then_device(self):
        records = [rec(5, "b"), rec(1, "z"), rec(5, "a")]
        ordered = sorted(records)
        assert [(r.timestamp, r.device_id) for r in ordered] == [
            (1, "z"), (5, "a"), (5, "b"),
        ]

    def test_moved_and_refloored_are_copies(self):
        original = rec(0.0, x=1, y=1, floor=1)
        moved = original.moved(Point(2, 2, 1))
        refloored = original.refloored(3)
        assert original.location == Point(1, 1, 1)
        assert moved.location == Point(2, 2, 1)
        assert refloored.floor == 3 and refloored.location.xy == (1, 1)


class TestSequence:
    def test_sorts_records(self):
        seq = PositioningSequence("dev", [rec(5), rec(1), rec(3)])
        assert seq.timestamps == [1, 3, 5]

    def test_empty_rejected(self):
        with pytest.raises(DataSourceError):
            PositioningSequence("dev", [])

    def test_foreign_device_rejected(self):
        with pytest.raises(DataSourceError):
            PositioningSequence("dev", [rec(0, device="other")])

    def test_group_records(self):
        records = [rec(0, "b"), rec(1, "a"), rec(2, "b")]
        groups = PositioningSequence.group_records(records)
        assert [g.device_id for g in groups] == ["a", "b"]
        assert len(groups[1]) == 2

    def test_duration_and_frequency(self):
        seq = walk_sequence(points=[(i, 0, 1) for i in range(7)], interval=10)
        assert seq.duration == 60.0
        assert seq.frequency == pytest.approx(7.0)

    def test_mean_interval(self):
        seq = walk_sequence(points=[(i, 0, 1) for i in range(5)], interval=5)
        assert seq.mean_interval == 5.0

    def test_floors_visited(self):
        seq = walk_sequence(points=[(0, 0, 1), (1, 0, 3), (2, 0, 1)])
        assert seq.floors_visited == [1, 3]

    def test_slice_time(self):
        seq = walk_sequence(points=[(i, 0, 1) for i in range(10)], interval=5)
        window = TimeRange(10.0, 20.0)
        sliced = seq.slice_time(window)
        assert sliced is not None and len(sliced) == 3

    def test_slice_time_empty_is_none(self):
        seq = walk_sequence()
        assert seq.slice_time(TimeRange(1e6, 2e6)) is None

    def test_slice_index(self):
        seq = walk_sequence()
        assert len(seq.slice_index(2, 5)) == 3
        with pytest.raises(DataSourceError):
            seq.slice_index(5, 5)

    def test_split_on_gaps(self):
        records = [rec(0), rec(5), rec(1000), rec(1005)]
        seq = PositioningSequence("dev", records)
        pieces = seq.split_on_gaps(60.0)
        assert [len(p) for p in pieces] == [2, 2]

    def test_split_on_gaps_no_gap(self):
        seq = walk_sequence()
        assert len(seq.split_on_gaps(60.0)) == 1

    def test_split_bad_gap(self):
        with pytest.raises(DataSourceError):
            walk_sequence().split_on_gaps(0)

    def test_gaps_longer_than(self):
        records = [rec(0), rec(500), rec(505)]
        seq = PositioningSequence("dev", records)
        gaps = seq.gaps_longer_than(100)
        assert gaps == [TimeRange(0, 500)]

    def test_bounds(self):
        seq = walk_sequence(points=[(0, 0, 1), (10, 5, 1)])
        assert seq.bounds.width == 10 and seq.bounds.height == 5


class TestFileSources:
    def test_csv_roundtrip(self, tmp_path):
        seq = walk_sequence(points=[(1.5, 2.5, 2), (3.0, 4.0, 2)])
        path = tmp_path / "data.csv"
        count = write_csv(seq, path)
        assert count == 2
        read = list(CsvFileSource(path).iter_records())
        assert len(read) == 2
        assert read[0].location.floor == 2
        assert read[0].location.x == pytest.approx(1.5)

    def test_jsonl_roundtrip(self, tmp_path):
        seq = walk_sequence(points=[(1, 2, 1), (3, 4, 1)])
        path = tmp_path / "data.jsonl"
        write_jsonl(seq, path)
        read = list(JsonlFileSource(path).iter_records())
        assert [r.timestamp for r in read] == [0.0, 5.0]

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,x,y\nd,1,2\n")
        with pytest.raises(DataSourceError):
            list(CsvFileSource(path).iter_records())

    def test_csv_bad_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,x,y,floor,timestamp\nd,oops,2,1,0\n")
        with pytest.raises(DataSourceError):
            list(CsvFileSource(path).iter_records())

    @pytest.mark.parametrize(
        "text",
        [
            # reordered columns
            "timestamp,floor,y,x,device_id\n5.5,2,1.25,3.5,d1\n7,1,-2,4,d2\n",
            # extra columns, before, between and after the canonical ones
            "note,device_id,x,rssi,y,floor,timestamp,extra\n"
            "a,d1,1.5,-70,2.5,1,10.125,z\nb,d2,3,-71,4,2,11,\n",
            # blank lines between, after and around rows
            "device_id,x,y,floor,timestamp\n\nd1,1,2,1,0\n\n\nd1,2,2,1,5\n\n",
            # CRLF line endings, a quoted field and a blank CRLF line
            'device_id,x,y,floor,timestamp\r\n"d,1",1,2,1,0\r\n\r\nd2,2,2,3,5\r\n',
            # a repeated column: the last occurrence wins
            "device_id,x,y,floor,timestamp,x\nd1,1,2,1,0,9\n",
        ],
        ids=["reordered", "extra-columns", "blank-lines", "crlf", "repeated"],
    )
    def test_csv_reader_matches_dict_reader(self, tmp_path, text):
        """Differential: the positional reader yields what a header-keyed
        ``csv.DictReader`` row through ``_record_from_row`` yields."""
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as handle:
            expected = [
                _record_from_row(row, f"{path}:{line}")
                for line, row in enumerate(csv.DictReader(handle), start=2)
            ]
        found = list(CsvFileSource(path).iter_records())
        assert found == expected
        assert [
            (r.timestamp.hex(), r.location.x.hex(), r.location.y.hex())
            for r in found
        ] == [
            (r.timestamp.hex(), r.location.x.hex(), r.location.y.hex())
            for r in expected
        ]

    def test_csv_short_row_names_path_and_line(self, tmp_path):
        # Line numbers count the header and the data rows; blank rows are
        # skipped and not counted.
        path = tmp_path / "short.csv"
        path.write_text(
            "device_id,x,y,floor,timestamp\nd,1,2,1,0\n\nd,1,2\n"
        )
        with pytest.raises(DataSourceError, match=re.escape(f"{path}:3: short row")):
            list(CsvFileSource(path).iter_records())

    def test_csv_bad_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,x,y,floor,timestamp\nd,1,2,1,0\nd,1,2,1.5,5\n")
        with pytest.raises(DataSourceError, match=re.escape(f"{path}:3: bad record fields")):
            list(CsvFileSource(path).iter_records())

    def test_jsonl_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"device_id": "d"\n')
        with pytest.raises(DataSourceError):
            list(JsonlFileSource(path).iter_records())

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '{"device_id":"d","x":1,"y":2,"floor":1,"timestamp":0}\n\n'
        )
        assert len(list(JsonlFileSource(path).iter_records())) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataSourceError):
            list(CsvFileSource(tmp_path / "absent.csv").iter_records())

    def test_table_source(self):
        rows = [("d", 1.0, 2.0, 1, 0.0), ("d", 2.0, 2.0, 1, 5.0)]
        read = list(TableSource(rows).iter_records())
        assert len(read) == 2

    def test_table_source_bad_arity(self):
        with pytest.raises(DataSourceError):
            list(TableSource([("d", 1.0, 2.0)]).iter_records())

    def test_memory_source(self):
        seq = walk_sequence()
        source = MemorySource(seq)
        assert len(list(source.iter_records())) == len(seq)


class TestStream:
    def test_take(self):
        stream = RecordStream(walk_sequence())
        batch = stream.take(3)
        assert len(batch) == 3
        assert stream.consumed == 3

    def test_take_past_end(self):
        stream = RecordStream(walk_sequence())
        assert len(stream.take(100)) == 10

    def test_take_negative_rejected(self):
        with pytest.raises(DataSourceError):
            RecordStream([]).take(-1)

    def test_take_window_pushback(self):
        stream = RecordStream(walk_sequence(interval=5))
        first = stream.take_window(12.0)  # records at t=0,5,10
        second = stream.take_window(12.0)
        assert [r.timestamp for r in first] == [0, 5, 10]
        assert second[0].timestamp == 15.0

    def test_drain(self):
        stream = RecordStream(walk_sequence())
        stream.take(4)
        assert len(stream.drain()) == 6

    def test_windowed_sequences(self):
        a = walk_sequence("a", interval=5)
        b = walk_sequence("b", interval=5)
        merged = sorted(list(a) + list(b))
        stream = RecordStream(merged)
        windows = list(windowed_sequences(stream, window_seconds=20.0))
        assert len(windows) >= 2
        assert {s.device_id for s in windows[0]} == {"a", "b"}

    def test_windowed_callback(self):
        seen = []
        stream = RecordStream(walk_sequence())
        list(windowed_sequences(stream, 20.0, on_window=seen.append))
        assert seen
