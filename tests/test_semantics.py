"""Unit tests for the mobility-semantics data model (Table 1)."""

import json

import pytest

from repro.core.semantics import (
    EVENT_PASS_BY,
    EVENT_STAY,
    MobilitySemantic,
    MobilitySemanticsSequence,
    dumps_indented,
)
from repro.errors import AnnotationError
from repro.timeutil import TimeRange, parse_clock


def triplet(event, region, start, end, **kwargs):
    return MobilitySemantic(
        event=event,
        region_id=f"r-{region.lower()}",
        region_name=region,
        time_range=TimeRange(start, end),
        **kwargs,
    )


class TestMobilitySemantic:
    def test_table1_rendering(self):
        semantic = triplet(
            EVENT_STAY, "Adidas",
            parse_clock("1:02:05pm"), parse_clock("1:18:15pm"),
        )
        assert semantic.format() == "(stay, Adidas, 1:02:05-1:18:15pm)"

    def test_validation(self):
        with pytest.raises(AnnotationError):
            triplet("", "Adidas", 0, 1)
        with pytest.raises(AnnotationError):
            MobilitySemantic(EVENT_STAY, "", "X", TimeRange(0, 1))
        with pytest.raises(AnnotationError):
            triplet(EVENT_STAY, "Adidas", 0, 1, confidence=1.5)

    def test_duration(self):
        assert triplet(EVENT_STAY, "A", 10, 70).duration == 60.0

    def test_shifted(self):
        shifted = triplet(EVENT_STAY, "A", 0, 10).shifted(100)
        assert shifted.time_range == TimeRange(100, 110)

    def test_dict_roundtrip(self):
        original = triplet(
            EVENT_PASS_BY, "Nike", 5, 15,
            confidence=0.75, inferred=True, record_indexes=(3, 4),
        )
        clone = MobilitySemantic.from_dict(original.to_dict())
        assert clone == original

    def test_from_dict_missing_key(self):
        with pytest.raises(AnnotationError):
            MobilitySemantic.from_dict({"event": EVENT_STAY})


class TestSequence:
    def _sequence(self):
        return MobilitySemanticsSequence(
            "oi",
            [
                triplet(EVENT_STAY, "Adidas", 0, 970),
                triplet(EVENT_PASS_BY, "Nike", 971, 1088),
                triplet(EVENT_STAY, "Cashier", 1089, 1320),
            ],
        )

    def test_sorted_on_construction(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [triplet(EVENT_STAY, "B", 100, 200), triplet(EVENT_STAY, "A", 0, 50)],
        )
        assert sequence.region_ids == ["r-a", "r-b"]

    def test_table1_format(self):
        table = self._sequence().format_table()
        assert table.startswith("oi:")
        assert "(stay, Adidas" in table
        assert "(pass-by, Nike" in table

    def test_time_range(self):
        assert self._sequence().time_range == TimeRange(0, 1320)

    def test_empty_time_range_raises(self):
        with pytest.raises(AnnotationError):
            MobilitySemanticsSequence("d", []).time_range

    def test_events_and_regions(self):
        sequence = self._sequence()
        assert sequence.events == [EVENT_STAY, EVENT_PASS_BY, EVENT_STAY]
        assert sequence.region_ids == ["r-adidas", "r-nike", "r-cashier"]

    def test_gaps(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 100),
                triplet(EVENT_STAY, "B", 500, 600),   # 400 s gap
                triplet(EVENT_STAY, "C", 630, 700),   # 30 s gap
            ],
        )
        gaps = sequence.gaps(threshold=60.0)
        assert len(gaps) == 1
        index, window = gaps[0]
        assert index == 0 and window == TimeRange(100, 500)

    def test_conciseness_ratio(self):
        assert self._sequence().conciseness_ratio(300) == 100.0
        assert MobilitySemanticsSequence("d", []).conciseness_ratio(10) == 0.0

    def test_inferred_count(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 10),
                triplet(EVENT_PASS_BY, "B", 20, 30, inferred=True),
            ],
        )
        assert sequence.inferred_count == 1

    def test_json_roundtrip(self, tmp_path):
        sequence = self._sequence()
        path = tmp_path / "result.json"
        sequence.save_json(path)
        clone = MobilitySemanticsSequence.load_json(path)
        assert clone == sequence


class TestMerging:
    def test_merged_consecutive_same_event(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 100, record_indexes=(0, 1)),
                triplet(EVENT_STAY, "A", 101, 200, record_indexes=(2, 3)),
                triplet(EVENT_STAY, "B", 300, 400),
            ],
        )
        merged = sequence.merged_consecutive()
        assert len(merged) == 2
        assert merged[0].time_range == TimeRange(0, 200)
        assert merged[0].record_indexes == (0, 1, 2, 3)

    def test_merged_consecutive_keeps_distinct_events(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 100),
                triplet(EVENT_PASS_BY, "A", 101, 200),
            ],
        )
        assert len(sequence.merged_consecutive()) == 2

    def test_merged_same_region_majority_event(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 300),
                triplet(EVENT_PASS_BY, "A", 310, 330),
                triplet(EVENT_STAY, "A", 340, 600),
            ],
        )
        merged = sequence.merged_same_region()
        assert len(merged) == 1
        assert merged[0].event == EVENT_STAY  # stay dominates by duration
        assert merged[0].time_range == TimeRange(0, 600)

    def test_merged_same_region_respects_gap(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 100),
                triplet(EVENT_STAY, "A", 500, 600),  # left and came back
            ],
        )
        assert len(sequence.merged_same_region()) == 2

    def test_merged_same_region_keeps_inferred_separate(self):
        sequence = MobilitySemanticsSequence(
            "d",
            [
                triplet(EVENT_STAY, "A", 0, 100),
                triplet(EVENT_STAY, "A", 110, 200, inferred=True),
            ],
        )
        assert len(sequence.merged_same_region()) == 2

    def test_empty_merges(self):
        empty = MobilitySemanticsSequence("d", [])
        assert len(empty.merged_consecutive()) == 0
        assert len(empty.merged_same_region()) == 0


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": [], "b": {}, "c": ()},
        [1, True, False, None, 2.5, -0.0, 1e300, 10**20, "é\n\"x"],
        [float("nan"), float("inf"), -float("inf")],
        {"record_indexes": [0, 1, 2], "nested": [[1, 2], [3], [True, 1]]},
        (1, (2, [3, {"b": (4,)}])),
        [{"a": [0]}, {"é": "ü"}],
        3,
        "s",
        None,
        0.1,
    ],
)
def test_dumps_indented_equals_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)
