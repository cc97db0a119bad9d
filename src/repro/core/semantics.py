"""Mobility semantics: the output representation of the translation.

A mobility semantics is the paper's triplet of "an event annotation
(mobility event stay or pass-by), a spatial annotation (a semantic region
like Nike Store) and a temporal annotation (time period)" — the right-hand
side of Table 1.  Sequences of these triplets are "very concise to process
as they use a more condensed form compared to the raw positioning records".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator

from ..errors import AnnotationError
from ..timeutil import TimeRange

#: The two built-in mobility events every TRIPS deployment understands.
EVENT_STAY = "stay"
EVENT_PASS_BY = "pass-by"


@dataclass(frozen=True)
class MobilitySemantic:
    """One ``(event, region, time-range)`` triplet.

    ``record_indexes`` point back into the *cleaned* positioning sequence
    the triplet was derived from, which is how the viewer selects a display
    point ("selected from the positioning location(s) in the mobility
    semantics's corresponding raw record(s)", paper footnote 1).  Inferred
    triplets produced by the complementing layer have no backing records and
    carry ``inferred=True`` plus a MAP ``confidence``.
    """

    event: str
    region_id: str
    region_name: str
    time_range: TimeRange
    confidence: float = 1.0
    inferred: bool = False
    record_indexes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.event:
            raise AnnotationError("mobility semantic requires an event annotation")
        if not self.region_id:
            raise AnnotationError("mobility semantic requires a spatial annotation")
        if not 0.0 <= self.confidence <= 1.0:
            raise AnnotationError(
                f"confidence must be in [0, 1], got {self.confidence}"
            )

    @property
    def duration(self) -> float:
        """Seconds covered by the temporal annotation."""
        return self.time_range.duration

    def shifted(self, offset: float) -> "MobilitySemantic":
        """A copy with the temporal annotation translated by ``offset``."""
        return replace(self, time_range=self.time_range.shift(offset))

    def format(self, twelve_hour: bool = True) -> str:
        """Paper-style rendering: ``(stay, Adidas, 1:02:05-1:18:15pm)``."""
        return (
            f"({self.event}, {self.region_name}, "
            f"{self.time_range.format(twelve_hour)})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "event": self.event,
            "region_id": self.region_id,
            "region_name": self.region_name,
            "start": self.time_range.start,
            "end": self.time_range.end,
            "confidence": self.confidence,
            "inferred": self.inferred,
            "record_indexes": list(self.record_indexes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MobilitySemantic":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                event=data["event"],
                region_id=data["region_id"],
                region_name=data.get("region_name", data["region_id"]),
                time_range=TimeRange(float(data["start"]), float(data["end"])),
                confidence=float(data.get("confidence", 1.0)),
                inferred=bool(data.get("inferred", False)),
                record_indexes=tuple(data.get("record_indexes", ())),
            )
        except KeyError as exc:
            raise AnnotationError(f"malformed semantic dict, missing {exc}") from exc

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class MobilitySemanticsSequence:
    """The ordered mobility semantics of one device."""

    device_id: str
    semantics: tuple[MobilitySemantic, ...] = field(default_factory=tuple)

    def __init__(self, device_id: str, semantics) -> None:
        ordered = tuple(sorted(semantics, key=lambda s: s.time_range))
        object.__setattr__(self, "device_id", device_id)
        object.__setattr__(self, "semantics", ordered)

    def __len__(self) -> int:
        return len(self.semantics)

    def __iter__(self) -> Iterator[MobilitySemantic]:
        return iter(self.semantics)

    def __getitem__(self, index: int) -> MobilitySemantic:
        return self.semantics[index]

    @property
    def time_range(self) -> TimeRange:
        """Span from the first to the last temporal annotation."""
        if not self.semantics:
            raise AnnotationError("empty semantics sequence has no time range")
        return TimeRange(
            self.semantics[0].time_range.start, self.semantics[-1].time_range.end
        )

    @property
    def region_ids(self) -> list[str]:
        """Region ids in timeline order (with consecutive repeats kept)."""
        return [s.region_id for s in self.semantics]

    @property
    def events(self) -> list[str]:
        """Event annotations in timeline order."""
        return [s.event for s in self.semantics]

    @property
    def inferred_count(self) -> int:
        """How many triplets the complementing layer added."""
        return sum(1 for s in self.semantics if s.inferred)

    def gaps(self, threshold: float) -> list[tuple[int, TimeRange]]:
        """Temporal gaps longer than ``threshold`` between neighbors.

        Returns ``(index, gap)`` pairs where ``index`` is the triplet
        *before* the gap — the complementing layer's work list.
        """
        found: list[tuple[int, TimeRange]] = []
        for index in range(len(self.semantics) - 1):
            gap_start = self.semantics[index].time_range.end
            gap_end = self.semantics[index + 1].time_range.start
            if gap_end - gap_start > threshold:
                found.append((index, TimeRange(gap_start, gap_end)))
        return found

    def conciseness_ratio(self, record_count: int) -> float:
        """Raw records per semantics triplet — Table 1's condensation claim."""
        if len(self.semantics) == 0:
            return 0.0
        return record_count / len(self.semantics)

    def merged_consecutive(self) -> "MobilitySemanticsSequence":
        """Collapse adjacent triplets with identical event and region.

        The annotator can produce back-to-back snippets in the same shop;
        presenting them as one visit matches Table 1's granularity.
        """
        if not self.semantics:
            return self
        merged: list[MobilitySemantic] = [self.semantics[0]]
        for current in self.semantics[1:]:
            last = merged[-1]
            if (
                current.event == last.event
                and current.region_id == last.region_id
                and current.inferred == last.inferred
            ):
                merged[-1] = replace(
                    last,
                    time_range=last.time_range.union_span(current.time_range),
                    confidence=min(last.confidence, current.confidence),
                    record_indexes=last.record_indexes + current.record_indexes,
                )
            else:
                merged.append(current)
        return MobilitySemanticsSequence(self.device_id, merged)

    def merged_same_region(self) -> "MobilitySemanticsSequence":
        """Collapse adjacent same-region triplets regardless of event.

        The density splitter can fragment one long shop visit into
        stay/pass-by/stay; presenting it as a single visit whose event is
        the duration-weighted majority matches the granularity of Table 1.
        Only near-contiguous triplets merge (gap <= 60 s), so genuine
        leave-and-return visits stay separate.
        """
        if not self.semantics:
            return self
        groups: list[list[MobilitySemantic]] = [[self.semantics[0]]]
        for current in self.semantics[1:]:
            last = groups[-1][-1]
            gap = current.time_range.start - last.time_range.end
            if (
                current.region_id == last.region_id
                and current.inferred == last.inferred
                and gap <= 60.0
            ):
                groups[-1].append(current)
            else:
                groups.append([current])
        merged: list[MobilitySemantic] = []
        for group in groups:
            if len(group) == 1:
                merged.append(group[0])
                continue
            event_time: dict[str, float] = {}
            for triplet in group:
                event_time[triplet.event] = (
                    event_time.get(triplet.event, 0.0) + triplet.duration
                )
            dominant = max(sorted(event_time), key=lambda e: event_time[e])
            span = group[0].time_range
            indexes: tuple[int, ...] = ()
            for triplet in group:
                span = span.union_span(triplet.time_range)
                indexes += triplet.record_indexes
            merged.append(
                replace(
                    group[0],
                    event=dominant,
                    time_range=span,
                    confidence=min(t.confidence for t in group),
                    record_indexes=indexes,
                )
            )
        return MobilitySemanticsSequence(self.device_id, merged)

    def format_table(self, twelve_hour: bool = True) -> str:
        """Multi-line paper-style rendering, as in Table 1's right column."""
        lines = [f"{self.device_id}:"]
        lines.extend(f"  {s.format(twelve_hour)}" for s in self.semantics)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "device_id": self.device_id,
            "semantics": [s.to_dict() for s in self.semantics],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MobilitySemanticsSequence":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                data["device_id"],
                [MobilitySemantic.from_dict(d) for d in data["semantics"]],
            )
        except KeyError as exc:
            raise AnnotationError(
                f"malformed semantics sequence dict, missing {exc}"
            ) from exc

    def save_json(self, path: str | Path) -> None:
        """Write the sequence as a translation-result JSON file (step 4)."""
        Path(path).write_text(dumps_indented(self.to_dict()), encoding="utf-8")

    @classmethod
    def load_json(cls, path: str | Path) -> "MobilitySemanticsSequence":
        """Read a translation-result file back."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data)

    def __str__(self) -> str:
        return f"semantics({self.device_id}: {len(self.semantics)} triplets)"


def dumps_indented(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for str-keyed dicts,
    lists and scalars, at one join per container instead of the standard
    library's pure-Python generator per nesting level."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if kind is dict and value:
        items = [
            f"{encode_basestring_ascii(key)}: {dumps_indented(item, inner)}"
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if (kind is list or kind is tuple) and value:
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [dumps_indented(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)
