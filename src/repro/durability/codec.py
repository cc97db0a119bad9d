"""Versioned codec for the knowledge state machine and phase-one output.

Every durable knowledge payload is a plain JSON-compatible dict tagged
with its type under ``"t"``; :func:`encode` and :func:`decode` dispatch
on that tag, so a WAL entry or snapshot is readable without knowing in
advance what it holds.  :data:`FORMAT_VERSION` stamps the container
files (WAL header, snapshot envelope) and is checked on load — any other
version, older or newer, raises :class:`~repro.errors.PersistenceError`
instead of silently misreading.  Version 2 added the phase-one payload
(:func:`encode_phase_one`): a retained window's cleaning and annotation
output rides beside its raw record batch, so recovery decodes it instead
of re-running clean + annotate.  Version 3 dropped every wall-clock field
from the state files, so their bytes are a function of the feed alone;
version 4 made equal knowledge encode to equal bytes.  The phase-one
payload is also how a phase-one result crosses the
``processes`` backend's process boundary: the worker encodes it, the
engine decodes it against the chunk it sent.

The round-trip guarantee is **bit-for-bit**, not merely value-equal:

- :class:`~repro.core.complementing.ExactSum` accumulators persist
  their canonical expansion (:meth:`ExactSum.expansion`), a function of
  the exact value alone, and decode as ``ExactSum(partials)``: after
  any further additions the clone encodes to the original's bytes.
- Floats ride through JSON via :func:`repr`, which Python round-trips
  exactly; integer counts stay integers (and decayed float weights stay
  floats) because JSON distinguishes the two.
- :class:`~repro.knowledge.KnowledgeStore` payloads carry the open
  epoch, the retained ring, the roll/retire counters, the monotone
  data-time watermark and a *structural* encoding of the retention
  policy (spec names cannot express a combined ``window:N+Ts`` policy,
  so the policy's parameters are stored, not its name).

The codec is the wire format the planned networked knowledge exchange
will reuse for its delta payloads.
"""

from __future__ import annotations

from typing import Any

from ..core.annotation import AnnotationResult, Snippet, SnippetKind
from ..core.cleaning import CleaningReport, CleaningResult
from ..core.complementing.knowledge import (
    ExactSum,
    MobilityKnowledge,
    PartialKnowledge,
    RegionStats,
)
from ..core.semantics import MobilitySemantic, MobilitySemanticsSequence
from ..errors import PersistenceError, TripsError
from ..geometry import Point
from ..knowledge.retention import (
    ExponentialDecay,
    RetentionPolicy,
    SlidingWindow,
    Unbounded,
)
from ..knowledge.store import Epoch, KnowledgeStore
from ..positioning import PositioningSequence, RawPositioningRecord
from ..timeutil import TimeRange

#: Version of the wire format; stamped into WAL headers and snapshot
#: envelopes, checked on load.
FORMAT_VERSION = 4


def require_fields(
    body: object, where: str, *names: str, **kinds: type
) -> None:
    """Raise :class:`~repro.errors.PersistenceError` naming ``where`` and
    the field unless ``body`` holds every field of ``names`` (any value)
    and of ``kinds`` (an instance of its type) — not a later bare
    ``KeyError`` / ``TypeError`` mid-recovery."""
    if not isinstance(body, dict):
        raise PersistenceError(f"{where} is not a JSON object")
    for name, kind in (*((name, object) for name in names), *kinds.items()):
        if name not in body or not isinstance(body[name], kind):
            raise PersistenceError(f"{where} has no valid {name!r} field")


# ----------------------------------------------------------------------
# Retention policies (structural, not spec-string: "window:N+Ts" has no
# parseable spec, and a policy must survive the round-trip exactly)
# ----------------------------------------------------------------------
def encode_retention(policy: RetentionPolicy) -> dict:
    """Encode a retention policy by its parameters."""
    if isinstance(policy, Unbounded):
        return {"kind": "unbounded"}
    if isinstance(policy, SlidingWindow):
        return {
            "kind": "window",
            "max_epochs": policy.max_epochs,
            "ttl_seconds": policy.ttl_seconds,
        }
    if isinstance(policy, ExponentialDecay):
        return {"kind": "decay", "half_life": policy.half_life}
    raise PersistenceError(
        f"cannot persist retention policy {policy!r}: only the built-in "
        "unbounded/window/decay policies have a durable encoding"
    )


def decode_retention(payload: dict) -> RetentionPolicy:
    """Rebuild a retention policy from :func:`encode_retention` output."""
    kind = payload.get("kind")
    if kind == "unbounded":
        return Unbounded()
    if kind == "window":
        return SlidingWindow(
            max_epochs=payload["max_epochs"],
            ttl_seconds=payload["ttl_seconds"],
        )
    if kind == "decay":
        return ExponentialDecay(half_life=payload["half_life"])
    raise PersistenceError(f"unknown retention encoding {payload!r}")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_stats(stats: RegionStats) -> dict:
    return {
        "t": "rstats",
        "visits": stats.visits,
        "stays": stats.stay_count,
        "dwell": stats._dwell.expansion(),
    }


def _encode_partial(partial: PartialKnowledge) -> dict:
    return {
        "t": "partial",
        "regions": list(partial.regions),
        "transitions": {
            origin: dict(outgoing)
            for origin, outgoing in partial.transitions.items()
        },
        "outgoing": dict(partial.outgoing_totals),
        # Dense, in vocabulary order: an in-memory shard only holds the
        # regions it touched, and the wire form must not depend on that.
        "stats": {
            region: _encode_stats(partial.stats.get(region) or RegionStats())
            for region in partial.regions
        },
        "sequences": partial.sequences_seen,
    }


def _encode_knowledge(knowledge: MobilityKnowledge) -> dict:
    return {
        "t": "knowledge",
        "regions": list(knowledge.regions),
        "smoothing": knowledge.smoothing,
        "transitions": {
            origin: dict(outgoing)
            for origin, outgoing in knowledge._transitions.items()
        },
        "outgoing": dict(knowledge._outgoing_totals),
        "stats": {
            region: _encode_stats(stats)
            for region, stats in knowledge._stats.items()
        },
        "sequences": knowledge.sequences_seen,
    }


def _encode_epoch(epoch: Epoch) -> dict:
    return {
        "t": "epoch",
        "index": epoch.index,
        "partial": _encode_partial(epoch.partial),
        "start": epoch.start,
        "end": epoch.end,
    }


def _encode_store(store: KnowledgeStore) -> dict:
    return {
        "t": "store",
        "retention": encode_retention(store.retention),
        "knowledge": _encode_knowledge(store.knowledge),
        "epochs": [_encode_epoch(epoch) for epoch in store.epochs],
        "rolled": store.epochs_rolled,
        "retired": store.epochs_retired,
        "track_deltas": store.track_deltas,
        "current": (
            None if store._current is None else _encode_partial(store._current)
        ),
        "current_start": store._current_start,
        "current_end": store._current_end,
        "newest": store.newest_timestamp,
    }


_ENCODERS = {
    ExactSum: lambda total: {"t": "xsum", "p": total.expansion()},
    RegionStats: _encode_stats,
    PartialKnowledge: _encode_partial,
    MobilityKnowledge: _encode_knowledge,
    Epoch: _encode_epoch,
    KnowledgeStore: _encode_store,
}


def encode(obj: Any) -> dict:
    """Encode a knowledge-layer object as a type-tagged JSON dict."""
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise PersistenceError(
            f"no durable encoding for {type(obj).__name__}"
        )
    return encoder(obj)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode_stats(payload: dict) -> RegionStats:
    stats = RegionStats(
        visits=payload["visits"], stay_count=payload["stays"]
    )
    stats._dwell = ExactSum(payload["dwell"])
    return stats


def _decode_partial(payload: dict) -> PartialKnowledge:
    return PartialKnowledge(
        regions=list(payload["regions"]),
        transitions={
            origin: dict(outgoing)
            for origin, outgoing in payload["transitions"].items()
        },
        outgoing_totals=dict(payload["outgoing"]),
        stats={
            region: _decode_stats(stats)
            for region, stats in payload["stats"].items()
        },
        sequences_seen=payload["sequences"],
    )


def _decode_knowledge(payload: dict) -> MobilityKnowledge:
    return MobilityKnowledge(
        regions=list(payload["regions"]),
        smoothing=payload["smoothing"],
        _transitions={
            origin: dict(outgoing)
            for origin, outgoing in payload["transitions"].items()
        },
        _outgoing_totals=dict(payload["outgoing"]),
        _stats={
            region: _decode_stats(stats)
            for region, stats in payload["stats"].items()
        },
        sequences_seen=payload["sequences"],
    )


def _decode_epoch(payload: dict) -> Epoch:
    return Epoch(
        index=payload["index"],
        partial=_decode_partial(payload["partial"]),
        start=payload["start"],
        end=payload["end"],
    )


def _decode_store(payload: dict) -> KnowledgeStore:
    store = KnowledgeStore(
        knowledge=_decode_knowledge(payload["knowledge"]),
        retention=decode_retention(payload["retention"]),
    )
    store.epochs.extend(_decode_epoch(epoch) for epoch in payload["epochs"])
    store.epochs_rolled = payload["rolled"]
    store.epochs_retired = payload["retired"]
    store.track_deltas = payload["track_deltas"]
    store._current = (
        None
        if payload["current"] is None
        else _decode_partial(payload["current"])
    )
    store._current_start = payload["current_start"]
    store._current_end = payload["current_end"]
    store._newest_folded = payload["newest"]
    if store.epochs and store.epochs[-1].index == store.epochs_rolled - 1:
        store.last_epoch = store.epochs[-1]
    return store


_DECODERS = {
    "xsum": lambda payload: ExactSum(payload["p"]),
    "rstats": _decode_stats,
    "partial": _decode_partial,
    "knowledge": _decode_knowledge,
    "epoch": _decode_epoch,
    "store": _decode_store,
}


def decode(payload: dict) -> Any:
    """Rebuild the object a type-tagged dict encodes, bit for bit."""
    if not isinstance(payload, dict):
        raise PersistenceError(
            f"durable payload must be a dict, got {type(payload).__name__}"
        )
    tag = payload.get("t")
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise PersistenceError(f"unknown durable payload tag {tag!r}")
    try:
        return decoder(payload)
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"malformed durable payload (tag {tag!r}): {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Raw record batches (compact row form; journaled only when the service
# retains per-window results for finalize(), together with the batch's
# phase-one payload below — the rows are what the payload's sequences
# are grouped from)
# ----------------------------------------------------------------------
def encode_records(records: "list[RawPositioningRecord]") -> list:
    """Encode a window's raw records as compact rows."""
    return [
        [
            record.timestamp,
            record.device_id,
            record.location.x,
            record.location.y,
            record.location.floor,
        ]
        for record in records
    ]


def decode_records(rows: list) -> "list[RawPositioningRecord]":
    """Rebuild a window's raw records from :func:`encode_records` rows."""
    try:
        return [
            RawPositioningRecord(
                timestamp=timestamp,
                device_id=device_id,
                location=Point(x, y, floor=floor),
            )
            for timestamp, device_id, x, y, floor in rows
        ]
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed record rows: {exc}") from exc


# ----------------------------------------------------------------------
# Phase-one output: one window's (cleaning, annotation) pairs, decoded
# against the window's raw sequences so recovery never re-runs phase one
# ----------------------------------------------------------------------
#: Fields of one sequence's phase-one entry, checked on decode.
_PHASE_ONE_FIELDS = {
    "report": list, "length": int, "changed": list, "semantics": list,
    "snippets": list, "skipped": int,
}


def _index_runs(indexes: "tuple[int, ...]") -> list:
    """``record_indexes`` as flat ``[start, end)`` run bounds."""
    runs: list = []
    for index in indexes:
        if runs and runs[-1] == index:
            runs[-1] = index + 1
        else:
            runs += [index, index + 1]
    return runs


def _encode_phase_one_pair(
    cleaning: CleaningResult, annotation: AnnotationResult
) -> dict:
    raw = cleaning.raw.records
    cleaned = cleaning.cleaned.records
    report = cleaning.report
    # Cleaning keeps the length, so only repaired records differ from
    # their raw counterparts; if the lengths differ anyway, every row.
    whole = len(cleaned) != len(raw)
    return {
        "report": [
            report.total_records, report.invalid_indexes,
            report.floor_corrected, report.interpolated, report.unrepaired,
        ],
        "length": len(cleaned),
        "changed": [
            [index, record.timestamp, record.location.x, record.location.y,
             record.location.floor]
            for index, record in enumerate(cleaned)
            if whole or (record is not raw[index] and record != raw[index])
        ],
        "semantics": [
            [
                semantic.event, semantic.region_id, semantic.region_name,
                semantic.time_range.start, semantic.time_range.end,
                semantic.confidence, semantic.inferred,
                _index_runs(semantic.record_indexes),
            ]
            for semantic in annotation.sequence
        ],
        # A snippet's records are the cleaned slice [start, end), by
        # construction of the splitter.
        "snippets": [
            [snippet.kind.value, snippet.start, snippet.end]
            for snippet in annotation.snippets
        ],
        "skipped": annotation.skipped_snippets,
    }


def encode_phase_one(
    pairs: "list[tuple[CleaningResult, AnnotationResult]]",
) -> list:
    """Encode one window's phase-one output, one entry per sequence.

    Per sequence: the cleaning report's five fields, the cleaned length
    plus only the cleaned records that differ from the raw ones, every
    :class:`~repro.core.semantics.MobilitySemantic` field (floats by
    ``repr`` through JSON, ``record_indexes`` as ``[start, end)`` runs)
    and each snippet as ``(kind, start, end)``.  The raw records are not
    repeated: :func:`decode_phase_one` takes the window's sequences.
    """
    return [
        _encode_phase_one_pair(cleaning, annotation)
        for cleaning, annotation in pairs
    ]


def _decode_phase_one_pair(
    entry: dict, raw: PositioningSequence
) -> "tuple[CleaningResult, AnnotationResult]":
    total, invalid, floor_corrected, interpolated, unrepaired = entry["report"]
    report = CleaningReport(
        total_records=total,
        invalid_indexes=list(invalid),
        floor_corrected=list(floor_corrected),
        interpolated=list(interpolated),
        unrepaired=list(unrepaired),
    )
    length = entry["length"]
    changed = entry["changed"]
    device_id = raw.device_id
    if length == len(raw) and not changed:
        cleaned = raw
    else:
        records: list = (
            list(raw.records) if length == len(raw) else [None] * length
        )
        for index, timestamp, x, y, floor in changed:
            records[index] = RawPositioningRecord(
                timestamp, device_id, Point(x, y, floor=floor)
            )
        if any(record is None for record in records):
            raise ValueError(
                f"{length} cleaned records for {len(raw)} raw ones, but "
                "not every row was written"
            )
        cleaned = raw.with_records(records)
    semantics = [
        MobilitySemantic(
            event=event,
            region_id=region_id,
            region_name=region_name,
            time_range=TimeRange(start, end),
            confidence=confidence,
            inferred=inferred,
            record_indexes=tuple(
                index
                for bound in range(0, len(runs), 2)
                for index in range(runs[bound], runs[bound + 1])
            ),
        )
        for (
            event, region_id, region_name, start, end, confidence, inferred,
            runs,
        ) in entry["semantics"]
    ]
    snippets = [
        Snippet(
            SnippetKind(kind), start, end, cleaned.records[start:end]
        )
        for kind, start, end in entry["snippets"]
    ]
    return (
        CleaningResult(raw, cleaned, report),
        AnnotationResult(
            MobilitySemanticsSequence(device_id, semantics),
            snippets,
            entry["skipped"],
        ),
    )


def decode_phase_one(
    payload: object,
    sequences: "list[PositioningSequence]",
    where: str = "phase-one payload",
) -> "list[tuple[CleaningResult, AnnotationResult]]":
    """Rebuild the ``(cleaning, annotation)`` pairs :func:`encode_phase_one`
    encoded, against the window's raw ``sequences`` (its record batch
    grouped per device), equal to the originals pair for pair.

    ``where`` names where the payload came from — a journal file and
    entry, or a process task's venue and chunk: a payload whose sequence
    count differs from ``sequences``, or any missing or malformed field,
    raises :class:`~repro.errors.PersistenceError` naming it — nothing is
    silently truncated.
    """
    if not isinstance(payload, list):
        raise PersistenceError(f"{where} has no valid 'phase_one' payload")
    if len(payload) != len(sequences):
        raise PersistenceError(
            f"{where}: 'phase_one' holds {len(payload)} sequences for "
            f"{len(sequences)} raw sequences"
        )
    pairs = []
    for index, (entry, raw) in enumerate(zip(payload, sequences)):
        entry_where = f"{where} phase_one[{index}]"
        require_fields(entry, entry_where, **_PHASE_ONE_FIELDS)
        try:
            pairs.append(_decode_phase_one_pair(entry, raw))
        except (IndexError, TypeError, ValueError, TripsError) as exc:
            raise PersistenceError(
                f"{entry_where} is malformed: {exc}"
            ) from exc
    return pairs
