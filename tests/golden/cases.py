"""The golden cases: seeded simulator feeds whose translated output is pinned.

Every exactness proof in the suite compares a fast path with the object
model *from the same tree* (columnar == objects, compiled == objects,
processes == serial, recovered == uninterrupted).  Nothing there pins what
the reference itself outputs, so a change to a helper both sides share
(``repro.geometry.measure``, ``core/annotation/features.py``, the cleaning
rules) would move both sides and keep every differential green.  These
cases close that gap: each one translates a seeded feed and hashes the
canonical export of every result and, apart, ``codec.encode(knowledge)``.

The durable cases pin the bytes the service journals instead: each streams
a seeded feed through the service with a state directory and hashes every
state file it leaves behind (snapshot, WAL tail, ``cluster.json``,
``exchange.json``) in a canonical form.

``digests.json`` beside this module holds the committed digests and, per
case, the counts (sequences, semantics, gaps filled; windows, WAL entries,
state files) a failure reports, so a drift says *what* moved.  ``scripts/golden_digests.py`` regenerates the
file or checks it; ``tests/test_golden.py`` checks it in the tier-1 suite.

Only ``repro`` is imported here, so the script runs without pytest.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from repro.buildings import MallConfig, build_airport, build_mall, build_office
from repro.core import EventIdentifier, Translator
from repro.distributed import ShardedIngestService
from repro.durability import encode
from repro.engine import EngineConfig
from repro.events import EventEditor
from repro.live import LiveConfig, LiveTranslationService
from repro.live.ingest import run_feeds
from repro.positioning import (
    PositioningSequence,
    RawPositioningRecord,
    RecordStream,
    inject_dropout,
    inject_floor_errors,
    inject_outliers,
)
from repro.simulation import (
    SHOPPER,
    TRAVELER,
    WORKER,
    MobilitySimulator,
    WifiErrorModel,
)
from repro.timeutil import TimeRange

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Devices per feed, and the span their arrivals are drawn from.
DEVICES = 4
ARRIVALS = TimeRange(0.0, 3600.0)
#: Live cases cut the feed into windows of this many data seconds.
LIVE_WINDOW_SECONDS = 600.0


def _short(profile):
    # Short sessions keep the whole case list to a couple of seconds.
    return replace(profile, visits=(2, 3), stay_duration=(120.0, 600.0))


VENUES = {
    "mall": (lambda: build_mall(MallConfig(floors=2)), _short(SHOPPER)),
    "airport": (build_airport, _short(TRAVELER)),
    "office": (build_office, _short(WORKER)),
}


@dataclass(frozen=True)
class GoldenCase:
    """One pinned translation.

    ``retention=None`` translates the feed's sequences in one batch through
    the reference ``Translator.translate_batch``; otherwise the time-sorted
    feed streams through the live service under that knowledge retention
    and the case pins its ``finalize()``.
    """

    name: str
    venue: str
    dirty: bool = False
    event_model: str = "heuristic"
    retention: str | None = None


CASES = (
    GoldenCase("mall-clean", "mall"),
    GoldenCase("mall-dirty", "mall", dirty=True),
    GoldenCase("airport-clean", "airport"),
    GoldenCase("airport-dirty", "airport", dirty=True),
    GoldenCase("office-clean", "office"),
    GoldenCase("office-dirty", "office", dirty=True),
    GoldenCase("mall-dirty-logistic", "mall", dirty=True, event_model="logistic"),
    GoldenCase("live-unbounded", "mall", dirty=True, retention="unbounded"),
    GoldenCase("live-window", "mall", dirty=True, retention="window:2"),
    GoldenCase("live-decay", "mall", dirty=True, retention="decay:4"),
)


@lru_cache(maxsize=None)
def _venue(venue: str):
    build, profile = VENUES[venue]
    model = build()
    # The clean channel: Gaussian jitter and dropout, no outliers or floor
    # misreads (the dirty feed injects those at known rates instead).
    channel = WifiErrorModel(floor_error_rate=0.0, outlier_rate=0.0)
    devices = MobilitySimulator(model, channel, seed=11).simulate_population(
        DEVICES, profiles=[profile], window=ARRIVALS, seed=11
    )
    return model, tuple(devices)


def _dirty(model, sequences: list[PositioningSequence]) -> list[PositioningSequence]:
    """Teleport outliers, wrong-floor fixes, a leading outlier on every
    other device and two one-record devices, so every cleaning repair
    runs, plus one dropout per device, so phase two has gaps to fill."""
    floors = list(model.floor_numbers)
    dirty = []
    for index, sequence in enumerate(sequences):
        sequence, _ = inject_dropout(sequence, 400.0, seed=index)
        sequence, _ = inject_outliers(sequence, 0.1, magnitude=30.0, seed=index)
        if len(floors) > 1:
            sequence, _ = inject_floor_errors(sequence, 0.08, floors, seed=index)
        records = list(sequence.records)
        if index % 2:
            first = records[0]
            records[0] = first.moved(
                replace(first.location, x=first.location.x + 28.0)
            )
        dirty.append(PositioningSequence(sequence.device_id, records))
    anchor = sequences[0].records[0]
    for index in range(2):
        blip = RawPositioningRecord(
            anchor.timestamp + 90.0 * (index + 1), f"blip-{index}", anchor.location
        )
        dirty.append(PositioningSequence(blip.device_id, [blip]))
    return dirty


def feed(case: GoldenCase) -> list[PositioningSequence]:
    """The case's per-device input sequences."""
    model, devices = _venue(case.venue)
    sequences = [device.raw for device in devices]
    return _dirty(model, sequences) if case.dirty else sequences


@lru_cache(maxsize=None)
def _event_model(name: str, venue: str):
    if name == "heuristic":
        return None
    # Event Editor designations replayed from the clean feed's ground truth.
    _, devices = _venue(venue)
    editor = EventEditor()
    for device in devices:
        editor.designate_from_annotations(
            device.raw,
            [(s.event, s.time_range) for s in device.truth_semantics],
        )
    return EventIdentifier(name, seed=0).train(editor.training_set())


def _time_sorted(sequences: list[PositioningSequence]) -> list:
    return sorted(
        (record for sequence in sequences for record in sequence.records),
        key=lambda record: (record.timestamp, record.device_id),
    )


def translate(case: GoldenCase):
    """The case's finalized ``BatchTranslationResult``."""
    model, _ = _venue(case.venue)
    translator = Translator(model, _event_model(case.event_model, case.venue))
    sequences = feed(case)
    if case.retention is None:
        return translator.translate_batch(sequences)
    records = _time_sorted(sequences)
    service = LiveTranslationService(
        {case.venue: translator},
        EngineConfig(),
        LiveConfig(window_seconds=LIVE_WINDOW_SECONDS),
        retention=case.retention,
    )
    with service:
        service.run_stream(RecordStream(iter(records)), venue_id=case.venue)
        return service.finalize()[case.venue]


def digest(case: GoldenCase) -> dict:
    """The case's two SHA-256 digests and the counts stored beside them.

    ``export`` covers each result's ``TranslationResult.export`` file
    bytes, in (device, first timestamp) order; ``knowledge`` covers the
    sorted-key JSON of ``codec.encode(knowledge)``.  Floats enter as their
    shortest repr, so equality is bit for bit.  Kept apart, a change to
    the knowledge wire format shows as a knowledge digest that moved
    beside an export digest that did not.
    """
    batch = translate(case)
    results = sorted(
        batch.results,
        key=lambda result: (result.device_id, result.raw.records[0].timestamp),
    )
    export = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "result.json"
        for result in results:
            result.export(path)
            export.update(path.read_bytes())
    knowledge = hashlib.sha256(
        json.dumps(encode(batch.knowledge), sort_keys=True).encode()
    )
    complements = [r.complement for r in results if r.complement is not None]
    return {
        "export": export.hexdigest(),
        "knowledge": knowledge.hexdigest(),
        "sequences": len(results),
        "semantics": sum(len(result.semantics) for result in results),
        "gaps_filled": sum(c.gaps_filled for c in complements),
    }


def load_digests() -> dict:
    """The committed digests, by case name."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Durable cases: the state directory the service journals
# ----------------------------------------------------------------------
#: The durable cases cut windows of this many data seconds and checkpoint
#: every ``DURABLE_SNAPSHOT_INTERVAL`` of them, so each ends with a
#: snapshot and a WAL tail behind it (7 windows; 8 adaptive ones).
DURABLE_WINDOW_SECONDS = 300.0
DURABLE_SNAPSHOT_INTERVAL = 3


@dataclass(frozen=True)
class DurableCase:
    """One pinned state directory.

    The dirty mall feed streams, time-sorted and tagged, through a service
    journaling into a fresh state directory: a single instance, or with
    ``shards`` a cluster exchanging every ``exchange_interval`` windows.
    The cluster is driven by the window driver alone: its own
    ``run_feeds`` ends with an exchange round, which checkpoints every
    shard and would leave no WAL tail to pin.
    """

    name: str
    shards: int = 1
    exchange_interval: int | None = None
    adaptive_windowing: bool = False
    retention: str | None = None


DURABLE_CASES = (
    DurableCase("durable-single"),
    DurableCase("durable-sharded", shards=2, exchange_interval=2),
    DurableCase("durable-adaptive", adaptive_windowing=True),
    DurableCase("durable-window", retention="window:2"),
)

#: Wall-clock fields the state files carried through format version 2, by
#: file name.  The canonical form drops them, and ``version``, wherever
#: they occur (no codec payload uses these keys), so a digest pins only
#: what the feed decides.
TIMING_FIELDS = {
    "wal.jsonl": {"seconds"},
    "snapshot.json": {"translate_seconds", "elapsed"},
    "cluster.json": {"elapsed"},
    "exchange.json": {"exchange_seconds"},
}


def _without(body, names: set):
    if isinstance(body, dict):
        return {
            key: _without(value, names)
            for key, value in body.items()
            if key not in names
        }
    if isinstance(body, list):
        return [_without(value, names) for value in body]
    return body


def canonical_state(path: Path) -> bytes:
    """One state file as sorted-key JSON (one document per line for the
    WAL) without its timing fields and format version."""
    names = TIMING_FIELDS.get(path.name, set()) | {"version"}
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines() if path.suffix == ".jsonl" else [text]
    return "\n".join(
        json.dumps(_without(json.loads(line), names), sort_keys=True)
        for line in lines
    ).encode()


def journal(case: DurableCase, state_dir: Path):
    """Stream the case's feed into ``state_dir``; returns the service's
    stats."""
    model, _ = _venue("mall")
    translators = {"mall": Translator(model)}
    config = LiveConfig(
        window_seconds=DURABLE_WINDOW_SECONDS,
        adaptive_windowing=case.adaptive_windowing,
        snapshot_interval=DURABLE_SNAPSHOT_INTERVAL,
    )
    records = _time_sorted(feed(GoldenCase(case.name, "mall", dirty=True)))
    if case.shards > 1:
        service = ShardedIngestService(
            translators,
            shards=case.shards,
            live_config=config,
            exchange_interval=case.exchange_interval,
            retention=case.retention,
            state_dir=state_dir,
        )
    else:
        service = LiveTranslationService(
            translators,
            live_config=config,
            retention=case.retention,
            state_dir=state_dir,
        )
    with service:
        run_feeds(service, {"mall": RecordStream(iter(records))})
        return service.stats


def state_files(state_dir: Path) -> list[Path]:
    """Every file under ``state_dir``, in sorted relative-path order."""
    return sorted(path for path in state_dir.rglob("*") if path.is_file())


def durable_digest(case: DurableCase) -> dict:
    """The case's SHA-256 over its canonical state files, with the counts
    stored beside it."""
    with tempfile.TemporaryDirectory() as scratch:
        state_dir = Path(scratch) / "state"
        stats = journal(case, state_dir)
        sha = hashlib.sha256()
        entries = 0
        files = state_files(state_dir)
        for path in files:
            sha.update(str(path.relative_to(state_dir)).encode() + b"\0")
            sha.update(canonical_state(path) + b"\0")
            if path.name == "wal.jsonl":
                entries += len(path.read_text(encoding="utf-8").splitlines()) - 1
    return {
        "sha256": sha.hexdigest(),
        "windows": stats.windows,
        "wal_entries": entries,
        "state_files": len(files),
    }
