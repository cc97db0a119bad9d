"""Durability: the versioned codec, the WAL/journal, exact recovery.

The tentpole invariant: a service killed at *any* window boundary and
recovered from its state directory (snapshot + WAL tail) finishes the
feed to a ``finalize()`` bit-for-bit equal to an uninterrupted run —
under every retention policy, and for every shard of a sharded cluster.
That only holds if every layer below is exact, so the suite works
upward: codec round-trips (ExactSum bytes a function of the value alone,
and phase-one output on dirty feeds), WAL torn-tail/corruption semantics,
snapshot filtering, then the recovery property itself — which never
re-runs phase one.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro.core import Translator, TranslatorConfig
from repro.core.cleaning import CleaningConfig, CleaningReport, CleaningResult
from repro.core.complementing import (
    ExactSum,
    MobilityKnowledge,
    PartialKnowledge,
)
from repro.durability import (
    FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    WAL_MAGIC,
    DurableStateJournal,
    WriteAheadLog,
    decode,
    decode_phase_one,
    decode_records,
    decode_retention,
    encode,
    encode_phase_one,
    encode_records,
    encode_retention,
)
from repro.engine import Engine, EngineConfig
from repro.errors import PersistenceError
from repro.knowledge import (
    ExponentialDecay,
    KnowledgeStore,
    SlidingWindow,
    Unbounded,
)
from repro.live import LiveConfig, LiveTranslationService
from repro.positioning import (
    PositioningSequence,
    RecordStream,
    windowed_records,
)

from .conftest import (
    dirty_shop_records,
    make_two_shop_dsm,
    shop_records,
    walk_sequence,
)
from .test_knowledge_store import (
    REGIONS,
    annotated_sequences,
    corpora,
    partial_of,
)

WINDOW_SECONDS = 60.0

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
#: Mixed signs over magnitudes 1e-8..1e16, where addition order moves
#: the accumulator's internal partials most.
mixed_floats = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=-8, max_value=15),
)


def json_round_trip(payload):
    """Push a codec payload through the actual wire representation."""
    return json.loads(json.dumps(payload, separators=(",", ":")))


def wire(obj) -> str:
    """An object's encoded bytes, as the state files write them."""
    return json.dumps(encode(obj), separators=(",", ":"), sort_keys=True)


def store_state(store: KnowledgeStore) -> dict:
    """A store's wire encoding minus the ``track_deltas`` plumbing flag
    (set on journaled services only, irrelevant to knowledge state)."""
    state = encode(store)
    state.pop("track_deltas")
    return state


def phase_one_pairs(translator, sequences):
    """The engine's phase-one output for ``sequences``."""
    batch = Engine(translator, EngineConfig(chunk_size=2)).translate_batch(
        sequences
    )
    return [(result.cleaning, result.annotation) for result in batch]


# ----------------------------------------------------------------------
# Codec round-trips: bit-for-bit, through real JSON
# ----------------------------------------------------------------------
class TestCodecRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, max_size=16))
    def test_exactsum_expansion_restored_verbatim(self, values):
        total = ExactSum(values)
        clone = decode(json_round_trip(encode(total)))
        # The wire form survives verbatim: the clone re-encodes to the
        # bytes it was decoded from.
        assert wire(clone) == wire(total)
        assert clone == total
        assert clone.value == total.value

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, max_size=16), st.lists(finite_floats, max_size=8))
    def test_restored_exactsum_accumulates_identically(self, values, more):
        total = ExactSum(values)
        clone = decode(json_round_trip(encode(total)))
        for value in more:
            total.add(value)
            clone.add(value)
            assert wire(clone) == wire(total)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(mixed_floats, max_size=16))
    def test_equal_sums_encode_to_equal_bytes(self, data, values):
        """Knowledge is a value: one multiset of floats, summed in any
        order, in any grouping, or through a merge / subtract detour,
        encodes to the same bytes."""
        shuffled = data.draw(st.permutations(values))
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        noise = ExactSum(data.draw(st.lists(mixed_floats, max_size=8)))
        grouped = ExactSum(shuffled[:cut])
        grouped.merge(ExactSum(shuffled[cut:]))
        detour = ExactSum(shuffled)
        detour.merge(noise)
        detour.subtract(noise)
        reference = wire(ExactSum(values))
        assert wire(ExactSum(shuffled)) == reference
        assert wire(grouped) == reference
        assert wire(detour) == reference

    @settings(max_examples=40, deadline=None)
    @given(corpora)
    def test_partial_round_trips(self, corpus):
        partial = partial_of(corpus)
        clone = decode(json_round_trip(encode(partial)))
        assert clone == partial

    @settings(max_examples=30, deadline=None)
    @given(corpora, corpora)
    def test_restored_partial_folds_identically(self, corpus, extra):
        partial = partial_of(corpus)
        clone = decode(json_round_trip(encode(partial)))
        partial.add(partial_of(extra))
        clone.add(partial_of(extra))
        assert clone == partial

    @settings(max_examples=30, deadline=None)
    @given(corpora)
    def test_knowledge_round_trips(self, corpus):
        knowledge = MobilityKnowledge.from_sequences(corpus, REGIONS)
        clone = decode(json_round_trip(encode(knowledge)))
        assert clone == knowledge
        assert clone.smoothing == knowledge.smoothing

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.lists(annotated_sequences(), max_size=3), max_size=4),
        st.lists(annotated_sequences(), max_size=2),
        st.sampled_from(
            [
                Unbounded(),
                SlidingWindow(max_epochs=2),
                SlidingWindow(max_epochs=2, ttl_seconds=1e5),
                ExponentialDecay(3.0),
            ]
        ),
    )
    def test_store_round_trips_and_evolves_identically(
        self, epochs, open_epoch, retention
    ):
        """The full store — knowledge, ring, counters, open epoch,
        watermark, retention — survives the wire, and the clone then
        *evolves* identically under further folds and rolls."""
        store = KnowledgeStore(REGIONS, retention=retention)
        store.track_deltas = True
        clock = 0.0
        for epoch in epochs:
            clock += 100.0
            store.fold(partial_of(epoch), start=clock - 50.0, end=clock)
            store.roll()
        store.fold(partial_of(open_epoch), start=clock, end=clock + 10.0)

        clone = decode(json_round_trip(encode(store)))
        assert clone.knowledge == store.knowledge
        assert [encode(e) for e in clone.epochs] == [
            encode(e) for e in store.epochs
        ]
        assert clone.epochs_rolled == store.epochs_rolled
        assert clone.epochs_retired == store.epochs_retired
        assert clone.newest_timestamp == store.newest_timestamp
        assert clone.track_deltas == store.track_deltas
        assert encode_retention(clone.retention) == encode_retention(
            store.retention
        )
        for source in (store, clone):
            source.roll()
            source.fold(
                partial_of(open_epoch),
                start=clock + 200.0,
                end=clock + 260.0,
            )
            source.roll()
        assert clone.knowledge == store.knowledge
        assert clone.last_epoch.partial == store.last_epoch.partial
        assert clone.to_partial() == store.to_partial()

    def test_records_round_trip(self):
        records = shop_records()
        rows = json_round_trip({"rows": encode_records(records)})["rows"]
        assert decode_records(rows) == records

    @pytest.mark.parametrize(
        "policy",
        [
            Unbounded(),
            SlidingWindow(max_epochs=4),
            SlidingWindow(ttl_seconds=300.0),
            SlidingWindow(max_epochs=4, ttl_seconds=300.0),
            ExponentialDecay(8.0),
        ],
    )
    def test_retention_encodes_structurally(self, policy):
        clone = decode_retention(json_round_trip(encode_retention(policy)))
        assert type(clone) is type(policy)
        assert clone.name == policy.name
        assert encode_retention(clone) == encode_retention(policy)

    def test_custom_retention_policy_has_no_encoding(self):
        class Custom:
            name = "custom"
            keeps_epochs = False

            def on_roll(self, store, now):
                return []

        with pytest.raises(PersistenceError):
            encode_retention(Custom())
        with pytest.raises(PersistenceError):
            decode_retention({"kind": "forever"})

    def test_unknown_payloads_raise(self):
        with pytest.raises(PersistenceError):
            encode(object())
        with pytest.raises(PersistenceError):
            decode({"t": "mystery"})
        with pytest.raises(PersistenceError):
            decode("not a dict")
        with pytest.raises(PersistenceError):
            decode({"t": "partial"})  # missing every field
        with pytest.raises(PersistenceError):
            decode_records([[1.0, "dev"]])  # truncated row


# ----------------------------------------------------------------------
# Phase-one output: decoded pair for pair, on dirty feeds
# ----------------------------------------------------------------------
CLEANING_MODES = {
    "full": TranslatorConfig(),
    "floor-only": TranslatorConfig(
        cleaning=CleaningConfig(enable_interpolation=False)
    ),
    "detect-only": TranslatorConfig(
        cleaning=CleaningConfig(
            enable_floor_correction=False, enable_interpolation=False
        )
    ),
    "disabled": TranslatorConfig(enable_cleaning=False),
}


class TestPhaseOneCodec:
    def test_dirty_feed_exercises_every_repair(self):
        """The dirty feed the recovery property runs on really repairs:
        floor corrections, interpolations, a leading outlier and
        singleton sequences all reach the codec, so its cleaned-record
        half is proven, not vacuous."""
        sequences = PositioningSequence.group_records(dirty_shop_records())
        pairs = phase_one_pairs(Translator(make_two_shop_dsm()), sequences)
        reports = [cleaning.report for cleaning, _ in pairs]
        assert sum(len(r.floor_corrected) for r in reports) > 0
        assert sum(len(r.interpolated) for r in reports) > 0
        assert any(0 in r.interpolated for r in reports)  # leading outlier
        assert sum(len(sequence) == 1 for sequence in sequences) == 4
        payload = encode_phase_one(pairs)
        assert sum(len(entry["changed"]) for entry in payload) == sum(
            r.repaired_count for r in reports
        )

    @settings(max_examples=25, deadline=None)
    @example(
        seed=0, outliers=0.12, floor_errors=0.1, leading=True, singletons=4,
        mode="full",
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        outliers=st.sampled_from([0.0, 0.1, 0.3]),
        floor_errors=st.sampled_from([0.0, 0.1, 0.3]),
        leading=st.booleans(),
        singletons=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from(sorted(CLEANING_MODES)),
    )
    def test_phase_one_round_trips_on_dirty_feeds(
        self, seed, outliers, floor_errors, leading, singletons, mode
    ):
        """encode → JSON → decode against the batch's own record rows
        (exactly what recovery reads) reproduces every (cleaning,
        annotation) pair: reports, repaired records, semantics with
        their record indexes, snippets."""
        records = dirty_shop_records(
            "east:", seed, outliers, floor_errors, leading, singletons
        )
        translator = Translator(
            make_two_shop_dsm(), config=CLEANING_MODES[mode]
        )
        pairs = phase_one_pairs(
            translator, PositioningSequence.group_records(records)
        )
        rows = json_round_trip(encode_records(records))
        sequences = PositioningSequence.group_records(decode_records(rows))
        payload = json_round_trip(encode_phase_one(pairs))
        assert decode_phase_one(payload, sequences) == pairs

    def test_cleaned_length_change_writes_every_row(self):
        """Cleaning keeps the length; should a cleaned sequence differ in
        length anyway, every row is written and decoded."""
        raw = walk_sequence()
        cleaned = raw.with_records(list(raw.records[:-1]))
        pair = (
            CleaningResult(raw, cleaned, CleaningReport(len(raw))),
            Translator(make_two_shop_dsm()).annotator.annotate(cleaned),
        )
        (entry,) = encode_phase_one([pair])
        assert len(entry["changed"]) == len(cleaned)
        assert decode_phase_one(json_round_trip([entry]), [raw]) == [pair]

    def test_malformed_phase_one_is_refused(self):
        sequences = PositioningSequence.group_records(dirty_shop_records())
        pairs = phase_one_pairs(Translator(make_two_shop_dsm()), sequences)
        payload = encode_phase_one(pairs)
        with pytest.raises(PersistenceError, match="'phase_one'"):
            decode_phase_one(payload[:-1], sequences, "WAL w.jsonl")
        with pytest.raises(PersistenceError, match="'phase_one'"):
            decode_phase_one(None, sequences, "WAL w.jsonl")
        for field in ("report", "length", "changed", "semantics",
                      "snippets", "skipped"):
            broken = json_round_trip(payload)
            del broken[0][field]
            with pytest.raises(PersistenceError, match=repr(field)):
                decode_phase_one(broken, sequences, "WAL w.jsonl")
        broken = json_round_trip(payload)
        broken[0]["snippets"][0][2] += 10_000  # past the cleaned records
        with pytest.raises(PersistenceError, match="WAL w.jsonl"):
            decode_phase_one(broken, sequences, "WAL w.jsonl")


# ----------------------------------------------------------------------
# The write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        assert wal.open() == []
        wal.append({"t": "window", "window": 0})
        wal.append({"t": "window", "window": 1})
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.jsonl")
        assert reopened.open() == [
            {"t": "window", "window": 0},
            {"t": "window", "window": 1},
        ]
        reopened.close()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append({"t": "window", "window": 0})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"t": "window", "win')  # crash mid-write
        wal = WriteAheadLog(path)
        assert wal.open() == [{"t": "window", "window": 0}]
        # The torn tail is gone for good: the next append starts clean.
        wal.append({"t": "window", "window": 1})
        wal.close()
        wal = WriteAheadLog(path)
        assert [e["window"] for e in wal.open()] == [0, 1]
        wal.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append({"t": "window", "window": 0})
        wal.append({"t": "window", "window": 1})
        wal.close()
        raw = path.read_bytes().splitlines(keepends=True)
        raw[1] = b"}}garbage{{\n"  # first entry, not the final line
        path.write_bytes(b"".join(raw))
        with pytest.raises(PersistenceError):
            WriteAheadLog(path).open()

    def test_reset_truncates_to_header(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append({"t": "window", "window": 0})
        wal.reset()
        wal.append({"t": "window", "window": 7})
        wal.close()
        wal = WriteAheadLog(path)
        assert [e["window"] for e in wal.open()] == [7]
        wal.close()

    def test_foreign_or_future_header_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b'{"magic":"other-log","version":1}\n')
        with pytest.raises(PersistenceError):
            WriteAheadLog(path).open()
        for skew in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
            path.write_bytes(
                json.dumps({"magic": WAL_MAGIC, "version": skew}).encode()
                + b"\n"
            )
            with pytest.raises(PersistenceError):
                WriteAheadLog(path).open()

    def test_torn_header_restarts_the_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b'{"magic":"trips-')  # died writing the header
        wal = WriteAheadLog(path)
        assert wal.open() == []
        wal.append({"t": "window", "window": 0})
        wal.close()
        wal = WriteAheadLog(path)
        assert [e["window"] for e in wal.open()] == [0]
        wal.close()


# ----------------------------------------------------------------------
# The journal: snapshot + WAL
# ----------------------------------------------------------------------
class TestJournal:
    def test_load_without_snapshot(self, tmp_path):
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        journal.append_window(0, {"venues": []})
        journal.close()
        # load() surfaces what open() replayed — the recovery flow.
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        snapshot, entries = journal.load()
        assert snapshot is None
        assert [e["window"] for e in entries] == [0]
        journal.close()

    def test_snapshot_truncates_and_filters(self, tmp_path):
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        journal.append_window(0, {"venues": []})
        journal.append_window(1, {"venues": []})
        journal.write_snapshot(2, {"body": True})
        journal.append_window(2, {"venues": []})
        journal.close()
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        snapshot, entries = journal.load()
        assert snapshot["windows"] == 2
        assert snapshot["magic"] == SNAPSHOT_MAGIC
        assert [e["window"] for e in entries] == [2]
        journal.close()

    def test_crash_between_snapshot_rename_and_wal_reset(
        self, tmp_path, monkeypatch
    ):
        """The one non-atomic seam in the checkpoint: the snapshot is
        renamed into place but the process dies before the WAL truncate.
        The stale entries it leaves behind are all covered by the
        snapshot and must be filtered, not replayed twice."""
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        journal.append_window(0, {"venues": []})
        journal.append_window(1, {"venues": []})
        monkeypatch.setattr(journal.wal, "reset", lambda: None)
        journal.write_snapshot(2, {"body": True})
        journal.close()
        journal = DurableStateJournal(tmp_path / "state")
        journal.open()
        snapshot, entries = journal.load()
        assert snapshot["windows"] == 2
        assert entries == []
        journal.close()

    def test_corrupt_snapshot_raises(self, tmp_path):
        state = tmp_path / "state"
        journal = DurableStateJournal(state)
        journal.open()
        journal.close()
        (state / "snapshot.json").write_bytes(b"{broken")
        journal.open()
        with pytest.raises(PersistenceError):
            journal.load()
        (state / "snapshot.json").write_bytes(
            json.dumps({"magic": "wrong", "version": 1, "windows": 0}).encode()
        )
        with pytest.raises(PersistenceError):
            journal.load()
        journal.close()

    @pytest.mark.parametrize(
        "fields",
        [{}, {"windows": "3"}, {"windows": None}, {"windows": -1},
         {"windows": True}],
        ids=["missing", "string", "null", "negative", "bool"],
    )
    def test_malformed_snapshot_window_count_raises(self, tmp_path, fields):
        """Valid magic and version but an unusable ``windows``: a named
        error, not the ``KeyError`` / ``TypeError`` of using it."""
        state = tmp_path / "state"
        journal = DurableStateJournal(state)
        journal.open()
        (state / "snapshot.json").write_bytes(
            json.dumps(
                {"magic": SNAPSHOT_MAGIC, "version": FORMAT_VERSION, **fields}
            ).encode()
        )
        with pytest.raises(PersistenceError, match="window count"):
            journal.load()
        journal.close()

    def test_load_requires_open(self, tmp_path):
        journal = DurableStateJournal(tmp_path / "state")
        with pytest.raises(PersistenceError):
            journal.load()

    @pytest.mark.parametrize("skew", [-1, 1], ids=["older", "newer"])
    @pytest.mark.parametrize("journal_file", ["wal.jsonl", "snapshot.json"])
    def test_other_format_version_is_refused_by_name(
        self, tmp_path, journal_file, skew
    ):
        """A version-1 state directory (no phase-one output) or a newer
        one is refused, naming the file and both versions — never
        re-run through phase one or misread."""
        state = tmp_path / "state"
        state.mkdir()
        version = FORMAT_VERSION + skew
        header = {"version": version, "windows": 0}
        header["magic"] = (
            WAL_MAGIC if journal_file == "wal.jsonl" else SNAPSHOT_MAGIC
        )
        (state / journal_file).write_bytes(
            json.dumps(header).encode() + b"\n"
        )
        journal = DurableStateJournal(state)
        with pytest.raises(PersistenceError) as refused:
            journal.open()
            journal.load()
        journal.close()
        message = str(refused.value)
        assert journal_file in message
        assert f"version {version}" in message
        assert f"version {FORMAT_VERSION}" in message


# ----------------------------------------------------------------------
# Crash recovery: the tentpole property
# ----------------------------------------------------------------------
RETENTIONS = ["unbounded", "window:2", "decay:3"]


def feed_windows(feed: str = "clean"):
    records = (
        shop_records("east:") if feed == "clean"
        else dirty_shop_records("east:")
    )
    return list(windowed_records(RecordStream(iter(records)), WINDOW_SECONDS))


FEEDS = ["clean", "dirty"]


def make_service(retention, state_dir=None, snapshot_interval=3):
    return LiveTranslationService(
        {"east": Translator(make_two_shop_dsm())},
        EngineConfig(chunk_size=2),
        LiveConfig(
            window_seconds=WINDOW_SECONDS,
            snapshot_interval=snapshot_interval,
        ),
        retention=retention,
        state_dir=state_dir,
    )


def make_cluster(state_dir=None, shards=2, exchange_interval=2):
    from repro.distributed import ShardedIngestService

    return ShardedIngestService(
        {"east": Translator(make_two_shop_dsm())},
        shards=shards,
        engine_config=EngineConfig(chunk_size=2),
        live_config=LiveConfig(
            window_seconds=WINDOW_SECONDS, snapshot_interval=3
        ),
        exchange_interval=exchange_interval,
        state_dir=state_dir,
    )


@pytest.fixture(scope="module")
def uninterrupted():
    """Reference run per ``(feed, retention)``: stats, knowledge and
    finalize()."""
    runs = {}
    for feed in FEEDS:
        for retention in RETENTIONS:
            service = make_service(retention)
            with service:
                for window in feed_windows(feed):
                    service.process_window(window, "east")
                finalized = service.finalize()
                store = service.store("east")
                runs[feed, retention] = {
                    "windows": service.stats.windows,
                    "records": service.stats.records,
                    "semantics": service.stats.semantics,
                    "partial": store.to_partial(),
                    "state": store_state(store),
                    "results": finalized["east"].results,
                    "knowledge": finalized["east"].knowledge,
                }
    return runs


class TestCrashRecovery:
    @settings(max_examples=15, deadline=None)
    # Pinned: the whole feed journaled with no snapshot, then recovered
    # by replaying every WAL entry — journaled == unjournaled, bit for bit.
    @example(
        kill_at=len(feed_windows()),
        retention="window:2",
        snapshot_interval=len(feed_windows()) + 1,
        feed="clean",
    )
    # Pinned: a dirty feed killed with three repaired windows in the
    # snapshot and one in the WAL tail, both decoded, never re-cleaned.
    @example(kill_at=4, retention="decay:3", snapshot_interval=3, feed="dirty")
    @given(
        kill_at=st.integers(
            min_value=0, max_value=max(len(feed_windows(f)) for f in FEEDS)
        ),
        retention=st.sampled_from(RETENTIONS),
        snapshot_interval=st.integers(min_value=1, max_value=5),
        feed=st.sampled_from(FEEDS),
    )
    def test_kill_at_any_window_boundary_recovers_exactly(
        self, tmp_path_factory, uninterrupted, kill_at, retention,
        snapshot_interval, feed,
    ):
        """Kill after any number of windows, under any retention, any
        checkpoint cadence, on a clean or a dirty feed: the recovered
        service finishes the feed to a bit-for-bit identical
        finalize()."""
        state_dir = tmp_path_factory.mktemp("crash")
        windows = feed_windows(feed)
        kill_at = min(kill_at, len(windows))
        crashed = make_service(
            retention, state_dir, snapshot_interval=snapshot_interval
        )
        crashed.open()
        for window in windows[:kill_at]:
            crashed.process_window(window, "east")
        # No close(): the process is gone.  Only the flushed journal
        # survives.
        del crashed

        recovered = make_service(
            retention, state_dir, snapshot_interval=snapshot_interval
        )
        with recovered:
            assert recovered.stats.windows == kill_at
            for window in windows[kill_at:]:
                recovered.process_window(window, "east")
            reference = uninterrupted[feed, retention]
            assert recovered.stats.windows == reference["windows"]
            assert recovered.stats.records == reference["records"]
            assert recovered.stats.semantics == reference["semantics"]
            store = recovered.store("east")
            assert store.to_partial() == reference["partial"]
            # The full store state — ring, counters, watermark — matches
            # the uninterrupted run's wire encoding exactly.
            assert store_state(store) == reference["state"]
            finalized = recovered.finalize()
            assert finalized["east"].results == reference["results"]
            assert finalized["east"].knowledge == reference["knowledge"]

    def test_double_crash_still_recovers(self, tmp_path, uninterrupted):
        """Crash, recover, crash again mid-feed, recover again."""
        windows = feed_windows()
        state_dir = tmp_path / "state"
        first = make_service("window:2", state_dir)
        first.open()
        for window in windows[:2]:
            first.process_window(window, "east")
        del first
        second = make_service("window:2", state_dir)
        second.open()
        for window in windows[2:4]:
            second.process_window(window, "east")
        del second
        third = make_service("window:2", state_dir)
        with third:
            assert third.stats.windows == 4
            for window in windows[4:]:
                third.process_window(window, "east")
            reference = uninterrupted["clean", "window:2"]
            assert store_state(third.store("east")) == reference["state"]
            assert third.finalize()["east"].results == reference["results"]

    def test_close_and_reopen_does_not_double_replay(
        self, tmp_path, uninterrupted
    ):
        windows = feed_windows()
        service = make_service("unbounded", tmp_path / "state")
        with service:
            for window in windows[:5]:
                service.process_window(window, "east")
        # Same instance, reopened: in-memory state already holds the
        # journaled windows, so nothing is replayed on top of it.
        with service:
            assert service.stats.windows == 5
            for window in windows[5:]:
                service.process_window(window, "east")
            reference = uninterrupted["clean", "unbounded"]
            assert service.finalize()["east"].results == reference["results"]

    def test_rates_count_only_the_windows_this_process_translated(
        self, tmp_path
    ):
        """Recovered windows are counted but were not translated by the
        resumed process, whose elapsed time starts at its own first
        window: its rates divide only what it translated."""
        windows = feed_windows()
        with make_service("unbounded", tmp_path / "state") as first:
            for window in windows[:4]:
                first.process_window(window, "east")
        resumed = make_service("unbounded", tmp_path / "state")
        with resumed:
            recovered = resumed.stats
            assert recovered.windows == 4 and recovered.records > 0
            for window in windows[4:]:
                resumed.process_window(window, "east")
            stats = resumed.stats
        assert (stats.recovered_windows, stats.recovered_records) == (
            recovered.windows, recovered.records,
        )
        assert stats.elapsed_seconds > 0
        assert stats.records_per_second == (
            (stats.records - recovered.records) / stats.elapsed_seconds
        )
        assert stats.windows_per_second == (
            (stats.windows - recovered.windows) / stats.elapsed_seconds
        )

    def test_results_dropped_mode_recovers_without_batches(self, tmp_path):
        """With ``retain_results=False`` nothing journals raw batches:
        recovery is O(snapshot + WAL tail) and still restores knowledge
        exactly (there is nothing to finalize)."""
        windows = feed_windows()

        def make(state_dir):
            return LiveTranslationService(
                {"east": Translator(make_two_shop_dsm())},
                EngineConfig(chunk_size=2),
                LiveConfig(
                    window_seconds=WINDOW_SECONDS,
                    retain_results=False,
                    snapshot_interval=4,
                ),
                state_dir=state_dir,
            )

        reference = make(None)
        with reference:
            for window in windows:
                reference.process_window(window, "east")
            reference_state = store_state(reference.store("east"))

        crashed = make(tmp_path / "state")
        crashed.open()
        for window in windows[:6]:
            crashed.process_window(window, "east")
        del crashed
        recovered = make(tmp_path / "state")
        with recovered:
            assert recovered.results("east") == []
            for window in windows[6:]:
                recovered.process_window(window, "east")
            assert store_state(recovered.store("east")) == reference_state

    def test_recovery_runs_no_phase_one(
        self, tmp_path, monkeypatch, uninterrupted
    ):
        """Recovery is decode + fold: the recovered open() of a live
        service and of a 2-shard cluster — snapshot plus WAL tail, on a
        dirty feed — never reaches the phase-one runner, and the decoded
        results still finish the feed bit for bit."""
        windows = feed_windows("dirty")
        live = make_service("unbounded", tmp_path / "live")
        cluster = make_cluster(tmp_path / "cluster")
        live.open()
        cluster.open()
        for window in windows[:5]:
            live.process_window(window, "east")
            cluster.process_window(window, "east")
        del live, cluster

        chunks = []
        runner = engine_module.run_phase_one_chunk_columnar

        def watching(translator, chunk, emit_partial=False):
            chunks.append(chunk)
            return runner(translator, chunk, emit_partial=emit_partial)

        monkeypatch.setattr(
            engine_module, "run_phase_one_chunk_columnar", watching
        )
        live = make_service("unbounded", tmp_path / "live")
        cluster = make_cluster(tmp_path / "cluster")
        with live, cluster:
            assert chunks == []
            assert live.stats.windows == cluster.stats.windows == 5
            assert live.results("east")
            for window in windows[5:]:
                live.process_window(window, "east")
            assert chunks  # the spy does see the live windows' phase one
            reference = uninterrupted["dirty", "unbounded"]
            assert live.finalize()["east"].results == reference["results"]


def tamper_last_line(path, tamper) -> None:
    """Rewrite the last JSON line of a journal file through ``tamper``."""
    lines = path.read_bytes().splitlines(keepends=True)
    body = json.loads(lines[-1])
    tamper(body)
    lines[-1] = json.dumps(body, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))


# ----------------------------------------------------------------------
# Recovery refuses to lie
# ----------------------------------------------------------------------
class TestRecoveryValidation:
    @pytest.mark.parametrize(
        "refusal", ["tampered-wal", "retention-mismatch"]
    )
    def test_refused_open_leaks_nothing(self, tmp_path, refusal):
        """A refused recovery closes the pool and the WAL handle it
        opened before the error propagates — ``with service:`` never
        reaches ``__exit__`` to do it."""
        state_dir = tmp_path / "state"
        with make_service("window:2", state_dir) as service:
            for window in feed_windows()[:5]:
                service.process_window(window, "east")
        retention = "window:2"
        if refusal == "tampered-wal":
            tamper_last_line(
                state_dir / "wal.jsonl",
                lambda body: body["venues"][0].update(retired=[99]),
            )
        else:
            retention = "decay:3"
        refused = make_service(retention, state_dir)
        with pytest.raises(PersistenceError):
            refused.open()
        assert refused._backend is None
        assert not refused._journal.is_open

    def test_retention_mismatch_is_refused(self, tmp_path):
        state_dir = tmp_path / "state"
        service = make_service("window:2", state_dir)
        with service:
            for window in feed_windows()[:3]:
                service.process_window(window, "east")
        mismatched = make_service("decay:3", state_dir)
        with pytest.raises(PersistenceError):
            mismatched.open()

    def test_unknown_venue_in_state_is_refused(self, tmp_path):
        state_dir = tmp_path / "state"
        service = make_service("unbounded", state_dir)
        with service:
            for window in feed_windows()[:3]:
                service.process_window(window, "east")
            service.checkpoint()
        stranger = LiveTranslationService(
            {"west": Translator(make_two_shop_dsm())},
            EngineConfig(chunk_size=2),
            LiveConfig(window_seconds=WINDOW_SECONDS),
            state_dir=state_dir,
        )
        with pytest.raises(PersistenceError):
            stranger.open()

    def test_window_gap_in_wal_is_refused(self, tmp_path):
        state_dir = tmp_path / "state"
        # A wide snapshot interval keeps all three windows in the WAL.
        service = make_service("unbounded", state_dir, snapshot_interval=10)
        with service:
            for window in feed_windows()[:3]:
                service.process_window(window, "east")
        wal_path = state_dir / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        del lines[2]  # drop the middle window: 0, _, 2
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError):
            make_service("unbounded", state_dir, snapshot_interval=10).open()

    def test_tampered_retirement_log_is_refused(self, tmp_path):
        state_dir = tmp_path / "state"
        service = make_service("window:2", state_dir)
        with service:
            for window in feed_windows()[:5]:
                service.process_window(window, "east")
        wal_path = state_dir / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[-1])
        for venue in entry["venues"]:
            venue["retired"] = [99]
        lines[-1] = json.dumps(entry, separators=(",", ":")).encode() + b"\n"
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError):
            make_service("window:2", state_dir).open()

    @pytest.mark.parametrize(
        "journal_file, field, tamper",
        [
            ("wal.jsonl", "venues", lambda body: body.pop("venues")),
            ("wal.jsonl", "delta",
             lambda body: body["venues"][0].pop("delta")),
            ("wal.jsonl", "venues", lambda body: body.update(venues=7)),
            ("snapshot.json", "venues", lambda body: body.pop("venues")),
            ("snapshot.json", "stats",
             lambda body: body["venues"]["east"].pop("stats")),
            ("wal.jsonl", "phase_one",
             lambda body: body["venues"][0].pop("phase_one")),
            ("snapshot.json", "phase_one",
             lambda body: body["venues"]["east"].pop("phase_one")),
            ("wal.jsonl", "phase_one",
             lambda body: body["venues"][0]["phase_one"].pop()),
        ],
        ids=[
            "wal-without-venues", "wal-venue-without-delta", "wal-venues-int",
            "snapshot-without-venues", "snapshot-venue-without-stats",
            "wal-venue-without-phase-one", "snapshot-venue-without-phase-one",
            "wal-phase-one-count-mismatch",
        ],
    )
    def test_malformed_journal_body_is_refused(
        self, tmp_path, journal_file, field, tamper
    ):
        """Valid header and magic, a body missing a field recovery reads:
        a PersistenceError naming the file and the field, not the
        ``KeyError`` / ``TypeError`` of using it."""
        state_dir = tmp_path / "state"
        service = make_service("unbounded", state_dir, snapshot_interval=10)
        with service:
            for window in feed_windows()[:3]:
                service.process_window(window, "east")
            if journal_file == "snapshot.json":
                service.checkpoint()
        path = state_dir / journal_file
        lines = path.read_bytes().splitlines(keepends=True)
        body = json.loads(lines[-1])
        tamper(body)
        lines[-1] = json.dumps(body, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError) as refused:
            make_service("unbounded", state_dir, snapshot_interval=10).open()
        assert journal_file in str(refused.value)
        assert repr(field) in str(refused.value)


# ----------------------------------------------------------------------
# Sharded cluster recovery
# ----------------------------------------------------------------------
class TestShardedRecovery:
    make_cluster = staticmethod(make_cluster)

    @pytest.mark.parametrize("refusal", ["shard", "cluster"])
    def test_refused_open_leaks_nothing(self, tmp_path, refusal):
        """A refusal by a later shard (after an earlier one opened) or by
        the cluster's own recovery closes every shard before the error
        propagates, and the cluster starts no thread of its own."""
        state_dir = tmp_path / "cluster"
        with self.make_cluster(state_dir) as cluster:
            for window in feed_windows()[:5]:
                cluster.process_window(window, "east")
        if refusal == "shard":
            tamper_last_line(
                state_dir / "shard-1" / "snapshot.json",
                lambda body: body.pop("venues"),
            )
        else:
            tamper_last_line(
                state_dir / "cluster.json",
                lambda body: body.pop("since_exchange"),
            )
        refused = self.make_cluster(state_dir)
        with pytest.raises(PersistenceError):
            refused.open()
        for shard in refused.shards:
            assert shard._backend is None
            assert not shard._journal.is_open
        assert not [
            thread for thread in threading.enumerate()
            if thread.name.startswith("trips-shard")
        ]

    def refuse_older_version(self, tmp_path, state_file, version):
        """Journal a cluster, stamp one state file with ``version`` and
        check the reopen refuses it, naming the file and both versions,
        with no fallback reader."""
        state_dir = tmp_path / "cluster"
        with self.make_cluster(state_dir) as cluster:
            for window in feed_windows()[:5]:
                cluster.process_window(window, "east")
        path = state_dir / state_file
        lines = path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert header["version"] == FORMAT_VERSION
        header["version"] = version
        lines[0] = json.dumps(header).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError) as refused:
            self.make_cluster(state_dir).open()
        message = str(refused.value)
        assert path.name in message
        assert f"version {version}" in message
        assert f"version {FORMAT_VERSION}" in message

    STATE_FILES = [
        "shard-0/wal.jsonl", "shard-0/snapshot.json", "cluster.json",
        "exchange.json",
    ]

    @pytest.mark.parametrize("state_file", STATE_FILES)
    def test_version_2_state_is_refused_by_name(self, tmp_path, state_file):
        """Format 3 dropped the wall-clock fields: a version-2 file of
        any kind is refused."""
        self.refuse_older_version(tmp_path, state_file, 2)

    @pytest.mark.parametrize("state_file", STATE_FILES)
    def test_version_3_state_is_refused_by_name(self, tmp_path, state_file):
        """Format 4 writes canonical exact sums and drops the exchange's
        per-shard baselines: a version-3 file of any kind is refused."""
        assert FORMAT_VERSION == 4
        self.refuse_older_version(tmp_path, state_file, 3)

    @pytest.mark.parametrize("reopened", [2, 5])
    def test_reopen_with_another_shard_count_is_refused(
        self, tmp_path, reopened
    ):
        """Every shard holds the merged knowledge, so a directory four
        shards journaled cannot resume on two (their shards' evidence
        would be lost) or five (the newcomer would hold none of it): the
        reopen names both counts and leaves the directory untouched, and
        the right count then resumes to the uninterrupted run."""
        windows = feed_windows()
        reference = self.make_cluster(shards=4)
        with reference:
            for window in windows:
                reference.process_window(window, "east")
            reference_final = reference.finalize()
        state_dir = tmp_path / "cluster"
        with self.make_cluster(state_dir, shards=4) as crashed:
            for window in windows[:3]:
                crashed.process_window(window, "east")

        def snapshot_dir():
            return {
                path.relative_to(state_dir): path.read_bytes()
                for path in state_dir.rglob("*")
                if path.is_file()
            }

        before = snapshot_dir()
        refused = self.make_cluster(state_dir, shards=reopened)
        with pytest.raises(PersistenceError) as error:
            refused.open()
        message = str(error.value)
        assert "4 shards" in message and f"runs {reopened}" in message
        assert snapshot_dir() == before

        with self.make_cluster(state_dir, shards=4) as resumed:
            for window in windows[3:]:
                resumed.process_window(window, "east")
            finalized = resumed.finalize()
            stats = resumed.stats
        assert finalized["east"].results == reference_final["east"].results
        assert finalized["east"].knowledge == reference_final["east"].knowledge
        # The resumed cluster's rates count only what it translated.
        assert stats.recovered_windows == 3
        recovered = sum(shard.recovered_records for shard in stats.per_shard)
        assert 0 < recovered < stats.records
        assert stats.records_per_second == (
            (stats.records - recovered) / stats.elapsed_seconds
        )
        assert stats.windows_per_second == (
            (stats.windows - 3) / stats.elapsed_seconds
        )

    @pytest.mark.parametrize("kill_at", [0, 3, 6])
    def test_cluster_kill_and_recover_bit_for_bit(self, tmp_path, kill_at):
        windows = feed_windows()
        reference = self.make_cluster()
        with reference:
            for window in windows:
                reference.process_window(window, "east")
            reference_final = reference.finalize()
            reference_stats = reference.stats
        reference_merged = reference.merged_knowledge("east")

        crashed = self.make_cluster(tmp_path / "cluster", shards=2)
        crashed.open()
        for window in windows[:kill_at]:
            crashed.process_window(window, "east")
        del crashed

        recovered = self.make_cluster(tmp_path / "cluster", shards=2)
        with recovered:
            assert recovered.stats.windows == kill_at
            for window in windows[kill_at:]:
                recovered.process_window(window, "east")
            assert recovered.stats.windows == reference_stats.windows
            assert recovered.stats.records == reference_stats.records
            assert recovered.stats.semantics == reference_stats.semantics
            merged = recovered.merged_knowledge("east")
            assert merged.to_partial() == reference_merged.to_partial()
            finalized = recovered.finalize()
            assert (
                finalized["east"].results == reference_final["east"].results
            )

    def test_mid_window_crash_is_detected(self, tmp_path):
        """A shard that journaled more windows than the cluster counter
        means the crash was not at a cluster-window boundary — recovery
        refuses instead of silently double-feeding."""
        windows = feed_windows()
        cluster = self.make_cluster(tmp_path / "cluster")
        with cluster:
            for window in windows[:4]:
                cluster.process_window(window, "east")
        # Shards may legitimately lag the cluster counter (a shard skips
        # windows whose partition routed it no records), so wind the
        # counter back below what the shards durably journaled.
        journaled = max(
            json.loads(
                (tmp_path / "cluster" / f"shard-{i}" / "snapshot.json")
                .read_bytes()
            )["windows"]
            for i in range(2)
        )
        cluster_json = tmp_path / "cluster" / "cluster.json"
        payload = json.loads(cluster_json.read_bytes())
        payload["windows"] = journaled - 1
        cluster_json.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError):
            self.make_cluster(tmp_path / "cluster").open()

    def test_crash_inside_first_exchange_round_is_refused(
        self, tmp_path, monkeypatch
    ):
        """Killed inside the first round — shard checkpoints landed,
        neither cluster.json nor exchange.json written — the directory
        counts zero cluster windows, so the shards' journaled window is
        refused instead of resuming on double-counted knowledge."""
        import repro.distributed.service as cluster_module

        class Killed(Exception):
            pass

        def die(path, payload):
            raise Killed(path)

        state_dir = tmp_path / "cluster"
        crashed = self.make_cluster(state_dir, exchange_interval=1)
        crashed.open()
        monkeypatch.setattr(cluster_module, "write_state_file", die)
        with pytest.raises(Killed):
            crashed.process_window(feed_windows()[0], "east")
        monkeypatch.undo()
        del crashed
        assert not (state_dir / "cluster.json").exists()
        assert not (state_dir / "exchange.json").exists()
        with pytest.raises(PersistenceError, match="cluster-window boundary"):
            self.make_cluster(state_dir, exchange_interval=1).open()

    def test_missing_exchange_state_after_rounds_is_refused(self, tmp_path):
        """cluster.json records completed rounds but exchange.json is
        gone: the merged knowledge cannot be restored, so recovery
        refuses rather than re-adding rebased evidence."""
        state_dir = tmp_path / "cluster"
        cluster = self.make_cluster(state_dir)
        with cluster:
            for window in feed_windows()[:6]:
                cluster.process_window(window, "east")
        assert cluster.stats.exchange.rounds == 3
        (state_dir / "exchange.json").unlink()
        with pytest.raises(PersistenceError, match="exchange.json"):
            self.make_cluster(state_dir).open()

    def test_cluster_state_without_since_exchange_is_refused(self, tmp_path):
        state_dir = tmp_path / "cluster"
        cluster = self.make_cluster(state_dir)
        with cluster:
            for window in feed_windows()[:3]:
                cluster.process_window(window, "east")
        cluster_json = state_dir / "cluster.json"
        payload = json.loads(cluster_json.read_bytes())
        del payload["since_exchange"]
        cluster_json.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError) as refused:
            self.make_cluster(state_dir).open()
        assert "cluster.json" in str(refused.value)
        assert "'since_exchange'" in str(refused.value)
