"""The live translation service: windowed, incremental, multi-building.

One :class:`LiveTranslationService` owns a single warm worker pool (one
:class:`~repro.engine.backends.ExecutionBackend`, opened once with the
full venue map) and one per-venue :class:`~repro.engine.Engine` mapped
onto it.  Each incoming window of records is routed per venue, grouped
into per-device sequences, pushed through the engine's incremental path
(:meth:`~repro.engine.Engine.translate_increment`) and **folded** into
that venue's long-running :class:`~repro.core.complementing.MobilityKnowledge`
— no knowledge rebuild, ever.  The per-window output is an ordinary
:class:`~repro.core.translator.BatchTranslationResult` per venue; the
service additionally accumulates cumulative :class:`LiveStats`.

Live versus batch semantics
---------------------------

Per-window complements are inferred against the knowledge *as of that
window* — that is what "live" means; early windows see less evidence.
Knowledge folding itself is exact, so under the default unbounded
retention, once a finite stream has been fully replayed the cumulative
knowledge is bit-for-bit identical to a one-shot batch build over the
same windowed sequences, and :meth:`finalize` re-complements every
retained window against it — reproducing exactly what
``Engine.translate_batch`` over those sequences would have returned.

Knowledge lifecycle
-------------------

Each venue's knowledge lives in a
:class:`~repro.knowledge.KnowledgeStore`; every ingestion window is one
*epoch* — the service rolls the venue's store after folding the window —
and the store's retention policy (``EngineConfig.retention``, or the
service's per-venue ``retention`` override) decides what the prior keeps
remembering: everything (unbounded, the default), only the newest epochs
(sliding window, retired by exact subtraction), or a recency-weighted
decay.  ``VenueStats.retained_epochs`` reports the lifecycle state per
venue.

Adaptive windowing
------------------

With ``LiveConfig.adaptive_windowing`` (off by default) the service
keeps an EWMA of each venue's observed records/sec and derives a
per-venue ``max_window_records`` target from it, so a quiet office and a
busy mall both keep their windows near the configured time span without
one burst growing a window without bound.  Both window drivers
(:mod:`repro.live.ingest`) consult :meth:`window_bounds` per window.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from ..core.complementing import MobilityKnowledge
from ..core.translator import (
    BatchTranslationResult,
    TranslationResult,
    Translator,
    assemble_results,
)
from ..engine import Engine, EngineConfig, ExecutionBackend, create_backend
from ..errors import ConfigError
from ..knowledge import KnowledgeStore, RetentionPolicy, parse_retention
from ..positioning import (
    PositioningSequence,
    RawPositioningRecord,
    RecordStream,
)
from ..telemetry import get_registry
from ..durability import (
    DurableStateJournal,
    decode,
    decode_phase_one,
    decode_records,
    encode,
    encode_phase_one,
    encode_records,
    encode_retention,
    require_fields,
)
from ..errors import PersistenceError
from .dispatch import Router, VenueDispatcher
from .ingest import FeedSet, run_feeds as _run_feeds, serve_async

#: Adaptive windowing never drives a venue's record target below this —
#: a near-idle venue still gets meaningful batches.
ADAPTIVE_MIN_RECORDS = 8

#: Headroom over the EWMA-predicted records-per-window, so the count
#: bound only closes a window on genuine bursts, not ordinary jitter.
ADAPTIVE_HEADROOM = 2.0


@dataclass(frozen=True)
class LiveConfig:
    """Windowing and ingestion knobs of the live service."""

    #: Time span of one ingestion window.
    window_seconds: float = 300.0
    #: Optional per-window record bound (whichever bound closes first).
    max_window_records: int | None = None
    #: Bounded ingestion queue depth: at most this many cut windows wait
    #: for translation before the feed readers block (backpressure).
    max_pending_windows: int = 4
    #: Keep every window's per-device results for :meth:`finalize` /
    #: viewer construction.  Disable for truly unbounded feeds, where
    #: only per-window emissions and the folded knowledge are retained.
    retain_results: bool = True
    #: Derive a per-venue ``max_window_records`` target from an EWMA of
    #: each venue's observed records/sec (see the module notes).  Off by
    #: default: adaptive cuts change the windowed sequence split, so the
    #: finalize-equals-batch check against a *fixed* windowing no longer
    #: applies verbatim.
    adaptive_windowing: bool = False
    #: EWMA smoothing for the observed feed rate (1.0 = latest window
    #: only, smaller = smoother).
    adaptive_alpha: float = 0.25
    #: Durable-state checkpoint cadence: with a ``state_dir`` configured,
    #: the service writes a full :class:`~repro.knowledge.KnowledgeStore`
    #: snapshot (and truncates the WAL) every this many windows.  Smaller
    #: = faster recovery, more checkpoint I/O per window.
    snapshot_interval: int = 16

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ConfigError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.max_window_records is not None and self.max_window_records < 1:
            raise ConfigError(
                f"max_window_records must be >= 1, got "
                f"{self.max_window_records}"
            )
        if self.max_pending_windows < 1:
            raise ConfigError(
                f"max_pending_windows must be >= 1, got "
                f"{self.max_pending_windows}"
            )
        if not 0.0 < self.adaptive_alpha <= 1.0:
            raise ConfigError(
                f"adaptive_alpha must be in (0, 1], got "
                f"{self.adaptive_alpha}"
            )
        if self.snapshot_interval < 1:
            raise ConfigError(
                f"snapshot_interval must be >= 1 windows, got "
                f"{self.snapshot_interval}"
            )


@dataclass
class VenueStats:
    """Cumulative per-venue counters."""

    venue_id: str
    windows: int = 0
    records: int = 0
    sequences: int = 0
    semantics: int = 0
    #: Sequences currently contributing to the venue's knowledge (a
    #: decayed float weight under decay retention; drops when a sliding
    #: window retires epochs).
    knowledge_sequences: "int | float" = 0
    #: Wall time spent translating (and folding/retiring) this venue's
    #: windows.
    translate_seconds: float = 0.0
    #: Epochs still contributing to the venue's knowledge (ring length
    #: under sliding-window retention; every epoch ever rolled under
    #: unbounded/decay).
    retained_epochs: int = 0
    #: The adaptive per-venue ``max_window_records`` target (``None``
    #: until adaptive windowing has observed a window).
    window_records_target: int | None = None

    def count(
        self, store: KnowledgeStore | None, records: int, sequences: int,
        semantics: int, seconds: float, windows: int = 1,
    ) -> None:
        """Count one window — translated, or replayed from the WAL — or a
        snapshot's ``windows`` onto fresh stats, then re-read the
        knowledge fields from the venue's ``store``."""
        self.windows += windows
        self.records += records
        self.sequences += sequences
        self.semantics += semantics
        self.translate_seconds += seconds
        if store is not None:
            self.knowledge_sequences = store.knowledge.sequences_seen
            self.retained_epochs = store.retained_epochs


#: The :class:`VenueStats` fields a snapshot journals (the knowledge
#: fields are re-read from the restored store).
_JOURNALED_STATS = (
    "windows", "records", "sequences", "semantics", "translate_seconds",
    "window_records_target",
)


@dataclass
class LiveStats:
    """Cumulative service counters across all venues."""

    windows: int = 0
    records: int = 0
    sequences: int = 0
    semantics: int = 0
    #: Wall time spent inside window translation.
    translate_seconds: float = 0.0
    #: Wall time from the first window to the latest one.
    elapsed_seconds: float = 0.0
    #: WAL entry bytes appended by this service's journal (0 without a
    #: configured ``state_dir``).
    wal_bytes: int = 0
    #: Durable snapshots checkpointed by this service's journal.
    snapshots: int = 0
    venues: dict[str, VenueStats] = field(default_factory=dict)

    @property
    def windows_per_second(self) -> float:
        """Sustained window throughput over the service's lifetime."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.windows / self.elapsed_seconds

    @property
    def records_per_second(self) -> float:
        """Sustained record throughput over the service's lifetime."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records / self.elapsed_seconds

    def format_table(self) -> str:
        """Small fixed-width rendering for CLI / bench output."""
        summary = (
            f"windows={self.windows} records={self.records} "
            f"sequences={self.sequences} semantics={self.semantics} "
            f"({self.windows_per_second:.2f} windows/s, "
            f"{self.records_per_second:,.0f} records/s)"
        )
        if self.wal_bytes or self.snapshots:
            summary += (
                f"  wal={self.wal_bytes:,d}B snapshots={self.snapshots}"
            )
        lines = [summary]
        # The venue column grows with the longest id, so a venue named
        # longer than the 12-character default cannot shear the table.
        width = max([12] + [len(venue_id) for venue_id in self.venues])
        for venue_id in sorted(self.venues):
            venue = self.venues[venue_id]
            line = (
                f"  {venue_id:<{width}} {venue.windows:4d} windows  "
                f"{venue.records:7d} records  {venue.sequences:5d} sequences  "
                f"{venue.semantics:6d} semantics  "
                f"{venue.translate_seconds:6.2f}s translate  "
                f"knowledge over {venue.knowledge_sequences:g} sequences "
                f"({venue.retained_epochs} epochs)"
            )
            if venue.window_records_target is not None:
                line += f"  window<={venue.window_records_target} records"
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class LiveWindowResult:
    """One ingestion window's translation, split per venue."""

    index: int
    venues: dict[str, BatchTranslationResult]
    records: int
    elapsed_seconds: float

    @property
    def sequences(self) -> int:
        """Per-device sequences translated in this window."""
        return sum(len(batch) for batch in self.venues.values())

    @property
    def semantics(self) -> int:
        """Final semantics triplets emitted in this window."""
        return sum(
            batch.total_semantics for batch in self.venues.values()
        )


@dataclass
class _VenueState:
    """Everything the service accumulates for one venue."""

    venue_id: str
    engine: Engine
    #: The venue's knowledge store (epoch ring + live knowledge behind
    #: the configured retention policy); created lazily on the first
    #: window, ``None`` when the venue builds no knowledge at all.
    store: KnowledgeStore | None = None
    #: Whether store creation was attempted (distinguishes "not yet"
    #: from "this venue has knowledge disabled").
    store_checked: bool = False
    #: EWMA of observed records/sec (adaptive windowing).
    ewma_rate: float | None = None
    results: list[TranslationResult] = field(default_factory=list)
    #: Per retained window, the encoded ``(record rows, phase-one
    #: payload)`` its WAL entry carried, kept only when journaling with
    #: ``retain_results``: every snapshot re-writes them as they are,
    #: and recovery decodes :attr:`results` from them.
    journaled: "list[tuple[list, list]]" = field(default_factory=list)
    stats: VenueStats = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = VenueStats(self.venue_id)

    @property
    def knowledge(self) -> MobilityKnowledge | None:
        """The store's live knowledge (``None`` before the first window)."""
        return self.store.knowledge if self.store is not None else None


class LiveTranslationService:
    """Continuous windowed translation over one shared worker pool.

    Construct with ``{venue_id: Translator}`` — one entry per building —
    plus the engine and live configs; then either drive it window by
    window (:meth:`process_window`), replay finite feeds on the calling
    thread (:meth:`run_stream` / :meth:`run_feeds`), or serve one or
    more feeds through the asyncio ingestion front-end (:meth:`serve`).
    The worker pool opens lazily on the first window and stays warm
    until :meth:`close`; the service is a context manager.
    """

    def __init__(
        self,
        translators: Mapping[str, Translator] | Translator,
        engine_config: EngineConfig | None = None,
        live_config: LiveConfig | None = None,
        router: Router | None = None,
        retention: "str | RetentionPolicy | Mapping[str, str | RetentionPolicy] | None" = None,
        state_dir: "str | Path | None" = None,
    ):
        if isinstance(translators, Translator):
            translators = {"default": translators}
        self.dispatcher = VenueDispatcher(translators, router=router)
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        self.live_config = (
            live_config if live_config is not None else LiveConfig()
        )
        # Per-venue knowledge-retention override; falls back to
        # ``EngineConfig.retention`` where unset.  Validated eagerly so a
        # malformed spec fails at construction, not mid-stream.
        if isinstance(retention, Mapping):
            for venue_id, spec in retention.items():
                if venue_id not in self.dispatcher.translators:
                    raise ConfigError(
                        f"retention names unknown venue {venue_id!r}"
                    )
                parse_retention(spec)
            retention = dict(retention)
        else:
            parse_retention(retention)
        self._retention = retention
        self._backend: ExecutionBackend | None = None
        self._states: dict[str, _VenueState] = {}
        self._windows = 0
        self._started: float | None = None
        self._elapsed = 0.0
        self._translate_seconds = 0.0
        # Durable state: a snapshot + WAL journal rooted at ``state_dir``
        # (see :mod:`repro.durability`).  Recovery runs once, on the
        # first open(), after the engines are built.
        self._journal = (
            DurableStateJournal(state_dir) if state_dir is not None else None
        )
        self._recovered = False
        self._since_snapshot = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "LiveTranslationService":
        """Start the shared pool and bind one engine per venue.

        The backend context is the full venue map, shipped to each
        worker exactly once; every venue's engine then maps its phases
        onto the same warm pool under its own context key.  When
        recovery refuses the state directory, the pool and the journal
        are closed again before the error propagates.
        """
        if self._backend is not None:
            return self
        backend = create_backend(
            self.engine_config.backend, self.engine_config.workers
        )
        backend.open(dict(self.dispatcher.translators))
        self._backend = backend
        for venue_id in self.dispatcher.venue_ids:
            engine = Engine(
                self.dispatcher.translator(venue_id),
                self.engine_config,
                backend=backend,
                context_key=venue_id,
            )
            if venue_id not in self._states:
                self._states[venue_id] = _VenueState(venue_id, engine)
            self._states[venue_id].engine = engine
        if self._journal is None:
            return self
        try:
            if not self._recovered:
                self._journal.open()
                self._recover()
                self._recovered = True
            elif not self._journal.is_open:
                # Re-opened after close(): the on-disk entries are the
                # windows this instance already holds in memory, so the
                # replay list is discarded, and appending continues.
                self._journal.open()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Tear the shared pool down; accumulated state is kept."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "LiveTranslationService":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._backend is None:
            self.open()

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------
    def process_window(
        self,
        records: list[RawPositioningRecord],
        venue_id: str | None = None,
    ) -> LiveWindowResult:
        """Translate one cut window of records.

        With ``venue_id`` the whole window belongs to one tagged feed;
        otherwise the dispatcher routes each record.  Per venue, the
        window's records group into per-device sequences, run through the
        incremental engine path, and the window's knowledge shard folds
        into the venue's knowledge store.  Every window is one **epoch**:
        after the fold the venue's store rolls, and its retention policy
        may retire or discount old epochs (default unbounded retention
        retires nothing — the pre-lifecycle behaviour, bit for bit).
        """
        self._ensure_open()
        registry = get_registry()
        started = time.perf_counter()
        if self._started is None:
            self._started = started
        if venue_id is not None:
            self.dispatcher.translator(venue_id)  # validate the tag
            routed = {venue_id: records} if records else {}
        else:
            routed = self.dispatcher.split(records)

        window_batches: dict[str, BatchTranslationResult] = {}
        journal_venues: list[dict] = []
        for vid, venue_records in routed.items():
            state = self._states[vid]
            sequences = PositioningSequence.group_records(venue_records)
            venue_started = time.perf_counter()
            with registry.trace("live_window", venue=vid):
                if not state.store_checked:
                    self._create_store(state)
                batch = state.engine.translate_increment(
                    sequences, store=state.store
                )
                retired: list = []
                if state.store is not None:
                    retired = state.store.roll()  # one epoch per window
            venue_elapsed = time.perf_counter() - venue_started
            if self.live_config.retain_results:
                state.results.extend(batch.results)
            state.stats.count(
                state.store, len(venue_records), len(batch),
                batch.total_semantics, venue_elapsed,
            )
            if registry.enabled:
                registry.histogram(
                    "trips_live_window_seconds", venue=vid
                ).observe(venue_elapsed)
                registry.counter(
                    "trips_live_records_total", venue=vid
                ).inc(len(venue_records))
                registry.counter(
                    "trips_live_semantics_total", venue=vid
                ).inc(batch.total_semantics)
                if state.store is not None:
                    registry.gauge(
                        "trips_knowledge_retained_epochs", venue=vid
                    ).set(state.store.retained_epochs)
                    registry.gauge(
                        "trips_knowledge_sequences", venue=vid
                    ).set(state.store.knowledge.sequences_seen)
            self._observe_rate(state, venue_records)
            if self._journal is not None:
                journal_venues.append(
                    self._journal_venue_entry(
                        state, venue_records, batch, retired, venue_elapsed
                    )
                )
            window_batches[vid] = batch

        finished = time.perf_counter()
        elapsed = finished - started
        self._windows += 1
        self._translate_seconds += elapsed
        self._elapsed = finished - self._started
        if registry.enabled:
            registry.counter("trips_live_windows_total").inc()
        if self._journal is not None:
            self._journal.append_window(
                self._windows - 1, {"venues": journal_venues}
            )
            self._since_snapshot += 1
            if self._since_snapshot >= self.live_config.snapshot_interval:
                self.checkpoint()
        return LiveWindowResult(
            index=self._windows - 1,
            venues=window_batches,
            records=len(records),
            elapsed_seconds=elapsed,
        )

    def _retention_for(self, venue_id: str) -> "str | RetentionPolicy | None":
        """This venue's retention override (``None`` → engine default)."""
        if isinstance(self._retention, Mapping):
            return self._retention.get(venue_id)
        return self._retention

    def _create_store(self, state: _VenueState) -> None:
        """Create one venue's store (or record that it has none).

        When journaling, the store tracks the open epoch's shard even
        under ring-less retention, so every roll's ``last_epoch`` carries
        the window's exact delta — the WAL payload.
        """
        state.store = state.engine.make_store(
            retention=self._retention_for(state.venue_id)
        )
        if state.store is not None and self._journal is not None:
            state.store.track_deltas = True
        state.store_checked = True

    # ------------------------------------------------------------------
    # Durable state (see :mod:`repro.durability`)
    # ------------------------------------------------------------------
    def _journal_venue_entry(
        self,
        state: _VenueState,
        venue_records: list[RawPositioningRecord],
        batch: BatchTranslationResult,
        retired: list,
        venue_elapsed: float,
    ) -> dict:
        """One venue's share of the window's WAL entry.

        The delta is the epoch the roll just closed — bit for bit the
        shard this window folded — plus its data-time span and the
        indices of the epochs retention retired, so replay can validate
        that re-rolling retires exactly what the live run did.  With
        ``retain_results`` the raw record batch and its encoded phase-one
        output ride along, encoded once here: recovery decodes the
        retained results from them, and later snapshots re-write the
        same payloads.
        """
        closed = state.store.last_epoch if state.store is not None else None
        rows = phase_one = None
        if self.live_config.retain_results:
            rows = encode_records(venue_records)
            phase_one = encode_phase_one(
                [(result.cleaning, result.annotation) for result in batch]
            )
            state.journaled.append((rows, phase_one))
        return {
            "venue": state.venue_id,
            "records": len(venue_records),
            "sequences": len(batch),
            "semantics": batch.total_semantics,
            "seconds": venue_elapsed,
            "delta": None if closed is None else encode(closed.partial),
            "start": None if closed is None else closed.start,
            "end": None if closed is None else closed.end,
            "retired": [epoch.index for epoch in retired],
            "batch": rows,
            "phase_one": phase_one,
        }

    def checkpoint(self) -> None:
        """Write a full durable snapshot now and truncate the WAL.

        Runs automatically every ``LiveConfig.snapshot_interval`` windows;
        callable directly at any window boundary (the sharded service
        checkpoints each shard right after an exchange round, so rebased
        knowledge — which arrives outside the fold path — becomes
        durable).  No-op without a configured ``state_dir``.
        """
        if self._journal is None:
            return
        retain = self.live_config.retain_results
        venues: dict[str, dict] = {}
        for vid, state in self._states.items():
            venues[vid] = {
                "store": (
                    None if state.store is None else encode(state.store)
                ),
                "store_checked": state.store_checked,
                "stats": {
                    name: getattr(state.stats, name)
                    for name in _JOURNALED_STATS
                },
                "ewma": state.ewma_rate,
                "batches": (
                    [rows for rows, _ in state.journaled] if retain else None
                ),
                "phase_one": (
                    [payload for _, payload in state.journaled]
                    if retain
                    else None
                ),
            }
        self._journal.write_snapshot(
            self._windows,
            {
                "translate_seconds": self._translate_seconds,
                "elapsed": self._elapsed,
                "venues": venues,
            },
        )
        self._since_snapshot = 0

    def _recover(self) -> None:
        """Restore state from the journal: snapshot, then the WAL tail.

        The snapshot restores each venue's store (codec round-trips are
        bit-for-bit, ``ExactSum`` expansions verbatim) and counters; each
        WAL entry then re-folds its venue deltas and re-rolls — retention
        is deterministic, and the retired epoch indices must match what
        the entry logged, or the log has diverged from the code and
        recovery raises instead of resuming silently wrong.  Retained
        results are decoded from each window's journaled phase-one
        payload as the snapshot and the entries are read: recovery is
        decode + fold, and no engine runs.
        """
        snapshot, entries = self._journal.load()
        if snapshot is not None:
            self._restore_snapshot(snapshot)
        for entry in entries:
            self._replay_entry(entry)
        self._since_snapshot = len(entries)
        registry = get_registry()
        if registry.enabled:
            registry.gauge("trips_recovery_windows_replayed").set(
                len(entries)
            )
            registry.counter("trips_recoveries_total").inc()

    def _restore_results(
        self, state: _VenueState, rows: list, phase_one: object, where: str
    ) -> None:
        """Decode one retained window's results from its journaled rows
        and phase-one payload (``where`` names the file and entry)."""
        sequences = PositioningSequence.group_records(decode_records(rows))
        pairs = decode_phase_one(phase_one, sequences, where)
        state.results.extend(assemble_results(sequences, pairs, None))
        state.journaled.append((rows, phase_one))

    def _restore_snapshot(self, snapshot: dict) -> None:
        where = f"snapshot {self._journal.snapshot_path}"
        require_fields(
            snapshot, where, "translate_seconds", "elapsed", venues=dict
        )
        self._windows = snapshot["windows"]
        self._translate_seconds = snapshot["translate_seconds"]
        self._elapsed = snapshot["elapsed"]
        for vid, payload in snapshot["venues"].items():
            state = self._states.get(vid)
            if state is None:
                raise PersistenceError(
                    f"snapshot names venue {vid!r}, which this service "
                    "does not serve"
                )
            venue_where = f"{where} venue {vid!r}"
            require_fields(
                payload, venue_where,
                "store", "store_checked", "ewma", "batches", "phase_one",
                stats=dict,
            )
            counters = payload["stats"]
            require_fields(
                counters, f"{venue_where} stats", *_JOURNALED_STATS
            )
            if payload["store"] is not None:
                store = decode(payload["store"])
                self._check_restored_retention(vid, store)
                store.track_deltas = True
                state.store = store
            state.store_checked = payload["store_checked"]
            stats = state.stats
            stats.count(
                state.store, counters["records"], counters["sequences"],
                counters["semantics"], counters["translate_seconds"],
                windows=counters["windows"],
            )
            stats.window_records_target = counters["window_records_target"]
            state.ewma_rate = payload["ewma"]
            batches = payload["batches"]
            if self.live_config.retain_results and batches:
                phase_one = payload["phase_one"]
                if not isinstance(phase_one, list) or len(phase_one) != len(
                    batches
                ):
                    raise PersistenceError(
                        f"{venue_where} has no valid 'phase_one' field "
                        f"for its {len(batches)} batches"
                    )
                for index, (rows, encoded) in enumerate(
                    zip(batches, phase_one)
                ):
                    self._restore_results(
                        state, rows, encoded, f"{venue_where} batch {index}"
                    )

    def _check_restored_retention(self, vid: str, store: KnowledgeStore):
        """A restored store must run the policy this service configures.

        Silently adopting a different policy would make the recovered
        run diverge from both the crashed one and a fresh one.
        """
        configured = self._retention_for(vid)
        if configured is None:
            configured = self.engine_config.retention
        if encode_retention(parse_retention(configured)) != encode_retention(
            store.retention
        ):
            raise PersistenceError(
                f"venue {vid!r} was journaled under retention "
                f"{store.retention.name!r} but this service configures "
                f"{parse_retention(configured).name!r}"
            )

    def _replay_entry(self, entry: dict) -> None:
        if entry.get("window") != self._windows:
            raise PersistenceError(
                f"WAL entry for window {entry.get('window')!r} cannot "
                f"follow {self._windows} recovered windows (gap or "
                "duplicate in the log)"
            )
        where = f"WAL {self._journal.wal.path} window {self._windows}"
        require_fields(entry, where, venues=list)
        for payload in entry["venues"]:
            require_fields(
                payload, f"{where} venue entry", "records", "sequences",
                "semantics", "seconds", "delta", "start", "end", "batch",
                "phase_one", venue=str, retired=list,
            )
            vid = payload["venue"]
            state = self._states.get(vid)
            if state is None:
                raise PersistenceError(
                    f"WAL entry names venue {vid!r}, which this service "
                    "does not serve"
                )
            if not state.store_checked:
                self._create_store(state)
            if payload["delta"] is not None:
                if state.store is None:
                    raise PersistenceError(
                        f"WAL entry carries a knowledge delta for venue "
                        f"{vid!r}, which builds no knowledge"
                    )
                state.store.fold(
                    decode(payload["delta"]),
                    start=payload["start"],
                    end=payload["end"],
                )
                retired = state.store.roll()
                if [e.index for e in retired] != payload["retired"]:
                    raise PersistenceError(
                        f"replaying venue {vid!r} retired epochs "
                        f"{[e.index for e in retired]} where the log "
                        f"recorded {payload['retired']}"
                    )
            state.stats.count(
                state.store, payload["records"], payload["sequences"],
                payload["semantics"], payload["seconds"],
            )
            if (
                self.live_config.retain_results
                and payload["batch"] is not None
            ):
                self._restore_results(
                    state, payload["batch"], payload["phase_one"],
                    f"{where} venue {vid!r}",
                )
        self._windows += 1
        self._translate_seconds += sum(
            payload["seconds"] for payload in entry["venues"]
        )

    def _observe_rate(
        self, state: _VenueState, venue_records: list[RawPositioningRecord]
    ) -> None:
        """Fold one window's observed feed rate into the venue's EWMA.

        Adaptive windowing: the EWMA of records/sec predicts the records
        one ``window_seconds`` span will carry; double that
        (:data:`ADAPTIVE_HEADROOM`) becomes the venue's
        ``max_window_records`` target, so the count bound only closes a
        window early on genuine bursts.  The rate is measured against the
        configured window span, not the records' own data-time span — a
        burst compressed into a few seconds must not inflate the bound
        meant to contain it (and a window the count bound closed early
        would otherwise report its instantaneous burst rate, raising the
        very bound that just fired).  A configured global
        ``max_window_records`` stays the hard ceiling.
        """
        if not self.live_config.adaptive_windowing or not venue_records:
            return
        rate = len(venue_records) / self.live_config.window_seconds
        alpha = self.live_config.adaptive_alpha
        if state.ewma_rate is None:
            state.ewma_rate = rate
        else:
            state.ewma_rate = alpha * rate + (1.0 - alpha) * state.ewma_rate
        target = max(
            ADAPTIVE_MIN_RECORDS,
            math.ceil(
                state.ewma_rate
                * self.live_config.window_seconds
                * ADAPTIVE_HEADROOM
            ),
        )
        if self.live_config.max_window_records is not None:
            target = min(target, self.live_config.max_window_records)
        state.stats.window_records_target = target

    def window_bounds(
        self, venue_id: str | None = None
    ) -> tuple[float, int | None]:
        """The ``(window_seconds, max_records)`` bounds to cut with next.

        The time span is global; the record bound is the venue's
        adaptive target when adaptive windowing is on and the venue has
        been observed, else the global ``max_window_records``.  Consulted
        before every cut by both window drivers.
        """
        config = self.live_config
        max_records = config.max_window_records
        if config.adaptive_windowing and venue_id is not None:
            state = self._states.get(venue_id)
            if state is not None and state.stats.window_records_target:
                max_records = state.stats.window_records_target
        return config.window_seconds, max_records

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run_stream(
        self,
        stream: RecordStream,
        venue_id: str | None = None,
        on_window: Callable[[LiveWindowResult], None] | None = None,
    ) -> LiveStats:
        """:meth:`run_feeds` over the one feed ``{venue_id: stream}``."""
        return self.run_feeds({venue_id: stream}, on_window)

    def run_feeds(
        self,
        feeds: "Mapping[str | None, RecordStream]",
        on_window: Callable[[LiveWindowResult], None] | None = None,
    ) -> LiveStats:
        """Replay finite feeds through the sync round-robin driver
        (:func:`repro.live.ingest.run_feeds`), leaving the service open
        for :meth:`finalize`."""
        self._ensure_open()
        _run_feeds(self, feeds, on_window)
        return self.stats

    def serve(
        self,
        feeds: FeedSet,
        on_window: Callable[[LiveWindowResult], None] | None = None,
    ) -> LiveStats:
        """Drive the asyncio ingestion front-end to feed exhaustion.

        ``feeds`` is a single (router-dispatched) :class:`RecordStream`
        or a ``{venue_id: RecordStream}`` map of tagged feeds.  Blocking
        wrapper over :func:`repro.live.serve_async`.
        """
        self._ensure_open()
        return asyncio.run(serve_async(self, feeds, on_window=on_window))

    # ------------------------------------------------------------------
    # Accumulated state
    # ------------------------------------------------------------------
    @property
    def stats(self) -> LiveStats:
        """Cumulative counters across every processed window."""
        venues = {
            vid: state.stats for vid, state in self._states.items()
        }
        return LiveStats(
            windows=self._windows,
            records=sum(v.records for v in venues.values()),
            sequences=sum(v.sequences for v in venues.values()),
            semantics=sum(v.semantics for v in venues.values()),
            translate_seconds=self._translate_seconds,
            elapsed_seconds=self._elapsed,
            wal_bytes=(
                self._journal.wal.bytes_written
                if self._journal is not None
                else 0
            ),
            snapshots=(
                self._journal.snapshots_written
                if self._journal is not None
                else 0
            ),
            venues=venues,
        )

    def knowledge(self, venue_id: str) -> MobilityKnowledge | None:
        """One venue's live folded knowledge (``None`` before any window
        reached it, or when its complementing layer is off)."""
        self.dispatcher.translator(venue_id)
        state = self._states.get(venue_id)
        return state.knowledge if state is not None else None

    def store(self, venue_id: str) -> KnowledgeStore | None:
        """One venue's knowledge store — live knowledge plus epoch ring
        and retention policy (``None`` under the same conditions as
        :meth:`knowledge`)."""
        self.dispatcher.translator(venue_id)
        state = self._states.get(venue_id)
        return state.store if state is not None else None

    def ensure_store(self, venue_id: str) -> KnowledgeStore | None:
        """Materialize one venue's knowledge store ahead of any window.

        Normally stores are created lazily by the first window that
        reaches a venue; the distributed knowledge exchange
        (:mod:`repro.distributed`) needs them eagerly, so a shard that
        has not yet served a venue can still receive the cluster's
        merged knowledge for it.  Returns the store, or ``None`` when
        the venue builds no knowledge at all (same gate as
        :meth:`knowledge`); idempotent once created.
        """
        self.dispatcher.translator(venue_id)
        self._ensure_open()
        state = self._states[venue_id]
        if not state.store_checked:
            self._create_store(state)
        return state.store

    def results(self, venue_id: str) -> list[TranslationResult]:
        """One venue's retained per-window results, in arrival order."""
        self.dispatcher.translator(venue_id)
        state = self._states.get(venue_id)
        return list(state.results) if state is not None else []

    def viewer_session(self, venue_id: str, device_id: str, **kwargs):
        """A :class:`~repro.viewer.ViewerSession` over one device's
        accumulated live results at one venue — the device's windowed
        translations stitched into a single browsable history."""
        from ..viewer import ViewerSession

        translator = self.dispatcher.translator(venue_id)
        return ViewerSession.from_live(
            translator.model, self.results(venue_id), device_id, **kwargs
        )

    def finalize(self) -> dict[str, BatchTranslationResult]:
        """Batch-equivalent cumulative results per venue.

        Re-complements every retained windowed sequence against the
        venue's *final* cumulative knowledge, on the shared pool.  For a
        finite, fully-replayed stream the returned batches are exactly —
        result for result, knowledge bit for bit — what
        ``Engine.translate_batch`` would produce over the same windowed
        sequences.  Per-window emissions remain the live (knowledge-as-of
        -window) view; this is the consolidated one.
        """
        if not self.live_config.retain_results:
            raise ConfigError(
                "finalize() needs retained results; this service runs "
                "with LiveConfig(retain_results=False)"
            )
        self._ensure_open()
        finalized: dict[str, BatchTranslationResult] = {}
        for venue_id in self.dispatcher.venue_ids:
            state = self._states[venue_id]
            started = time.perf_counter()
            sequences = [result.raw for result in state.results]
            pairs = [
                (result.cleaning, result.annotation)
                for result in state.results
            ]
            complements = None
            if state.knowledge is not None:
                complements = state.engine.complement(
                    [pair[1].sequence for pair in pairs], state.knowledge
                )
            results = assemble_results(sequences, pairs, complements)
            finalized[venue_id] = BatchTranslationResult(
                results,
                state.knowledge,
                time.perf_counter() - started,
                None,
            )
        return finalized
