"""The sharded ingestion service: horizontal scale-out of the live service.

One :class:`ShardedIngestService` owns N independent
:class:`~repro.live.LiveTranslationService` instances — each with its own
warm worker pool and per-venue knowledge stores — plus one
:class:`~repro.distributed.KnowledgeExchange`.  Every cluster window is
partitioned across the shards by a device-stable
:class:`~repro.distributed.ShardRouter`.  The window driver begins the
next cluster window — every shard's phase one on that shard's own pool —
before it finishes this one shard by shard on the calling thread, so the
pools clean and annotate while the caller folds, complements and
exchanges; every ``exchange_interval`` cluster windows the
exchange reconciles the shards' knowledge through the exact shard
algebra, so each shard's complementing prior converges to the
single-instance fold (bit for bit) at every exchange round.

The cluster preserves the live service's exactness contract because the
partition respects the two boundaries the algebra cares about: records
split by *device* (sequences group whole inside one shard) and knowledge
merges by *exact sums* (shard-count- and order-independent).  What is
approximate between exchanges is only freshness — a shard complements
against the cluster state as of the last rebase plus its own evidence —
never the aggregates themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from ..core.complementing import MobilityKnowledge
from ..core.translator import (
    BatchTranslationResult,
    TranslationResult,
    Translator,
)
from ..durability import FORMAT_VERSION, read_state_file, write_state_file
from ..durability import require_fields
from ..engine import EngineConfig
from ..errors import ConfigError, PersistenceError
from ..knowledge import RetentionPolicy, Unbounded, parse_retention
from ..live import LiveConfig, LiveStats, LiveTranslationService
from ..live.dispatch import Router
from ..live.ingest import run_feeds
from ..live.service import LiveWindowResult, _BegunWindow
from ..positioning import RawPositioningRecord, RecordStream
from .exchange import ExchangeRound, ExchangeStats, KnowledgeExchange
from .router import ShardRouter, parse_shard_router, shard_records


@dataclass(frozen=True)
class ClusterWindowResult:
    """One cluster window: the per-shard windows it fanned out to."""

    index: int
    #: Per-shard window results, keyed by shard index (only shards that
    #: received records appear).
    shards: dict[int, LiveWindowResult]
    records: int
    elapsed_seconds: float
    #: The exchange round that ran after this window, if any.
    exchange: ExchangeRound | None = None

    @property
    def sequences(self) -> int:
        """Per-device sequences translated across all shards."""
        return sum(window.sequences for window in self.shards.values())

    @property
    def semantics(self) -> int:
        """Semantics triplets emitted across all shards."""
        return sum(window.semantics for window in self.shards.values())


@dataclass
class ClusterStats:
    """Cumulative counters across the whole shard cluster."""

    shards: int
    windows: int = 0
    records: int = 0
    sequences: int = 0
    semantics: int = 0
    #: Wall time from this process's first cluster window to the latest
    #: one; not journaled, so after recovery it counts this process only.
    elapsed_seconds: float = 0.0
    #: Per-shard cumulative live stats, in shard-index order.
    per_shard: tuple[LiveStats, ...] = ()
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    #: Cluster windows recovered, not translated by this process.
    recovered_windows: int = 0

    @property
    def records_per_second(self) -> float:
        """Record throughput of this process's windows."""
        if self.elapsed_seconds <= 0:
            return 0.0
        recovered = sum(stats.recovered_records for stats in self.per_shard)
        return (self.records - recovered) / self.elapsed_seconds

    @property
    def windows_per_second(self) -> float:
        """Cluster-window throughput of this process's windows."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return (self.windows - self.recovered_windows) / self.elapsed_seconds

    def format_table(self) -> str:
        """Small fixed-width rendering for CLI / bench output."""
        merged = ", ".join(
            f"{venue}={count:g} seq"
            for venue, count in sorted(self.exchange.sequences_merged.items())
        )
        lines = [
            f"cluster: {self.shards} shards  {self.windows} windows  "
            f"{self.records} records  {self.sequences} sequences  "
            f"{self.semantics} semantics  "
            f"({self.records_per_second:,.0f} records/s)",
            f"exchange: {self.exchange.rounds} rounds  "
            f"{self.exchange.deltas_folded} deltas folded  "
            f"{self.exchange.exchange_seconds * 1e3:.1f} ms"
            + (f"  merged knowledge: {merged}" if merged else ""),
        ]
        for index, stats in enumerate(self.per_shard):
            epochs = sum(
                venue.retained_epochs for venue in stats.venues.values()
            )
            lines.append(
                f"  shard {index}  {stats.windows:4d} windows  "
                f"{stats.records:7d} records  "
                f"{stats.sequences:5d} sequences  "
                f"{stats.semantics:6d} semantics  "
                f"{stats.translate_seconds:6.2f}s translate  "
                f"{epochs:4d} epochs  wal={stats.wal_bytes:,d}B "
                f"snapshots={stats.snapshots}"
            )
        return "\n".join(lines)


def _require_unbounded(
    retention: "str | RetentionPolicy | Mapping[str, str | RetentionPolicy] | None",
    where: str,
) -> None:
    """The exchange is additive; reject retention that retires evidence."""
    if isinstance(retention, Mapping):
        for venue_id, spec in retention.items():
            _require_unbounded(spec, f"venue {venue_id!r}")
        return
    if not isinstance(parse_retention(retention), Unbounded):
        raise ConfigError(
            f"sharded ingestion requires unbounded retention ({where} "
            f"configures {retention!r}); retired or decayed evidence "
            "cannot be merged as additive deltas across shards"
        )


class ShardedIngestService:
    """N live-service shards behind one device-hash partition + exchange.

    Construct exactly like a :class:`~repro.live.LiveTranslationService`
    — a ``{venue_id: Translator}`` map plus engine/live configs — with a
    ``shards`` count on top.  Each shard is a full live service (own
    worker pool, own per-venue knowledge stores); the cluster cuts
    windows off the feed, partitions each window's records per shard
    (``shard_router``: device-hash by default, venue-affine or custom),
    finishes the shard windows one after another, and every
    ``exchange_interval`` cluster windows reconciles knowledge through
    the :class:`~repro.distributed.KnowledgeExchange`
    (``exchange_interval=None`` disables the automatic rounds;
    :meth:`exchange_now` is always available).  The service is a context
    manager, like its shards.
    """

    def __init__(
        self,
        translators: Mapping[str, Translator] | Translator,
        shards: int = 2,
        engine_config: EngineConfig | None = None,
        live_config: LiveConfig | None = None,
        shard_router: "str | ShardRouter | None" = None,
        exchange_interval: int | None = 1,
        router: Router | None = None,
        retention: "str | RetentionPolicy | Mapping[str, str | RetentionPolicy] | None" = None,
        state_dir: "str | Path | None" = None,
    ):
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1, got {shards}")
        if exchange_interval is not None and exchange_interval < 1:
            raise ConfigError(
                f"exchange interval must be >= 1 cluster windows, got "
                f"{exchange_interval}"
            )
        _require_unbounded(retention, "the service retention")
        self.shard_router = parse_shard_router(shard_router)
        self.exchange_interval = exchange_interval
        self.exchange = KnowledgeExchange()
        # Durable state fans out: each shard journals into its own
        # subdirectory; the cluster keeps its counters and the exchange
        # state in two atomically-replaced files at the root.
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._cluster_recovered = False
        self.shards: list[LiveTranslationService] = [
            LiveTranslationService(
                translators,
                engine_config,
                live_config,
                router=router,
                retention=retention,
                state_dir=(
                    self._state_dir / f"shard-{index}"
                    if self._state_dir is not None
                    else None
                ),
            )
            for index in range(shards)
        ]
        self.live_config = self.shards[0].live_config
        self._open = False
        self._windows = 0
        self._recovered_windows = 0
        self._since_exchange = 0
        self._started: float | None = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "ShardedIngestService":
        """Open every shard's pool.

        When a shard's or the cluster's recovery refuses the state
        directory, everything already opened is closed again before the
        error propagates; another shard count than the directory's is
        refused before any shard touches it.
        """
        self._open = True
        try:
            recovering = self._state_dir and not self._cluster_recovered
            if recovering:
                self._recover_cluster()  # before any shard opens its journal
            for shard in self.shards:
                shard.open()  # each shard recovers from its own journal
            most = max(shard.stats.windows for shard in self.shards)
            if recovering and most > self._windows:
                raise PersistenceError(
                    f"a shard recovered {most} windows but the cluster state "
                    f"({self._cluster_path()}) records only {self._windows}; "
                    "the crash was not at a cluster-window boundary and the "
                    "state directory is inconsistent"
                )
            self._cluster_recovered = True
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Tear every shard down; accumulated state is kept."""
        self._open = False
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedIngestService":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if not self._open:
            self.open()

    # ------------------------------------------------------------------
    # Durable cluster state (see :mod:`repro.durability`)
    # ------------------------------------------------------------------
    # The shards journal their own windows; the cluster adds two files:
    # ``cluster.json`` (shard count and window/exchange counters,
    # refreshed after every cluster window) and ``exchange.json`` (the
    # coordinator's merged aggregate per venue, refreshed after every
    # round).  Both are published by atomic rename.  Right after a
    # round, every journaled shard is checkpointed — the rebase folds
    # cluster evidence into shard knowledge *outside* the shard's own
    # fold path, so only a snapshot makes it durable — and the recovery
    # guarantee is therefore at cluster-window boundaries: kill between
    # windows, reopen with the same shard count, and shards, exchange
    # and counters resume bit for bit.
    def _cluster_path(self) -> Path:
        return self._state_dir / "cluster.json"

    def _exchange_path(self) -> Path:
        return self._state_dir / "exchange.json"

    def _persist_cluster(self) -> None:
        if self._state_dir is None:
            return
        write_state_file(
            self._cluster_path(),
            {
                "magic": "trips-cluster",
                "version": FORMAT_VERSION,
                "shards": len(self.shards),
                "windows": self._windows,
                "since_exchange": self._since_exchange,
            },
        )

    def _persist_exchange(self) -> None:
        for shard in self.shards:
            shard.checkpoint()
        write_state_file(
            self._exchange_path(),
            {
                "magic": "trips-exchange",
                "version": FORMAT_VERSION,
                "state": self.exchange.export_state(),
            },
        )

    def _recover_cluster(self) -> None:
        # No cluster.json counts as zero cluster windows: shards that
        # journaled any trip the boundary check in open().  Every shard
        # holds the merged knowledge, so another shard count is refused.
        exchange_path = self._exchange_path()
        cluster_path = self._cluster_path()
        exchange_payload = read_state_file(exchange_path, "trips-exchange")
        if exchange_payload is not None:
            require_fields(exchange_payload, str(exchange_path), "state")
            self.exchange.restore_state(exchange_payload["state"])
        cluster_payload = read_state_file(cluster_path, "trips-cluster")
        if cluster_payload is not None:
            require_fields(
                cluster_payload, str(cluster_path),
                "windows", "since_exchange", shards=int,
            )
            if cluster_payload["shards"] != len(self.shards):
                raise PersistenceError(
                    f"{cluster_path} was journaled by "
                    f"{cluster_payload['shards']} shards but this service "
                    f"runs {len(self.shards)}"
                )
            self._windows = cluster_payload["windows"]
            self._since_exchange = cluster_payload["since_exchange"]
            rounds_ran = self._since_exchange < self._windows
            if rounds_ran and exchange_payload is None:
                raise PersistenceError(
                    f"{cluster_path} records a completed exchange round "
                    f"but {exchange_path} is missing; the merged cluster "
                    "knowledge cannot be restored"
                )
        self._recovered_windows = self._windows

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------
    def process_window(
        self,
        records: list[RawPositioningRecord],
        venue_id: str | None = None,
    ) -> ClusterWindowResult:
        """Translate one cluster window across the shards.

        The window's records partition per shard (device-stable, order-
        preserving) and each receiving shard runs an ordinary live-service
        window.  A venue-tagged window routes wholesale when the router
        pins venues (``shard_of_venue``, e.g.
        :class:`~repro.distributed.VenueAffineRouter`) — the tag is the
        venue key, so tagged feeds pin without per-record hashing.  When
        the automatic exchange interval elapses, an exchange round runs
        after the window — between windows, so shards are quiescent
        while knowledge moves.  The window driver calls
        :meth:`_begin_window` and :meth:`_finish_window` one window apart.
        """
        return self._finish_window(self._begin_window(records, venue_id))

    def _begin_window(
        self,
        records: list[RawPositioningRecord],
        venue_id: str | None = None,
    ) -> _BegunWindow:
        """Route the window and begin every receiving shard's window
        (``parts`` holds them by shard index)."""
        self._ensure_open()
        started = time.perf_counter()
        if self._started is None:
            self._started = started
        pin = getattr(self.shard_router, "shard_of_venue", None)
        if venue_id is not None and pin is not None and records:
            index = pin(venue_id, len(self.shards))
            if not 0 <= index < len(self.shards):
                raise ConfigError(
                    f"shard router pinned venue {venue_id!r} to index "
                    f"{index}; expected 0 <= index < {len(self.shards)}"
                )
            routed = {index: records}
        else:
            routed = shard_records(
                records, self.shard_router, len(self.shards)
            )
        begun = _BegunWindow(len(records))
        try:
            for index, shard_batch in routed.items():
                begun.parts[index] = self.shards[index]._begin_window(
                    shard_batch, venue_id
                )
        except BaseException:
            self._abandon_window(begun)
            raise
        begun.seconds = time.perf_counter() - started
        return begun

    def _abandon_window(self, begun: _BegunWindow) -> None:
        for index, shard_begun in begun.parts.items():
            self.shards[index]._abandon_window(shard_begun)

    def _finish_window(self, begun: _BegunWindow) -> ClusterWindowResult:
        """Finish the shards' windows one after another on the calling
        thread, then run the exchange round the interval asks for.  A
        failing shard abandons the shards after it, so no shard window
        completes once the error is on its way."""
        started = time.perf_counter()
        shard_windows: dict[int, LiveWindowResult] = {}
        try:
            for index, shard_begun in begun.parts.items():
                shard_windows[index] = self.shards[index]._finish_window(
                    shard_begun
                )
        except BaseException:
            self._abandon_window(begun)
            raise
        self._windows += 1
        self._since_exchange += 1
        round_result: ExchangeRound | None = None
        if (
            self.exchange_interval is not None
            and self._since_exchange >= self.exchange_interval
        ):
            round_result = self.exchange_now()
        finished = time.perf_counter()
        self._elapsed = finished - self._started
        self._persist_cluster()
        return ClusterWindowResult(
            index=self._windows - 1,
            shards=shard_windows,
            records=begun.records,
            elapsed_seconds=begun.seconds + (finished - started),
            exchange=round_result,
        )

    def exchange_now(self) -> ExchangeRound:
        """Run one knowledge exchange round immediately.

        After it returns, every shard's live knowledge equals the merged
        cluster knowledge bit for bit (see
        :class:`~repro.distributed.KnowledgeExchange`).
        """
        self._ensure_open()
        self._since_exchange = 0
        round_result = self.exchange.exchange(self.shards)
        if self._state_dir is not None:
            # Rebased knowledge arrived outside the shards' fold path;
            # only a checkpoint makes it durable (see the durability
            # notes above), and the exchange state must follow it.
            self._persist_exchange()
            self._persist_cluster()
        return round_result

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def window_bounds(
        self, venue_id: str | None = None
    ) -> tuple[float, int | None]:
        """The live config's global ``(window_seconds, max_records)``;
        cluster windows never cut with a shard's adaptive target."""
        config = self.live_config
        return config.window_seconds, config.max_window_records

    def run_stream(
        self,
        stream: RecordStream,
        venue_id: str | None = None,
        on_window: Callable[[ClusterWindowResult], None] | None = None,
    ) -> ClusterStats:
        """:meth:`run_feeds` over the one feed ``{venue_id: stream}``."""
        return self.run_feeds({venue_id: stream}, on_window)

    def run_feeds(
        self,
        feeds: "Mapping[str | None, RecordStream]",
        on_window: Callable[[ClusterWindowResult], None] | None = None,
    ) -> ClusterStats:
        """Replay feeds through the sync round-robin driver
        (:func:`repro.live.ingest.run_feeds`), then run a final exchange
        round so the cluster ends converged."""
        self._ensure_open()
        run_feeds(self, feeds, on_window)
        self._final_exchange()
        return self.stats

    def _final_exchange(self) -> None:
        if (
            self.exchange_interval is not None
            and self._windows > 0
            and self._since_exchange > 0
        ):
            self.exchange_now()

    # ------------------------------------------------------------------
    # Accumulated state
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ClusterStats:
        """Cumulative cluster counters plus per-shard live stats."""
        per_shard = tuple(shard.stats for shard in self.shards)
        return ClusterStats(
            shards=len(self.shards),
            windows=self._windows,
            records=sum(stats.records for stats in per_shard),
            sequences=sum(stats.sequences for stats in per_shard),
            semantics=sum(stats.semantics for stats in per_shard),
            elapsed_seconds=self._elapsed,
            per_shard=per_shard,
            recovered_windows=self._recovered_windows,
            exchange=replace(
                self.exchange.stats,
                sequences_merged=dict(
                    self.exchange.stats.sequences_merged
                ),
            ),
        )

    def merged_knowledge(self, venue_id: str) -> MobilityKnowledge | None:
        """The cluster's merged global knowledge for one venue.

        ``None`` until an exchange round has seen evidence for the
        venue.  After any full round this equals every shard's live
        knowledge and the single-instance fold, bit for bit.
        """
        return self.exchange.merged_knowledge(venue_id)

    def finalize(self) -> dict[str, BatchTranslationResult]:
        """Batch-equivalent cumulative results per venue, cluster-wide.

        Runs a final exchange round (so every shard complements against
        the full merged knowledge), finalizes each shard, and splices
        the per-shard batches into one per venue — sorted by (device,
        first timestamp) so the output is deterministic regardless of
        how devices were sharded.  Modulo that ordering, the spliced
        results are exactly the single-instance ``finalize()`` over the
        same windows, because each sequence's complement is computed
        against identical (merged) knowledge.
        """
        self._ensure_open()
        self.exchange_now()
        finalized_per_shard = [shard.finalize() for shard in self.shards]
        combined: dict[str, BatchTranslationResult] = {}
        for venue_id in self.shards[0].dispatcher.venue_ids:
            results: list[TranslationResult] = []
            elapsed = 0.0
            for finalized in finalized_per_shard:
                batch = finalized[venue_id]
                results.extend(batch.results)
                elapsed += batch.elapsed_seconds
            results.sort(key=_result_order)
            combined[venue_id] = BatchTranslationResult(
                results,
                self.merged_knowledge(venue_id),
                elapsed,
                None,
            )
        return combined

    def __str__(self) -> str:
        return (
            f"ShardedIngestService({len(self.shards)} shards, "
            f"{self._windows} windows, {self.exchange})"
        )


def _result_order(result: TranslationResult) -> tuple:
    """Deterministic cross-shard ordering: device, then first timestamp."""
    records = result.raw.records
    return (result.device_id, records[0].timestamp if records else 0.0)
