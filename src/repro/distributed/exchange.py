"""The knowledge exchange: exact merge of per-shard venue knowledge.

Every shard of a :class:`~repro.distributed.ShardedIngestService` folds
only the mobility evidence of the devices routed to it, so between
exchanges the shards' priors diverge — each complements against a
partial view.  The exchange reconciles them through the shard algebra,
and *exactly*:

1. **Export.**  After a round every shard holds the venue's global
   aggregate ``G``, so each shard *i* exports ``delta_i`` =
   :meth:`~repro.knowledge.KnowledgeStore.export_delta` of ``G``: its
   :meth:`~repro.knowledge.KnowledgeStore.to_partial` snapshot with ``G``
   subtracted through the algebra's exact inverse — the evidence it
   folded since the last round.
2. **Fold.**  The coordinator folds ``total = Σ delta_j`` into ``G``, one
   global :class:`~repro.core.complementing.PartialKnowledge` per venue.
   Folding is commutative and associative with exact-sum dwell totals,
   so the global aggregate is independent of shard count, arrival order
   and exchange schedule.
3. **Rebase.**  Each shard folds ``total − delta_i`` — exactly the
   other shards' evidence, ``Σ_{j≠i} delta_j`` — into its live
   knowledge, and so holds the new ``G``.

The invariant this buys (proved by ``tests/test_distributed.py``):
after any full exchange round, **every shard's live knowledge equals —
bit for bit — the single-instance fold** of all windows processed so
far, and therefore the one-shot batch knowledge once a finite feed has
drained.  Between rounds a shard's prior is its own evidence plus the
cluster state as of the last rebase: stale, never wrong.

Nothing is kept per shard, so the shard count is fixed (a newcomer would
not hold ``G``).  The protocol is additive, so it requires unbounded
retention: a shard that retires or decays evidence cannot express its
change since ``G`` as an additive delta (the subtraction would go
negative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.complementing import MobilityKnowledge, PartialKnowledge
from ..errors import ConfigError
from ..knowledge import KnowledgeStore, Unbounded
from ..telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..live import LiveTranslationService

#: Size-flavoured buckets for delta magnitudes (sequences per delta).
DELTA_SIZE_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0, 10000.0,
)


@dataclass(frozen=True)
class ExchangeRound:
    """One completed exchange round's summary."""

    index: int
    #: Venues whose global knowledge the round touched.
    venues: tuple[str, ...]
    #: Shard deltas folded that actually carried evidence.
    deltas: int
    #: Sequences in the merged global knowledge, summed over venues.
    sequences_merged: float
    elapsed_seconds: float


@dataclass
class ExchangeStats:
    """Cumulative exchange counters."""

    rounds: int = 0
    deltas_folded: int = 0
    #: Wall time this process spent in rounds; not journaled, so after
    #: recovery it counts this process only.
    exchange_seconds: float = 0.0
    #: Sequences in the merged global knowledge, per venue.
    sequences_merged: dict[str, float] = field(default_factory=dict)


class KnowledgeExchange:
    """Coordinates exact knowledge merges across shard services.

    Owns the per-venue global :class:`PartialKnowledge` aggregate, which
    every shard's store holds after a round.  :meth:`exchange` runs one
    full round over a list of shard services, as many every round;
    shards must be quiescent while it runs (the
    :class:`~repro.distributed.ShardedIngestService` guarantees that by
    exchanging between cluster windows).
    """

    def __init__(self) -> None:
        self._global: dict[str, PartialKnowledge] = {}
        self._smoothing: dict[str, float] = {}
        self._shards: int | None = None  # the previous round's count
        self.stats = ExchangeStats()

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def exchange(
        self, shards: "Sequence[LiveTranslationService]"
    ) -> ExchangeRound:
        """Run one full exchange round; returns its summary.

        After this returns, every shard's live knowledge for every venue
        it serves equals the merged global knowledge, bit for bit.  A
        shard count other than the previous round's raises
        :class:`~repro.errors.ConfigError`.
        """
        if self._shards not in (None, len(shards)):
            raise ConfigError(
                f"the exchange's last round ran over {self._shards} shards, "
                f"not {len(shards)}: a shard that missed a round does not "
                "hold the merged knowledge"
            )
        self._shards = len(shards)
        registry = get_registry()
        started = time.perf_counter()
        deltas_folded = 0
        rebase_seconds = 0.0
        venues_touched: list[str] = []
        venue_ids = sorted(
            {v for shard in shards for v in shard.dispatcher.venue_ids}
        )
        for venue_id in venue_ids:
            stores: list[KnowledgeStore] = []
            for shard in shards:
                if venue_id not in shard.dispatcher.translators:
                    continue
                store = shard.ensure_store(venue_id)
                if store is None:
                    continue  # venue builds no knowledge at all
                self._require_additive(store, venue_id)
                stores.append(store)
            if not stores:
                continue

            # Export: each shard's evidence since the last round.
            merged = self._global.get(venue_id)
            deltas = [store.export_delta(merged) for store in stores]
            for delta in deltas:
                if delta.sequences_seen:
                    deltas_folded += 1
                    if registry.enabled:
                        registry.histogram(
                            "trips_exchange_delta_sequences",
                            buckets=DELTA_SIZE_BUCKETS,
                            venue=venue_id,
                        ).observe(delta.sequences_seen)

            # Fold: the round's total into the global aggregate.
            total = deltas[0].merge(*deltas[1:])
            if merged is None:
                merged = PartialKnowledge(regions=list(total.regions))
                self._global[venue_id] = merged
                self._smoothing[venue_id] = stores[0].knowledge.smoothing
            merged.add(total)

            # Rebase: each shard folds the other shards' evidence.
            rebase_started = time.perf_counter()
            for delta, store in zip(deltas, stores):
                missing = total.merge()  # no-args merge == deep copy
                missing.subtract(delta)
                if missing.sequences_seen or missing.outgoing_totals:
                    store.knowledge.fold(missing)
            rebase_seconds += time.perf_counter() - rebase_started
            venues_touched.append(venue_id)
            self.stats.sequences_merged[venue_id] = merged.sequences_seen

        elapsed = time.perf_counter() - started
        self.stats.rounds += 1
        self.stats.deltas_folded += deltas_folded
        self.stats.exchange_seconds += elapsed
        if registry.enabled:
            registry.counter("trips_exchange_rounds_total").inc()
            if deltas_folded:
                registry.counter("trips_exchange_deltas_total").inc(
                    deltas_folded
                )
            registry.histogram("trips_exchange_round_seconds").observe(
                elapsed
            )
            registry.histogram("trips_exchange_rebase_seconds").observe(
                rebase_seconds
            )
        return ExchangeRound(
            index=self.stats.rounds - 1,
            venues=tuple(venues_touched),
            deltas=deltas_folded,
            sequences_merged=sum(
                self.stats.sequences_merged.values()
            ),
            elapsed_seconds=elapsed,
        )

    @staticmethod
    def _require_additive(store: KnowledgeStore, venue_id: str) -> None:
        if not isinstance(store.retention, Unbounded):
            raise ConfigError(
                f"knowledge exchange requires unbounded retention, but "
                f"venue {venue_id!r} runs {store.retention.name!r}; "
                "retired or decayed evidence cannot be expressed as an "
                "additive delta"
            )

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """The exchange's full state as a codec payload.

        Everything a restarted coordinator needs to keep rebasing
        exactly: the per-venue global aggregates, smoothing and the
        cumulative counts (nothing per shard, and no wall time: the
        state is a function of the windows exchanged).  The
        sharded service persists this after each round
        (:mod:`repro.durability` wire format, bit-for-bit round-trip).
        """
        from ..durability import encode

        return {
            "global": {
                venue: encode(partial)
                for venue, partial in self._global.items()
            },
            "smoothing": dict(self._smoothing),
            "stats": {
                "rounds": self.stats.rounds,
                "deltas_folded": self.stats.deltas_folded,
                "sequences_merged": dict(self.stats.sequences_merged),
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a previously exported state (inverse of
        :meth:`export_state`); replaces any current state."""
        from ..durability import decode

        self._global = {
            venue: decode(partial)
            for venue, partial in payload["global"].items()
        }
        self._smoothing = dict(payload["smoothing"])
        counters = payload["stats"]
        self.stats = ExchangeStats(
            rounds=counters["rounds"],
            deltas_folded=counters["deltas_folded"],
            sequences_merged=dict(counters["sequences_merged"]),
        )

    # ------------------------------------------------------------------
    # The merged view
    # ------------------------------------------------------------------
    @property
    def venue_ids(self) -> list[str]:
        """Venues with merged global knowledge, sorted."""
        return sorted(self._global)

    def merged_partial(self, venue_id: str) -> PartialKnowledge | None:
        """A copy of one venue's merged global shard (``None`` if unseen)."""
        merged = self._global.get(venue_id)
        return merged.merge() if merged is not None else None

    def merged_knowledge(self, venue_id: str) -> MobilityKnowledge | None:
        """One venue's merged global knowledge as a queryable prior.

        Bit-for-bit what a single instance folding every shard's windows
        would hold — the coordinator's authoritative view.
        """
        merged = self._global.get(venue_id)
        if merged is None:
            return None
        return MobilityKnowledge.from_partials(
            [merged],
            regions=list(merged.regions),
            smoothing=self._smoothing[venue_id],
        )

    def __str__(self) -> str:
        return (
            f"KnowledgeExchange({len(self._global)} venues, "
            f"{self.stats.rounds} rounds, "
            f"{self.stats.deltas_folded} deltas folded)"
        )
