"""Distributed ingestion: device-hash sharded instances, exact merge.

TRIPS' last scaling axis is horizontal: one venue map, many service
instances, each ingesting a slice of the record feed.  This package
shards feeds across N :class:`~repro.live.LiveTranslationService`
instances and keeps their mobility knowledge reconciled through the
exact shard algebra (:mod:`repro.core.complementing`,
:mod:`repro.knowledge`):

- :mod:`repro.distributed.router` — :class:`DeviceHashRouter` (stable
  BLAKE2 device hash, the default) and :class:`VenueAffineRouter` pin
  every device to one shard; any callable ``(record, shards) -> index``
  plugs in.  The one router invariant: a device's records within a
  window must land on one shard, because sequences group per shard.
- :class:`ShardedIngestService` — cuts cluster windows, partitions each
  window per shard, drives the shards' window translations concurrently
  (each shard owns its own warm worker pool), and aggregates
  :class:`ClusterStats`.
- :class:`KnowledgeExchange` — every ``exchange_interval`` cluster
  windows, each shard exports the **delta** of its knowledge store
  since the last round
  (:meth:`~repro.knowledge.KnowledgeStore.export_delta`: a
  :meth:`~repro.knowledge.KnowledgeStore.to_partial` snapshot minus the
  venue's global shard, which every shard holds after a round, by the
  algebra's exact inverse); the coordinator folds the deltas into that
  global shard and rebases every shard on the other shards' deltas.
  The shard count is fixed for the cluster's lifetime.

Invariants (proved by ``tests/test_distributed.py``):

- **Eventual exactness.**  After any full exchange round, every shard's
  live knowledge is bit-for-bit the single-instance fold of all windows
  processed so far — and therefore, once a finite feed has drained, the
  one-shot ``Engine.translate_batch`` knowledge over the same windowed
  sequences.  Any device partition, any exchange schedule.
- **Staleness, never error.**  Between rounds a shard's prior is its own
  evidence plus the cluster state as of its last rebase — a subset of
  the true aggregate, never a corruption of it.
- **Additivity requirement.**  Exchange deltas are additive, so the
  cluster requires unbounded retention; retiring or decaying retention
  is rejected at construction
  (:class:`~repro.errors.ConfigError`).
"""

from .exchange import ExchangeRound, ExchangeStats, KnowledgeExchange
from .router import (
    SHARD_ROUTERS,
    DeviceHashRouter,
    ShardRouter,
    VenueAffineRouter,
    parse_shard_router,
    shard_records,
    stable_hash,
)
from .service import (
    ClusterStats,
    ClusterWindowResult,
    ShardedIngestService,
)

__all__ = [
    "ClusterStats",
    "ClusterWindowResult",
    "DeviceHashRouter",
    "ExchangeRound",
    "ExchangeStats",
    "KnowledgeExchange",
    "SHARD_ROUTERS",
    "ShardRouter",
    "ShardedIngestService",
    "VenueAffineRouter",
    "parse_shard_router",
    "shard_records",
    "stable_hash",
]
