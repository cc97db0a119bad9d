"""Live streaming translation: windowed ingestion over a warm engine pool.

TRIPS is pitched as an online system — positioning records arrive
continuously and the viewer should reflect mobility semantics as they
happen.  This package is that online front half: where
:mod:`repro.engine` translates one finite batch,
:class:`LiveTranslationService` translates a *feed*, indefinitely, with
bounded memory.

How it works
------------

**Windowing.**  Each incoming :class:`~repro.positioning.RecordStream`
is cut into consecutive windows bounded by time
(``LiveConfig.window_seconds``) and optionally by record count
(``LiveConfig.max_window_records``) — whichever bound closes first.
Every entry point — ``serve``, ``run_stream`` / ``run_feeds`` (here and
on the sharded cluster) and ``trips serve`` — cuts through one sync
loop on the calling thread, one window per live feed per pass, each
window's phase one begun before the previous window is finished (see
:mod:`repro.live.ingest`), so in-flight memory is two windows and the
cuts are deterministic.

**Fold, don't rebuild.**  Every window runs through the engine's
incremental path: phase one (clean + annotate) fans out across the
worker pool, the window's
:class:`~repro.core.complementing.PartialKnowledge` shard **folds** into
the venue's long-running
:class:`~repro.core.complementing.MobilityKnowledge` — an
O(#regions + #edges) merge, never a rebuild — and phase two complements
the window against the cumulative knowledge as of that window.  Folding
is exact (:class:`~repro.core.complementing.ExactSum` dwell totals), so
after a finite stream is fully replayed the cumulative knowledge is
bit-for-bit identical to a one-shot batch build, and
:meth:`LiveTranslationService.finalize` reproduces exactly what
``Engine.translate_batch`` would have returned over the same windowed
sequences.

**Multi-building dispatch.**  One service instance serves heterogeneous
traffic: records route by venue id — tagged feeds, a custom router, or
the ``"<venue>:<device>"`` device-id prefix — to per-building
:class:`~repro.core.Translator`s (:mod:`repro.live.dispatch`), while all
venues share a single worker pool (the backend context is the venue map,
shipped once; per-window knowledge travels through the backend's
generation-keyed share channel).

**Knowledge lifecycle.**  Each venue's knowledge lives in a
:class:`~repro.knowledge.KnowledgeStore`; every ingestion window is one
epoch, and the store's retention policy (the service's ``retention``,
for every venue or per venue) decides what the prior remembers — everything
(unbounded, the default), only the newest epochs (sliding window,
retired by the shard algebra's exact inverse), or recency-weighted decay.
With ``LiveConfig.adaptive_windowing`` the service additionally derives
a per-venue ``max_window_records`` target from an EWMA of each venue's
observed feed rate.

Quickstart::

    from repro import LiveConfig, LiveTranslationService, Translator
    from repro.positioning import RecordStream

    service = LiveTranslationService(
        {"mall": Translator(mall), "airport": Translator(airport)},
        live_config=LiveConfig(window_seconds=600.0),
    )
    with service:
        stats = service.serve({"mall": mall_feed, "airport": airport_feed})
        consolidated = service.finalize()
"""

from .dispatch import VENUE_SEPARATOR, Router, VenueDispatcher, prefix_router
from .ingest import FeedSet
from .merge import merge_device_results
from .service import (
    LiveConfig,
    LiveStats,
    LiveTranslationService,
    LiveWindowResult,
    VenueStats,
)

__all__ = [
    "FeedSet",
    "LiveConfig",
    "LiveStats",
    "LiveTranslationService",
    "LiveWindowResult",
    "Router",
    "VENUE_SEPARATOR",
    "VenueDispatcher",
    "VenueStats",
    "merge_device_results",
    "prefix_router",
]
