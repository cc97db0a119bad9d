"""Window drivers: a sync round-robin loop and the asyncio front-end.

:func:`run_feeds` replays finite feeds on the calling thread — every
``run_stream`` / ``run_feeds`` call and ``trips serve``, single instance
or sharded cluster.  :func:`serve_async` (behind ``serve``) is for
blocking feeds: :class:`~repro.positioning.RecordStream` is pull-based —
a network feed parks the reader until records arrive — so the front-end
turns one or more feeds into a windowed producer/consumer pipeline:

- one **producer** task per feed cuts time/count-bounded windows off the
  feed in a worker thread (``asyncio.to_thread``), so a slow feed never
  stalls the event loop;
- cut windows queue onto one bounded :class:`asyncio.Queue`
  (``LiveConfig.max_pending_windows`` deep).  When translation falls
  behind, ``put`` blocks the producers — **backpressure**: in-flight
  memory is bounded by queue depth × window size, never by feed length;
- one **consumer** task pops windows in arrival order and runs the
  (blocking, pool-backed) window translation off the event loop.

Tagged feeds (``{venue_id: RecordStream}``) skip per-record routing —
every window carries its venue id; a single untagged feed is routed
record by record through the service's dispatcher.  A consumer failure
(e.g. a record routed to an unknown venue) cancels the producers instead
of deadlocking them against a full queue.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Union

from ..positioning import RawPositioningRecord, RecordStream
from ..telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from .service import LiveStats, LiveTranslationService, LiveWindowResult

#: What :meth:`LiveTranslationService.serve` accepts: one untagged feed
#: (dispatcher-routed) or a map of venue-tagged feeds.
FeedSet = Union[RecordStream, Mapping[str, RecordStream]]

#: End-of-feeds marker on the window queue.
_SENTINEL = None


def _as_feed_map(
    feeds: FeedSet,
) -> "dict[str | None, RecordStream]":
    """Normalize to ``{venue_id_or_None: stream}``."""
    if isinstance(feeds, RecordStream):
        return {None: feeds}
    if not feeds:
        from ..errors import DispatchError

        raise DispatchError("serve() needs at least one feed")
    return dict(feeds)


def run_feeds(
    service: Any,
    feeds: "Mapping[str | None, RecordStream]",
    on_window: "Callable[[Any], None] | None" = None,
) -> None:
    """Cut one window per still-live feed per pass, in sorted venue
    order, with bounds re-read from ``service.window_bounds`` before
    every cut, until every feed is exhausted.  ``service`` is the live
    service or the sharded cluster; a ``None`` key is an untagged feed.
    """
    active = dict(feeds)
    while active:
        for venue_id in sorted(active):
            seconds, max_records = service.window_bounds(venue_id)
            records = active[venue_id].take_window(seconds, max_records)
            if not records:
                del active[venue_id]
                continue
            window = service.process_window(records, venue_id)
            if on_window is not None:
                on_window(window)


async def serve_async(
    service: "LiveTranslationService",
    feeds: FeedSet,
    on_window: "Callable[[LiveWindowResult], None] | None" = None,
) -> "LiveStats":
    """Run feeds to exhaustion through the windowed ingestion pipeline."""
    config = service.live_config
    queue: "asyncio.Queue" = asyncio.Queue(maxsize=config.max_pending_windows)
    feed_map = _as_feed_map(feeds)
    registry = get_registry()
    depth_gauge = registry.gauge("trips_live_queue_depth")

    async def produce(venue_id: "str | None", stream: RecordStream) -> None:
        while True:
            # Bounds are re-read per window: adaptive windowing tightens
            # a venue's record bound as its observed feed rate evolves.
            window_seconds, max_records = service.window_bounds(venue_id)
            cut_started = time.perf_counter()
            batch: list[RawPositioningRecord] = await asyncio.to_thread(
                stream.take_window,
                window_seconds,
                max_records,
            )
            if registry.enabled:
                registry.histogram("trips_live_window_cut_seconds").observe(
                    time.perf_counter() - cut_started
                )
            if not batch:
                return
            # Time spent parked on a full queue is the backpressure the
            # bounded ingestion pipeline exists to apply — worth a series
            # of its own.
            put_started = time.perf_counter()
            await queue.put((venue_id, batch))
            if registry.enabled:
                registry.histogram("trips_live_backpressure_seconds").observe(
                    time.perf_counter() - put_started
                )
                depth_gauge.set(queue.qsize())

    async def consume() -> None:
        while True:
            item = await queue.get()
            depth_gauge.set(queue.qsize())
            if item is _SENTINEL:
                return
            venue_id, records = item
            window = await asyncio.to_thread(
                service.process_window, records, venue_id
            )
            if on_window is not None:
                on_window(window)

    producer_tasks = [
        asyncio.create_task(produce(vid, stream))
        for vid, stream in feed_map.items()
    ]
    producers = asyncio.ensure_future(asyncio.gather(*producer_tasks))
    consumer = asyncio.create_task(consume())

    async def cancel_producers() -> None:
        # gather() with the default return_exceptions=False completes on
        # the first failure but leaves sibling tasks running — cancel the
        # individual tasks, not the (already done) gather future.
        for task in producer_tasks:
            task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await asyncio.gather(*producer_tasks, return_exceptions=True)

    await asyncio.wait(
        {producers, consumer}, return_when=asyncio.FIRST_COMPLETED
    )
    if consumer.done():
        # The consumer only returns on the sentinel, which has not been
        # sent yet — it must have failed.  Unblock and stop the
        # producers, then surface the failure.
        await cancel_producers()
        consumer.result()
        return service.stats  # pragma: no cover - defensive
    try:
        producers.result()
    except BaseException as failure:
        # One feed failed: stop the siblings before re-raising, or they
        # would block forever on a full queue once the consumer exits.
        # The consumer still drains queued windows; if that drain *also*
        # fails, the producer's failure stays the one raised — the drain
        # error is chained as its context instead of replacing it.
        await cancel_producers()
        try:
            await queue.put(_SENTINEL)
            await consumer
        except BaseException as drain_failure:
            if failure.__context__ is None:
                failure.__context__ = drain_failure
        raise
    await queue.put(_SENTINEL)
    await consumer
    return service.stats
