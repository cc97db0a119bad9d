"""The window driver: one sync round-robin loop for every entry point.

:func:`run_feeds` replays feeds on the calling thread — ``serve``,
every ``run_stream`` / ``run_feeds`` call and ``trips serve``, single
instance or sharded cluster.  Each pass cuts one time/count-bounded
window per still-live feed, in sorted venue order, and *begins* it
(route, group, and on a pool hand its phase one to the workers) before
it *finishes* the window cut before it (fold, roll, complement,
journal, emit): the pool cleans and annotates one window while the
calling thread finishes the last.  Windows finish in cut order, and
every bound is read with every earlier window observed, a begun one
included (see ``window_bounds``), so the cuts are a function of the
feeds alone.

Tagged feeds (``{venue_id: RecordStream}``) skip per-record routing —
every window carries its venue id; a single untagged feed (the ``None``
key) is routed record by record through the service's dispatcher.  A
failure — a feed that raises, a record routed to an unknown venue —
propagates once the window begun before it is finished and emitted; a
window begun behind a failure is abandoned, its queued phase-one chunks
cancelled and its running ones waited out.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Union

from ..positioning import RecordStream
from ..telemetry import get_registry

#: What :meth:`LiveTranslationService.serve` accepts: one untagged feed
#: (dispatcher-routed) or a map of venue-tagged feeds.
FeedSet = Union[RecordStream, Mapping[str, RecordStream]]


def run_feeds(
    service: Any,
    feeds: "Mapping[str | None, RecordStream]",
    on_window: "Callable[[Any], None] | None" = None,
) -> None:
    """Cut one window per still-live feed per pass, in sorted venue
    order, with bounds re-read from ``service.window_bounds`` before
    every cut, until every feed is exhausted, finishing each window once
    the next has begun.  ``service`` is the live service or the sharded
    cluster; a ``None`` key is an untagged feed.
    """
    registry = get_registry()
    timed = registry.enabled
    cut_seconds = registry.histogram("trips_live_window_cut_seconds")
    active = dict(feeds)
    ahead = None  # begun, not yet finished; abandoned on any failure

    def advance(begun) -> None:  # finish the window ahead; begun replaces it
        nonlocal ahead
        pending, ahead = ahead, begun
        if pending is not None:
            window = service._finish_window(pending)
            if on_window is not None:
                on_window(window)

    try:
        while active:
            for venue_id in sorted(active):
                try:
                    seconds, max_records = service.window_bounds(venue_id)
                    cut_started = time.perf_counter() if timed else 0.0
                    records = active[venue_id].take_window(
                        seconds, max_records
                    )
                    if not records:
                        del active[venue_id]
                        continue
                    if timed:
                        cut_seconds.observe(
                            time.perf_counter() - cut_started
                        )
                    begun = service._begin_window(records, venue_id)
                except BaseException:
                    advance(None)  # what was cut before the failure
                    raise
                advance(begun)
        advance(None)
    finally:
        if ahead is not None:
            service._abandon_window(ahead)
