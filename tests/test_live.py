"""The live streaming translation service.

The service's contract mirrors the engine's: *live* means windowed and
incremental, never approximate.  Replaying a finite stream — any window
size, any backend, tagged or router-dispatched feeds — must, after
``finalize()``, reproduce exactly what ``Engine.translate_batch`` returns
over the same windowed sequences, knowledge bit for bit; and multi-
building dispatch must route every sequence to the correct venue
translator while all venues share one worker pool.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core import Translator
from repro.distributed import ShardedIngestService
from repro.engine import BACKENDS, Engine, EngineConfig
from repro.errors import ConfigError, DispatchError, ViewerError
from repro.live import (
    LiveConfig,
    LiveStats,
    LiveTranslationService,
    VenueDispatcher,
    VenueStats,
    merge_device_results,
    prefix_router,
)
from repro.positioning import (
    RecordStream,
    sequence_stream,
    windowed_records,
)
from repro.viewer import ViewerSession

from .conftest import (
    make_two_shop_dsm,
    shop_records,
    stationary_sequence,
    walk_sequence,
)

ALL_BACKENDS = sorted(BACKENDS)
IN_PROCESS_BACKENDS = [
    name for name in ALL_BACKENDS if not BACKENDS[name].remote
]


def reference_batches(records_by_venue, translators, window_seconds, **engine):
    """Per-venue one-shot batches over the same windowed sequence split."""
    references = {}
    for venue_id, records in records_by_venue.items():
        sequences = list(
            sequence_stream(RecordStream(iter(records)), window_seconds)
        )
        references[venue_id] = Engine(
            translators[venue_id], EngineConfig(**engine)
        ).translate_batch(sequences)
    return references


@pytest.fixture()
def two_venues():
    return {
        "east": Translator(make_two_shop_dsm()),
        "west": Translator(make_two_shop_dsm()),
    }


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def test_dispatcher_single_venue_routes_everything(two_venues):
    dispatcher = VenueDispatcher({"east": two_venues["east"]})
    assert dispatcher.route(shop_records()[0]) == "east"


def test_dispatcher_prefix_routing(two_venues):
    dispatcher = VenueDispatcher(two_venues)
    east = shop_records("east:")[0]
    west = shop_records("west:")[0]
    assert dispatcher.route(east) == "east"
    assert dispatcher.route(west) == "west"
    unprefixed = shop_records()[0]
    with pytest.raises(DispatchError):
        dispatcher.route(unprefixed)
    unknown = replace(unprefixed, device_id="mars:rover")
    with pytest.raises(DispatchError):
        dispatcher.route(unknown)


def test_dispatcher_custom_router(two_venues):
    dispatcher = VenueDispatcher(
        two_venues,
        router=lambda record: "east" if record.timestamp < 100 else "west",
    )
    records = shop_records()
    split = dispatcher.split(records)
    assert list(split) == sorted(split)
    assert sum(len(v) for v in split.values()) == len(records)
    assert split["east"] == [r for r in records if r.timestamp < 100]
    assert split["west"] == [r for r in records if r.timestamp >= 100]


def test_dispatcher_requires_venues():
    with pytest.raises(DispatchError):
        VenueDispatcher({})
    dispatcher = VenueDispatcher({"east": Translator(make_two_shop_dsm())})
    with pytest.raises(DispatchError):
        dispatcher.translator("west")


def test_prefix_router_custom_separator():
    route = prefix_router("/")
    record = replace(shop_records()[0], device_id="mall/dev-1")
    assert route(record) == "mall"


# ----------------------------------------------------------------------
# Equivalence: live replay + finalize == one-shot batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("window_seconds", [40.0, 150.0, 10_000.0])
def test_live_matches_batch_any_window_any_backend(
    two_venues, backend, window_seconds
):
    """The acceptance invariant: any window size, any backend."""
    records = {"east": shop_records(), "west": shop_records(start=37.0)}
    service = LiveTranslationService(
        two_venues,
        EngineConfig(backend=backend, workers=2, chunk_size=2),
        LiveConfig(window_seconds=window_seconds),
    )
    with service:
        for venue_id, venue_records in records.items():
            service.run_stream(
                RecordStream(iter(venue_records)), venue_id=venue_id
            )
        finalized = service.finalize()
    references = reference_batches(
        records, two_venues, window_seconds, chunk_size=2
    )
    for venue_id, reference in references.items():
        assert finalized[venue_id].results == reference.results
        assert finalized[venue_id].knowledge == reference.knowledge


def test_serve_matches_reference(two_venues):
    """``serve`` over tagged feeds finalizes to the one-shot batch over
    the same windowed sequences."""
    records = {"east": shop_records(), "west": shop_records(start=11.0)}
    window_seconds = 60.0
    emitted = []
    service = LiveTranslationService(
        two_venues,
        EngineConfig(chunk_size=2),
        LiveConfig(window_seconds=window_seconds),
    )
    with service:
        stats = service.serve(
            {v: RecordStream(iter(r)) for v, r in records.items()},
            on_window=emitted.append,
        )
        finalized = service.finalize()
    assert stats.windows == len(emitted) > 2
    assert stats.records == sum(len(r) for r in records.values())
    references = reference_batches(
        records, two_venues, window_seconds, chunk_size=2
    )
    for venue_id, reference in references.items():
        assert finalized[venue_id].results == reference.results
        assert finalized[venue_id].knowledge == reference.knowledge


def test_mixed_feed_routes_by_prefix(two_venues):
    """One untagged feed, records interleaved across venues: dispatch
    must deliver every sequence to the right venue translator."""
    east = shop_records("east:")
    west = shop_records("west:", start=13.0)
    mixed = sorted(east + west, key=lambda r: (r.timestamp, r.device_id))
    window_seconds = 75.0
    service = LiveTranslationService(
        two_venues,
        EngineConfig(chunk_size=3),
        LiveConfig(window_seconds=window_seconds),
    )
    with service:
        service.run_stream(RecordStream(iter(mixed)))
        finalized = service.finalize()
    for venue_id, batch in finalized.items():
        assert len(batch) > 0
        assert all(
            result.device_id.startswith(f"{venue_id}:") for result in batch
        )
    # Equivalence holds per venue over the *mixed-feed* windowing: cut the
    # shared windows first, then split each window per venue.
    per_venue: dict[str, list] = {"east": [], "west": []}
    from repro.positioning import PositioningSequence

    for window in windowed_records(RecordStream(iter(mixed)), window_seconds):
        split: dict[str, list] = {}
        for record in window:
            split.setdefault(record.device_id.split(":")[0], []).append(record)
        for venue_id in sorted(split):
            per_venue[venue_id].extend(
                PositioningSequence.group_records(split[venue_id])
            )
    for venue_id, sequences in per_venue.items():
        reference = Engine(
            two_venues[venue_id], EngineConfig(chunk_size=3)
        ).translate_batch(sequences)
        assert finalized[venue_id].results == reference.results
        assert finalized[venue_id].knowledge == reference.knowledge


def test_live_on_simulated_mall(mall3, population):
    """The acceptance benchmark venue: simulated mall crowd replayed
    through the live service reproduces the one-shot batch."""
    translator = Translator(mall3)
    records = sorted(
        (r for device in population for r in device.raw),
        key=lambda r: (r.timestamp, r.device_id),
    )
    window_seconds = 3600.0
    service = LiveTranslationService(
        {"mall": translator},
        EngineConfig(chunk_size=4),
        LiveConfig(window_seconds=window_seconds),
    )
    with service:
        service.run_stream(RecordStream(iter(records)), venue_id="mall")
        finalized = service.finalize()
    sequences = list(
        sequence_stream(RecordStream(iter(records)), window_seconds)
    )
    reference = Engine(translator, EngineConfig(chunk_size=4)).translate_batch(
        sequences
    )
    assert finalized["mall"].results == reference.results
    assert finalized["mall"].knowledge == reference.knowledge


# ----------------------------------------------------------------------
# Layout differential: the live (columnar) path vs the object-model reference
# ----------------------------------------------------------------------
def fuzz_records(seed: int, devices: int = 4, per_device: int = 40):
    """A reproducible random feed: dwell bursts, walks, teleports, floor
    noise and wall-hugging fixes, interleaved into one time-sorted list."""
    import random

    from repro.geometry import Point
    from repro.positioning import RawPositioningRecord

    rng = random.Random(seed)
    edges = [0.0, 8.0, 10.0, 16.0, 20.0, 24.0, 30.0]
    records = []
    for d in range(devices):
        t = rng.uniform(0.0, 60.0)
        x, y = rng.uniform(0.0, 30.0), rng.uniform(0.0, 20.0)
        for _ in range(per_device):
            t += rng.choice([1.0, 5.0, 5.0, 30.0, 130.0])
            move = rng.random()
            if move < 0.5:  # dwell jitter
                x += rng.uniform(-0.4, 0.4)
                y += rng.uniform(-0.4, 0.4)
            elif move < 0.8:  # walk step
                x += rng.uniform(-3.0, 3.0)
                y += rng.uniform(-3.0, 3.0)
            elif move < 0.9:  # snap onto a wall / grid-cell line
                x, y = rng.choice(edges), rng.choice(edges)
            else:  # teleport (speed-infeasible outlier)
                x, y = rng.uniform(-2.0, 32.0), rng.uniform(-2.0, 22.0)
            floor = 1 if rng.random() < 0.9 else 2
            records.append(
                RawPositioningRecord(t, f"fuzz-{d}", Point(x, y, floor))
            )
    return sorted(records, key=lambda r: (r.timestamp, r.device_id))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_layouts_finalize_identically(seed):
    """Differential fuzz: a random feed replayed through the live service
    (columnar windows, incremental folds) finalizes to the results and
    knowledge of the object-model reference, ``Translator.translate_batch``
    over the same windowed sequences — the streaming counterpart of the
    engine-matrix proof."""
    records = fuzz_records(seed)
    translator = Translator(make_two_shop_dsm())
    service = LiveTranslationService(
        {"east": translator},
        EngineConfig(chunk_size=2),
        LiveConfig(window_seconds=120.0),
    )
    with service:
        service.run_stream(RecordStream(iter(records)), venue_id="east")
        finalized = service.finalize()["east"]
    reference = translator.translate_batch(
        list(sequence_stream(RecordStream(iter(records)), 120.0))
    )
    assert finalized.results == reference.results
    assert finalized.knowledge == reference.knowledge
    assert len(finalized.results) > 0


# ----------------------------------------------------------------------
# Driver differential: every entry point cuts the same windows
# ----------------------------------------------------------------------
def finalize_through(driver, translators, feeds, backend, adaptive):
    """Replay ``feeds`` through one service entry point, then finalize."""
    service = LiveTranslationService(
        translators,
        EngineConfig(backend=backend, workers=2, chunk_size=2),
        LiveConfig(window_seconds=60.0, adaptive_windowing=adaptive),
    )
    streams = {venue: RecordStream(iter(r)) for venue, r in feeds.items()}
    with service:
        if driver == "run_stream":
            for venue_id, stream in streams.items():
                service.run_stream(stream, venue_id)
        else:
            getattr(service, driver)(streams)
        return service.finalize()


@pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
def test_drivers_finalize_identically(two_venues, backend, adaptive, tagged):
    """``run_feeds``, per-venue ``run_stream`` and ``serve`` finalize bit
    for bit alike."""
    if tagged:  # bursty feeds, so the adaptive record bound closes cuts
        feeds = {"east": fuzz_records(1), "west": fuzz_records(2)}
    else:
        mixed = shop_records("east:") + shop_records("west:", start=13.0)
        mixed.sort(key=lambda r: (r.timestamp, r.device_id))
        feeds = {None: mixed}  # dispatcher-routed by device-id prefix
    drivers = ["run_feeds", "run_stream", "serve"]
    finalized = {
        driver: finalize_through(driver, two_venues, feeds, backend, adaptive)
        for driver in drivers
    }
    reference = finalized["run_feeds"]
    assert all(len(batch) > 0 for batch in reference.values())
    for driver in drivers[1:]:
        for venue_id, batch in reference.items():
            assert finalized[driver][venue_id].results == batch.results
            assert finalized[driver][venue_id].knowledge == batch.knowledge


def test_live_service_surface():
    """The ratchet: one sync driver entry pair plus ``serve``, and
    ``LiveConfig`` stays at five options."""
    public = {
        name for name in dir(LiveTranslationService)
        if not name.startswith("_")
    }
    assert public == {
        "open", "close", "process_window", "checkpoint", "window_bounds",
        "run_stream", "run_feeds", "serve", "stats", "knowledge", "store",
        "ensure_store", "results", "viewer_session", "finalize",
    }
    assert {f.name for f in fields(LiveConfig)} == {
        "window_seconds", "max_window_records", "retain_results",
        "adaptive_windowing", "snapshot_interval",
    }
    with pytest.raises(TypeError):
        LiveConfig(adaptive_alpha=0.5)


# ----------------------------------------------------------------------
# Incremental fold semantics
# ----------------------------------------------------------------------
def test_knowledge_folds_monotonically(two_venues):
    service = LiveTranslationService(
        {"east": two_venues["east"]}, EngineConfig(), LiveConfig()
    )
    seen = []
    with service:
        for window in windowed_records(
            RecordStream(iter(shop_records())), 60.0
        ):
            service.process_window(window, venue_id="east")
            seen.append(service.knowledge("east").sequences_seen)
    assert seen == sorted(seen)
    assert seen[-1] > seen[0]
    assert service.stats.venues["east"].knowledge_sequences == seen[-1]


def test_per_window_results_are_live_view(two_venues):
    """Per-window emissions complement against knowledge-as-of-window:
    the window batches alias the venue's evolving knowledge object."""
    service = LiveTranslationService(
        {"east": two_venues["east"]}, EngineConfig(), LiveConfig()
    )
    with service:
        windows = [
            service.process_window(window, venue_id="east")
            for window in windowed_records(
                RecordStream(iter(shop_records())), 60.0
            )
        ]
    assert len(windows) > 1
    for window in windows:
        assert window.venues["east"].knowledge is service.knowledge("east")
        assert window.sequences == len(window.venues["east"])
        assert window.semantics == window.venues["east"].total_semantics


def test_stats_accumulate(two_venues):
    records = shop_records()
    service = LiveTranslationService(
        {"east": two_venues["east"]},
        EngineConfig(),
        LiveConfig(window_seconds=60.0),
    )
    with service:
        stats = service.run_stream(
            RecordStream(iter(records)), venue_id="east"
        )
    assert stats.records == len(records)
    assert stats.windows == stats.venues["east"].windows > 1
    assert stats.sequences == stats.venues["east"].sequences
    assert stats.semantics == stats.venues["east"].semantics > 0
    assert stats.elapsed_seconds > 0
    assert stats.windows_per_second > 0
    assert stats.records_per_second > 0
    assert "east" in stats.format_table()


def test_empty_window_is_a_noop(two_venues):
    service = LiveTranslationService(
        {"east": two_venues["east"]}, EngineConfig(), LiveConfig()
    )
    with service:
        window = service.process_window([], venue_id="east")
    assert window.venues == {}
    assert window.records == 0
    assert service.stats.windows == 1
    assert service.stats.records == 0


def test_unbounded_mode_drops_results_but_keeps_knowledge(two_venues):
    service = LiveTranslationService(
        {"east": two_venues["east"]},
        EngineConfig(),
        LiveConfig(window_seconds=60.0, retain_results=False),
    )
    with service:
        service.run_stream(RecordStream(iter(shop_records())), venue_id="east")
        assert service.results("east") == []
        assert service.knowledge("east").sequences_seen > 0
        with pytest.raises(ConfigError):
            service.finalize()


def test_serve_failing_feed_stops_siblings(two_venues):
    """A feed whose iterator dies mid-stream surfaces its error at once;
    the windows translated before it stay counted."""

    class Boom(RuntimeError):
        pass

    def broken():
        yield from shop_records()[:20]
        raise Boom("feed died")

    service = LiveTranslationService(
        two_venues,
        EngineConfig(),
        LiveConfig(window_seconds=30.0),
    )
    emitted = []
    with service:
        with pytest.raises(Boom):
            service.serve(
                {
                    "east": RecordStream(broken()),
                    "west": RecordStream(iter(shop_records(start=5.0))),
                },
                on_window=emitted.append,
            )
    # Whatever was translated before the failure is still accounted for.
    assert service.stats.windows == len(emitted) >= 1


def test_serve_unroutable_record_fails_loudly(two_venues):
    """A record routed to an unknown venue raises ``DispatchError``."""
    service = LiveTranslationService(
        two_venues, EngineConfig(), LiveConfig(window_seconds=60.0)
    )
    with service:
        with pytest.raises(DispatchError):
            service.serve(RecordStream(iter(shop_records())))


# ----------------------------------------------------------------------
# One window ahead: failures and cuts on pools
# ----------------------------------------------------------------------
def pool_service(kind, translators, live_config):
    """A ``processes`` service, or a 2-shard cluster of them."""
    engine = EngineConfig(backend="processes", workers=1)
    if kind == "processes":
        return LiveTranslationService(translators, engine, live_config)
    return ShardedIngestService(
        translators, shards=2, engine_config=engine, live_config=live_config
    )


def pool_processes(service):
    """Every worker process of the service's (or its shards') pools."""
    return [
        process
        for shard in getattr(service, "shards", [service])
        for process in shard._backend._pool._processes.values()
    ]


@pytest.mark.parametrize("kind", ["processes", "sharded-processes"])
def test_pool_failing_feed_stops_siblings(two_venues, kind):
    """A feed dying while the window before it is still in flight: that
    window is finished and emitted before the error surfaces, and
    ``close()`` leaves no pool process alive."""

    class Boom(RuntimeError):
        pass

    def broken():
        yield from shop_records()[:20]
        raise Boom("feed died")

    service = pool_service(kind, two_venues, LiveConfig(window_seconds=30.0))
    emitted = []
    with service:
        with pytest.raises(Boom):
            service.run_feeds(
                {
                    "east": RecordStream(broken()),
                    "west": RecordStream(iter(shop_records(start=5.0))),
                },
                on_window=emitted.append,
            )
        processes = pool_processes(service)
    assert service.stats.windows == len(emitted) >= 1
    assert processes and not any(p.is_alive() for p in processes)


@pytest.mark.parametrize("kind", ["processes", "sharded-processes"])
def test_pool_unroutable_record_fails_loudly(two_venues, kind):
    """A record routed to an unknown venue raises ``DispatchError`` in
    the begin of its window, after the window ahead of it is emitted."""
    records = shop_records("east:")
    last = records[-1]
    records.append(
        replace(last, device_id="mars:rover", timestamp=last.timestamp + 1)
    )
    service = pool_service(kind, two_venues, LiveConfig(window_seconds=60.0))
    emitted = []
    with service:
        with pytest.raises(DispatchError):
            service.run_feeds(
                {None: RecordStream(iter(records))}, on_window=emitted.append
            )
        processes = pool_processes(service)
    assert service.stats.windows == len(emitted) >= 1
    assert not any(p.is_alive() for p in processes)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_adaptive_cuts_do_not_move_one_window_ahead(two_venues, backend):
    """Bursty tagged feeds under adaptive windowing: the driver, which
    begins window k+1 before finishing window k, cuts exactly the
    windows of a loop that translates each window before the next cut.
    West runs dry first, so east's later windows are cut while east's
    own previous window is still ahead."""
    feeds = {"east": fuzz_records(1), "west": fuzz_records(2, per_device=8)}
    config = LiveConfig(window_seconds=60.0, adaptive_windowing=True)
    engine = EngineConfig(backend=backend, workers=1, chunk_size=2)

    def cut_then_translate(service):
        active = {v: RecordStream(iter(r)) for v, r in feeds.items()}
        while active:
            for venue_id in sorted(active):
                seconds, bound = service.window_bounds(venue_id)
                records = active[venue_id].take_window(seconds, bound)
                if not records:
                    del active[venue_id]
                    continue
                yield venue_id, service.process_window(records, venue_id)

    cuts = {}
    for driver in ("ahead", "in turn"):
        service = LiveTranslationService(two_venues, engine, config)
        with service:
            if driver == "ahead":
                windows = []
                service.run_feeds(
                    {v: RecordStream(iter(r)) for v, r in feeds.items()},
                    on_window=windows.append,
                )
                cuts[driver] = [
                    (venue_id, window.records)
                    for window in windows
                    for venue_id in window.venues
                ]
            else:
                cuts[driver] = [
                    (venue_id, window.records)
                    for venue_id, window in cut_then_translate(service)
                ]
            targets = {
                v: s.window_records_target
                for v, s in service.stats.venues.items()
            }
        cuts[driver].append(targets)
    assert cuts["ahead"] == cuts["in turn"]
    assert len({count for _, count in cuts["ahead"][:-1]}) > 1


@pytest.mark.parametrize("stop", [3, 6, 9])
def test_adaptive_cuts_survive_wal_replay(two_venues, tmp_path, stop):
    """ROADMAP item 15(a): bursty tagged feeds under adaptive windowing,
    closed after ``stop`` windows with no snapshot on disk, reopened and
    resumed.  Recovery replays the WAL tail alone, and it must leave each
    venue's EWMA and record target where the uninterrupted run had them:
    every venue's per-window record counts, and the final (EWMA, target),
    equal the uninterrupted run's."""
    feeds = {"east": fuzz_records(1), "west": fuzz_records(2, per_device=8)}
    config = LiveConfig(
        window_seconds=60.0, adaptive_windowing=True, snapshot_interval=1000
    )

    def run(service, start, end=None):
        """Drive each venue's records ``[start, end)``; return the
        windows' (venue, records) in driver order and each venue's final
        (EWMA, target)."""
        cuts = []
        service.run_feeds(
            {
                venue: RecordStream(
                    iter(records[start[venue]:(end or {}).get(venue)])
                )
                for venue, records in feeds.items()
            },
            on_window=lambda window: cuts.extend(
                (venue, window.records) for venue in window.venues
            ),
        )
        adaptive = {
            venue: (state.ewma_rate, state.stats.window_records_target)
            for venue, state in service._states.items()
        }
        return cuts, adaptive

    def per_venue(cuts):
        return {v: [count for u, count in cuts if u == v] for v in feeds}

    origin = {venue: 0 for venue in feeds}
    with LiveTranslationService(two_venues, EngineConfig(), config) as service:
        cuts, adaptive = run(service, origin)
    # The first ``stop`` windows are each venue's leading windows, in the
    # driver's order: truncating each feed after them cuts them again.
    prefix = dict(origin)
    for venue, count in cuts[:stop]:
        prefix[venue] += count

    state_dir = tmp_path / "state"
    with LiveTranslationService(
        two_venues, EngineConfig(), config, state_dir=state_dir
    ) as first:
        before, _ = run(first, origin, prefix)
    assert before == cuts[:stop]
    assert not (state_dir / "snapshot.json").exists()
    with LiveTranslationService(
        two_venues, EngineConfig(), config, state_dir=state_dir
    ) as second:
        assert second.stats.windows == stop
        after, resumed = run(second, prefix)
    assert per_venue(before + after) == per_venue(cuts)
    assert resumed == adaptive
    assert len({count for _, count in cuts}) > 1


def test_import_leaves_asyncio_out():
    """No module of the package imports :mod:`asyncio`: every window
    driver runs on the calling thread."""
    import repro

    source_root = str(Path(repro.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.cli, repro.distributed, repro.live; "
            "print('asyncio' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert probe.stdout.strip() == "False"


def test_live_config_validation():
    with pytest.raises(ConfigError):
        LiveConfig(window_seconds=0.0)
    with pytest.raises(ConfigError):
        LiveConfig(max_window_records=0)
    with pytest.raises(ConfigError):
        LiveConfig(snapshot_interval=0)


def test_single_translator_shorthand():
    translator = Translator(make_two_shop_dsm())
    service = LiveTranslationService(translator)
    with service:
        service.run_stream(RecordStream(iter(shop_records())))
        finalized = service.finalize()
    assert set(finalized) == {"default"}
    assert len(finalized["default"]) > 0


# ----------------------------------------------------------------------
# Viewer over accumulating live results
# ----------------------------------------------------------------------
def test_viewer_session_from_live_merges_windows(two_venues):
    service = LiveTranslationService(
        {"east": two_venues["east"]},
        EngineConfig(),
        LiveConfig(window_seconds=60.0),
    )
    with service:
        service.run_stream(RecordStream(iter(shop_records())), venue_id="east")
        results = service.results("east")
        session = service.viewer_session("east", "dwell-0")
    windows = [r for r in results if r.device_id == "dwell-0"]
    assert len(windows) > 1
    merged = session.result
    assert merged.device_id == "dwell-0"
    assert len(merged.raw) == sum(len(w.raw) for w in windows)
    assert len(merged.semantics) == sum(len(w.semantics) for w in windows)
    assert merged.cleaning.report.total_records == len(merged.raw)
    # The merged session renders and animates like any other.
    assert len(session.animate(step_seconds=30.0)) > 0
    assert session.render() is not None


def test_merge_device_results_offsets_report_indexes(two_venues):
    service = LiveTranslationService(
        {"east": two_venues["east"]},
        EngineConfig(),
        LiveConfig(window_seconds=60.0),
    )
    with service:
        service.run_stream(RecordStream(iter(shop_records())), venue_id="east")
        results = service.results("east")
    merged = merge_device_results(results, "walk-0")
    windows = [r for r in results if r.device_id == "walk-0"]
    assert merged.cleaning.report.total_records == sum(
        w.cleaning.report.total_records for w in windows
    )
    assert all(
        0 <= i < len(merged.raw)
        for i in merged.cleaning.report.invalid_indexes
    )
    assert len(merged.annotation.snippets) == sum(
        len(w.annotation.snippets) for w in windows
    )
    with pytest.raises(ViewerError):
        merge_device_results(results, "no-such-device")


def test_from_live_single_window_passthrough(two_venues):
    translator = two_venues["east"]
    batch = translator.translate_batch([stationary_sequence("solo")])
    session = ViewerSession.from_live(
        translator.model, batch.results, "solo"
    )
    assert session.result is batch.results[0]


# ----------------------------------------------------------------------
# LiveStats rendering
# ----------------------------------------------------------------------
class TestLiveStatsFormatTable:
    def test_empty_stats_render_with_zero_rates(self):
        stats = LiveStats()
        table = stats.format_table()
        assert "windows=0" in table
        assert "records=0" in table
        assert "0.00 windows/s" in table
        assert stats.windows_per_second == 0.0
        assert stats.records_per_second == 0.0

    def test_rates_derive_from_elapsed(self):
        stats = LiveStats(windows=3, records=1200, elapsed_seconds=2.0)
        assert stats.windows_per_second == 1.5
        assert stats.records_per_second == 600.0
        assert "1.50 windows/s" in stats.format_table()

    def test_venue_rows_sorted_with_lifecycle_columns(self):
        stats = LiveStats(
            windows=4,
            records=900,
            sequences=12,
            semantics=30,
            translate_seconds=0.8,
            elapsed_seconds=3.0,
            venues={
                "zoo": VenueStats(
                    "zoo", windows=1, records=100, sequences=2, semantics=5,
                    knowledge_sequences=2, translate_seconds=0.1,
                    retained_epochs=1,
                ),
                "arena": VenueStats(
                    "arena", windows=3, records=800, sequences=10,
                    semantics=25, knowledge_sequences=7.5,
                    translate_seconds=0.7, retained_epochs=3,
                ),
            },
        )
        table = stats.format_table()
        lines = table.splitlines()
        assert len(lines) == 3  # summary + one row per venue
        # Venues render in sorted order regardless of dict order.
        assert lines[1].strip().startswith("arena")
        assert lines[2].strip().startswith("zoo")
        # Lifecycle columns: decayed float weights render compactly,
        # retained epochs are visible per venue.
        assert "knowledge over 7.5 sequences" in lines[1]
        assert "(3 epochs)" in lines[1]
        assert "0.70s translate" in lines[1]
        # No adaptive target -> no window<= suffix.
        assert "window<=" not in table

    def test_adaptive_target_suffix_renders_when_set(self):
        stats = LiveStats(
            windows=1,
            records=50,
            elapsed_seconds=1.0,
            venues={
                "mall": VenueStats(
                    "mall", windows=1, records=50, sequences=1,
                    window_records_target=640,
                )
            },
        )
        assert "window<=640 records" in stats.format_table()
