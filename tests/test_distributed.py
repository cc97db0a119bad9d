"""Distributed ingestion: sharded instances and the exact knowledge merge.

The cluster's contract extends the live service's: sharding is a
*partition*, never an approximation.  Whatever device-stable router and
whatever exchange schedule, after a full exchange round every shard's
live knowledge — and the coordinator's merged view — must equal, bit for
bit, the single-instance fold over the same windows, and therefore the
one-shot ``Engine.translate_batch`` knowledge once the feed has drained.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Translator
from repro.distributed import (
    DeviceHashRouter,
    KnowledgeExchange,
    ShardedIngestService,
    VenueAffineRouter,
    parse_shard_router,
    shard_records,
    stable_hash,
)
from repro.durability import encode
from repro.engine import Engine, EngineConfig, ProcessBackend
from repro.errors import ConfigError
from repro.live import LiveConfig, LiveTranslationService
from repro.positioning import RecordStream, sequence_stream, windowed_records

from .conftest import dirty_shop_records, make_two_shop_dsm, shop_records
from .test_live import fuzz_records

WINDOW_SECONDS = 60.0


def make_cluster(shards: int = 2, **kwargs) -> ShardedIngestService:
    defaults = dict(
        engine_config=EngineConfig(chunk_size=2),
        live_config=LiveConfig(window_seconds=WINDOW_SECONDS),
    )
    defaults.update(kwargs)
    return ShardedIngestService(
        {"east": Translator(make_two_shop_dsm())}, shards=shards, **defaults
    )


@pytest.fixture(scope="module")
def reference():
    """The one-shot batch over the same windowed sequence split."""
    sequences = list(
        sequence_stream(RecordStream(iter(shop_records())), WINDOW_SECONDS)
    )
    return Engine(
        Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
    ).translate_batch(sequences)


# ----------------------------------------------------------------------
# Shard routers
# ----------------------------------------------------------------------
class TestRouters:
    def test_stable_hash_is_process_independent(self):
        # Golden value: a salted hash (the builtin) could never pin this.
        assert stable_hash("dwell-0") == stable_hash("dwell-0")
        assert stable_hash("dwell-0") != stable_hash("dwell-1")

    def test_device_hash_router_is_stable_and_in_range(self):
        router = DeviceHashRouter()
        for record in shop_records():
            index = router(record, 4)
            assert 0 <= index < 4
            assert index == router(record, 4)

    def test_device_hash_router_spreads_devices(self):
        router = DeviceHashRouter()
        routed = shard_records(shop_records(), router, 4)
        assert len(routed) > 1  # five devices should not all collide
        # Device affinity: each device appears on exactly one shard.
        for device in {r.device_id for r in shop_records()}:
            shards_of_device = {
                index
                for index, records in routed.items()
                if any(r.device_id == device for r in records)
            }
            assert len(shards_of_device) == 1

    def test_venue_affine_router_pins_a_venue_to_one_shard(self):
        router = VenueAffineRouter()
        tagged = shop_records("mall:") + shop_records("office:")
        indices = {router(r, 4) for r in tagged if r.device_id.startswith("mall:")}
        assert len(indices) == 1
        assert {router(r, 4) for r in tagged} <= set(range(4))

    def test_venue_affine_router_custom_extractor(self):
        router = VenueAffineRouter(venue_of=lambda record: "everything")
        indices = {router(r, 8) for r in shop_records()}
        assert len(indices) == 1

    def test_venue_affine_cluster_pins_tagged_windows(self):
        """Tagged windows (the CLI path, untagged device ids) must pin
        wholesale to the venue's shard — venue affinity cannot depend on
        device-id prefixes the feed does not carry."""
        cluster = make_cluster(shards=4, shard_router="venue")
        with cluster:
            first = cluster.process_window(shop_records(), venue_id="east")
            second = cluster.process_window(
                shop_records(start=700.0), venue_id="east"
            )
        assert len(first.shards) == 1
        assert list(first.shards) == list(second.shards)
        expected = VenueAffineRouter().shard_of_venue("east", 4)
        assert list(first.shards) == [expected]

    def test_parse_shard_router(self):
        assert isinstance(parse_shard_router(None), DeviceHashRouter)
        assert isinstance(parse_shard_router("device"), DeviceHashRouter)
        assert isinstance(parse_shard_router("venue"), VenueAffineRouter)
        custom = lambda record, shards: 0
        assert parse_shard_router(custom) is custom
        with pytest.raises(ConfigError):
            parse_shard_router("round-robin")
        with pytest.raises(ConfigError):
            parse_shard_router(42)

    def test_shard_records_preserves_order_and_rejects_bad_index(self):
        records = shop_records()
        routed = shard_records(records, DeviceHashRouter(), 2)
        for batch in routed.values():
            timestamps = [r.timestamp for r in batch]
            assert timestamps == sorted(timestamps)
        assert sum(len(b) for b in routed.values()) == len(records)
        with pytest.raises(ConfigError):
            shard_records(records, lambda record, shards: shards, 2)


# ----------------------------------------------------------------------
# Construction gates
# ----------------------------------------------------------------------
class TestConstruction:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError):
            make_cluster(shards=0)

    def test_rejects_bad_exchange_interval(self):
        with pytest.raises(ConfigError):
            make_cluster(exchange_interval=0)

    @pytest.mark.parametrize(
        "retention", ["window:2", "decay:4", {"east": "window:300s"}]
    )
    def test_rejects_non_unbounded_retention(self, retention):
        with pytest.raises(ConfigError):
            make_cluster(retention=retention)

    def test_exchange_rejects_retiring_store_at_runtime(self):
        """Hand-assembled shards are guarded too, not just the service."""
        shard = LiveTranslationService(
            {"east": Translator(make_two_shop_dsm())},
            EngineConfig(chunk_size=2),
            retention="window:2",
        )
        with shard:
            shard.process_window(shop_records(), venue_id="east")
            with pytest.raises(ConfigError):
                KnowledgeExchange().exchange([shard])


# ----------------------------------------------------------------------
# The merge hooks underneath the exchange
# ----------------------------------------------------------------------
class TestMergeHooks:
    def test_export_delta_is_exactly_the_folds_in_between(self):
        engine = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        )
        windows = [
            w
            for w in windowed_records(
                RecordStream(iter(shop_records())), WINDOW_SECONDS
            )
        ]
        from repro.positioning import PositioningSequence

        store = engine.make_store()
        engine.translate_increment(
            PositioningSequence.group_records(windows[0]), store=store
        )
        store.roll()
        baseline = store.to_partial()
        for window in windows[1:]:
            engine.translate_increment(
                PositioningSequence.group_records(window), store=store
            )
            store.roll()
        delta = store.export_delta(baseline)
        # The delta alone equals a fresh fold over only the later windows.
        fresh = engine.make_store()
        for window in windows[1:]:
            engine.translate_increment(
                PositioningSequence.group_records(window), store=fresh
            )
            fresh.roll()
        assert delta == fresh.to_partial()
        # And no baseline means the full export.
        assert store.export_delta() == store.to_partial()

    def test_ensure_store_materializes_before_any_window(self):
        service = LiveTranslationService(
            {"east": Translator(make_two_shop_dsm())},
            EngineConfig(chunk_size=2),
        )
        with service:
            assert service.store("east") is None
            store = service.ensure_store("east")
            assert store is not None
            assert store.knowledge.sequences_seen == 0
            assert service.ensure_store("east") is store
            assert service.store("east") is store


# ----------------------------------------------------------------------
# Convergence: the headline invariant
# ----------------------------------------------------------------------
class TestConvergence:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("exchange_interval", [1, 3])
    def test_every_shard_converges_to_single_instance(
        self, shards, exchange_interval, reference
    ):
        cluster = make_cluster(
            shards=shards, exchange_interval=exchange_interval
        )
        with cluster:
            stats = cluster.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            merged = cluster.merged_knowledge("east")
            assert merged == reference.knowledge
            for shard in cluster.shards:
                assert shard.knowledge("east") == merged
        assert stats.records == len(shop_records())
        assert stats.sequences == len(reference.results)
        assert stats.exchange.rounds >= 1

    def test_between_rounds_stale_never_wrong(self, reference):
        """With auto-exchange off, shards hold only their own evidence;
        one manual round converges them."""
        cluster = make_cluster(shards=2, exchange_interval=None)
        with cluster:
            cluster.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            partial_views = [
                shard.knowledge("east").sequences_seen
                for shard in cluster.shards
            ]
            # Each shard saw a strict subset of the devices...
            assert all(0 < seen < len(reference.results) for seen in partial_views)
            assert sum(partial_views) == len(reference.results)
            assert cluster.merged_knowledge("east") is None
            cluster.exchange_now()
            # ...and one round merges them exactly.
            assert cluster.merged_knowledge("east") == reference.knowledge
            for shard in cluster.shards:
                assert shard.knowledge("east") == reference.knowledge

    def test_finalize_matches_single_instance_modulo_order(self, reference):
        cluster = make_cluster(shards=4, exchange_interval=2)
        with cluster:
            cluster.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            finalized = cluster.finalize()["east"]
        order = lambda r: (r.device_id, r.raw.records[0].timestamp)
        assert sorted(finalized.results, key=order) == sorted(
            reference.results, key=order
        )
        assert finalized.knowledge == reference.knowledge

    def test_process_shards_finalize_equals_batch_on_a_dirty_feed(self):
        """Two shards on the ``processes`` backend, on a feed whose
        cleaning repairs records: every phase-one result crosses the
        process boundary in the phase-one codec, and ``finalize()`` still
        equals the one-shot batch translation."""
        records = dirty_shop_records()
        sequences = list(
            sequence_stream(RecordStream(iter(records)), WINDOW_SECONDS)
        )
        reference = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        ).translate_batch(sequences)
        assert sum(r.cleaning.report.repaired_count for r in reference) > 0
        cluster = make_cluster(
            shards=2,
            engine_config=EngineConfig(
                backend="processes", workers=1, chunk_size=2
            ),
        )
        with cluster:
            cluster.run_stream(RecordStream(iter(records)), venue_id="east")
            finalized = cluster.finalize()["east"]
        order = lambda r: (r.device_id, r.raw.records[0].timestamp)
        assert sorted(finalized.results, key=order) == sorted(
            reference.results, key=order
        )
        assert finalized.knowledge == reference.knowledge

    def test_multi_venue_feeds_converge_per_venue(self):
        translators = {
            "east": Translator(make_two_shop_dsm()),
            "west": Translator(make_two_shop_dsm()),
        }
        feeds = {
            "east": shop_records("east:"),
            "west": shop_records("west:", start=30.0),
        }
        references = {
            venue: Engine(
                translators[venue], EngineConfig(chunk_size=2)
            ).translate_batch(
                list(
                    sequence_stream(
                        RecordStream(iter(records)), WINDOW_SECONDS
                    )
                )
            )
            for venue, records in feeds.items()
        }
        cluster = ShardedIngestService(
            translators,
            shards=2,
            engine_config=EngineConfig(chunk_size=2),
            live_config=LiveConfig(window_seconds=WINDOW_SECONDS),
            exchange_interval=2,
        )
        with cluster:
            stats = cluster.run_feeds(
                {v: RecordStream(iter(r)) for v, r in feeds.items()}
            )
            for venue, reference in references.items():
                merged = cluster.merged_knowledge(venue)
                assert merged == reference.knowledge
                for shard in cluster.shards:
                    assert shard.knowledge(venue) == merged
        assert set(stats.exchange.sequences_merged) == {"east", "west"}

    def test_shard_count_change_between_rounds_is_refused(self):
        """The coordinator keeps one aggregate per venue, which every
        shard holds after a round; a shard that joins (or leaves) between
        rounds would break that, so a round over another number of shards
        than the previous one is refused and folds nothing."""
        def make_shard():
            return LiveTranslationService(
                {"east": Translator(make_two_shop_dsm())},
                EngineConfig(chunk_size=2),
                LiveConfig(window_seconds=WINDOW_SECONDS),
            )

        windows = list(
            windowed_records(RecordStream(iter(shop_records())), WINDOW_SECONDS)
        )
        assert len(windows) >= 2
        exchange = KnowledgeExchange()
        incumbent = make_shard()
        newcomer = make_shard()
        with incumbent, newcomer:
            for window in windows[:2]:
                incumbent.process_window(window, venue_id="east")
            first = exchange.exchange([incumbent])
            assert first.deltas == 1
            for window in windows[2:]:
                newcomer.process_window(window, venue_id="east")
            before = encode(incumbent.store("east"))
            with pytest.raises(ConfigError, match="1 shards, not 2"):
                exchange.exchange([incumbent, newcomer])
            assert exchange.stats.rounds == 1
            assert encode(incumbent.store("east")) == before
            # The same shard list as before still exchanges.
            assert exchange.exchange([incumbent]).deltas == 0

    def test_zero_delta_venue_export_is_stable(self):
        """A venue no shard has evidence for exports zero deltas: the
        round folds nothing for it, and repeated rounds leave every
        shard's stores bit-for-bit unchanged."""
        translators = {
            "east": Translator(make_two_shop_dsm()),
            "west": Translator(make_two_shop_dsm()),
        }

        def make_shard():
            return LiveTranslationService(
                translators,
                EngineConfig(chunk_size=2),
                LiveConfig(window_seconds=WINDOW_SECONDS),
            )

        exchange = KnowledgeExchange()
        shards = [make_shard(), make_shard()]
        with shards[0], shards[1]:
            # Evidence reaches only "east"; "west" stays quiet.
            shards[0].process_window(shop_records(), venue_id="east")
            first = exchange.exchange(shards)
            assert set(first.venues) == {"east", "west"}
            assert exchange.stats.sequences_merged["west"] == 0
            west = exchange.merged_partial("west")
            assert west is not None and west.sequences_seen == 0
            before = [
                (s.store("east").to_partial(), s.store("west").to_partial())
                for s in shards
            ]
            # A second all-quiet round is a bit-for-bit no-op.
            second = exchange.exchange(shards)
            assert second.deltas == 0
            after = [
                (s.store("east").to_partial(), s.store("west").to_partial())
                for s in shards
            ]
            assert after == before
            assert shards[0].knowledge("east") == shards[1].knowledge("east")

    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shards=st.sampled_from([2, 4]),
        assignment=st.lists(
            st.integers(min_value=0, max_value=3), min_size=5, max_size=5
        ),
        schedule=st.sets(st.integers(min_value=0, max_value=8)),
    )
    def test_any_device_partition_any_schedule_converges(
        self, shards, assignment, schedule
    ):
        """The tentpole property: ANY device partition (including all
        devices on one shard) under ANY exchange schedule converges,
        after a final round, bit for bit to the one-shot batch fold."""
        records = shop_records()
        devices = sorted({r.device_id for r in records})
        shard_of = {
            device: assignment[i] % shards
            for i, device in enumerate(devices)
        }
        cluster = make_cluster(
            shards=shards,
            shard_router=lambda record, count: shard_of[record.device_id],
            exchange_interval=None,
        )
        reference = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        ).translate_batch(
            list(
                sequence_stream(RecordStream(iter(records)), WINDOW_SECONDS)
            )
        )
        with cluster:
            windows = windowed_records(
                RecordStream(iter(records)), WINDOW_SECONDS
            )
            for index, window in enumerate(windows):
                cluster.process_window(window, venue_id="east")
                if index in schedule:
                    cluster.exchange_now()
            cluster.exchange_now()
            merged = cluster.merged_knowledge("east")
            assert merged == reference.knowledge
            for shard in cluster.shards:
                store = shard.store("east")
                if store is not None:
                    assert store.knowledge == merged


# ----------------------------------------------------------------------
# One window ahead
# ----------------------------------------------------------------------
class TestOneWindowAhead:
    """The driver begins cluster window k+1 — every shard's phase one on
    its own pool — before it finishes window k shard by shard."""

    def test_failing_shard_window_leaves_no_sibling_running(
        self, monkeypatch
    ):
        """Once a shard's window raises, no other shard's window of it
        completes: the error reaches the caller with every shard idle."""

        class Boom(RuntimeError):
            pass

        windows = windowed_records(
            RecordStream(iter(shop_records())), WINDOW_SECONDS
        )
        cluster = make_cluster(shards=2, exchange_interval=None)
        router = cluster.shard_router
        with cluster:
            shared = None
            for window in windows:
                if len(shard_records(window, router, 2)) == 2 and all(
                    shard.store("east") for shard in cluster.shards
                ):
                    shared = window
                    break
                cluster.process_window(window, "east")
            assert shared is not None

            def boom(*args, **kwargs):
                raise Boom("shard 0 failed")

            sibling = cluster.shards[1].store("east")
            roll = sibling.roll

            def slow_roll(*args, **kwargs):
                time.sleep(0.3)
                return roll(*args, **kwargs)

            monkeypatch.setattr(cluster.shards[0].store("east"), "fold", boom)
            monkeypatch.setattr(sibling, "roll", slow_roll)
            before = cluster.shards[1].stats.windows
            with pytest.raises(Boom):
                cluster.process_window(shared, "east")
            time.sleep(0.5)
            assert cluster.shards[1].stats.windows == before

    def test_no_begun_phase_one_outlives_an_error(self, monkeypatch):
        """Shard 0 fails while finishing a window: the window begun
        behind it has every phase-one task cancelled or done by the time
        the error surfaces, and ``close()`` leaves no pool process."""

        class Boom(RuntimeError):
            pass

        submitted = []
        submit = ProcessBackend.submit

        def recording(self, fn, payloads):
            handle = submit(self, fn, payloads)
            submitted.append(handle)
            return handle

        monkeypatch.setattr(ProcessBackend, "submit", recording)
        cluster = make_cluster(
            shards=2,
            engine_config=EngineConfig(
                backend="processes", workers=1, chunk_size=2
            ),
        )
        with cluster:
            store = cluster.shards[0].ensure_store("east")
            fold, folds = store.fold, []

            def failing_fold(*args, **kwargs):
                folds.append(None)
                if len(folds) == 3:
                    raise Boom("third fold")
                return fold(*args, **kwargs)

            monkeypatch.setattr(store, "fold", failing_fold)
            with pytest.raises(Boom):
                cluster.run_stream(
                    RecordStream(iter(shop_records())), venue_id="east"
                )
            finished = sum(shard.stats.windows for shard in cluster.shards)
            assert len(submitted) > finished + 1  # one window was ahead
            assert all(
                future.done()
                for handle in submitted
                for future in handle._futures
            )
            processes = [
                process
                for shard in cluster.shards
                for process in shard._backend._pool._processes.values()
            ]
        assert processes and not any(p.is_alive() for p in processes)

    def test_every_window_matches_the_serial_cluster(self):
        """Two ``processes`` shards, an exchange round after every window,
        a dirty feed with gaps: each window's semantics and complements,
        and every shard's post-round knowledge, equal the ``serial``
        cluster's — window by window, not only at ``finalize()``."""
        records = sorted(
            dirty_shop_records() + fuzz_records(2),
            key=lambda r: (r.timestamp, r.device_id),
        )
        seen = {}
        for backend in ("serial", "processes"):
            cluster = make_cluster(
                shards=2,
                exchange_interval=1,
                engine_config=EngineConfig(
                    backend=backend, workers=1, chunk_size=2
                ),
                live_config=LiveConfig(window_seconds=300.0),
            )
            per_window = seen[backend] = []

            def on_window(window, cluster=cluster, per_window=per_window):
                per_window.append(
                    (
                        window.records,
                        {
                            index: shard.venues["east"].results
                            for index, shard in window.shards.items()
                        },
                        [
                            encode(shard.knowledge("east"))
                            for shard in cluster.shards
                        ],
                    )
                )

            with cluster:
                cluster.run_stream(
                    RecordStream(iter(records)), "east", on_window
                )
        assert len(seen["serial"]) > 2
        assert any(
            result.complement.gaps_found
            for _, shards, _ in seen["serial"]
            for results in shards.values()
            for result in results
        )
        assert seen["processes"] == seen["serial"]


# ----------------------------------------------------------------------
# Stats and window results
# ----------------------------------------------------------------------
class TestClusterStats:
    def test_aggregates_and_renders(self):
        cluster = make_cluster(shards=2, exchange_interval=1)
        with cluster:
            window = cluster.process_window(shop_records(), venue_id="east")
            stats = cluster.stats
        assert window.records == len(shop_records())
        assert window.sequences == sum(
            w.sequences for w in window.shards.values()
        )
        assert window.semantics == sum(
            w.semantics for w in window.shards.values()
        )
        assert window.exchange is not None
        assert stats.windows == 1
        assert stats.records == sum(s.records for s in stats.per_shard)
        assert stats.records_per_second > 0
        assert stats.windows_per_second > 0
        table = stats.format_table()
        assert "cluster: 2 shards" in table
        assert "exchange: 1 rounds" in table
        assert "shard 0" in table
        assert "merged knowledge" in table

    def test_single_shard_cluster_degenerates_to_live_service(self, reference):
        cluster = make_cluster(shards=1, exchange_interval=1)
        with cluster:
            cluster.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            assert cluster.merged_knowledge("east") == reference.knowledge
            assert cluster.shards[0].knowledge("east") == reference.knowledge

    def test_str_forms(self):
        cluster = make_cluster(shards=2)
        assert "2 shards" in str(cluster)
        assert "KnowledgeExchange" in str(cluster.exchange)

    def test_run_stream_equals_run_feeds_over_one_tagged_feed(self):
        finalized, stats = [], []
        for drive in (
            lambda c, s: c.run_stream(s, venue_id="east"),
            lambda c, s: c.run_feeds({"east": s}),
        ):
            cluster = make_cluster(shards=2, exchange_interval=2)
            feed = RecordStream(iter(shop_records()))
            with cluster:
                stats.append(drive(cluster, feed))
                finalized.append(cluster.finalize()["east"])
        assert finalized[0].results == finalized[1].results
        assert finalized[0].knowledge == finalized[1].knowledge
        assert stats[0].windows == stats[1].windows > 1
        assert stats[0].exchange.rounds == stats[1].exchange.rounds

    def test_sharded_service_surface(self):
        """The ratchet: the sync drivers read ``window_bounds``; the
        dead ``shard_of`` stays deleted."""
        public = {
            name for name in dir(ShardedIngestService)
            if not name.startswith("_")
        }
        assert public == {
            "open", "close", "process_window", "exchange_now",
            "window_bounds", "run_stream", "run_feeds", "stats",
            "merged_knowledge", "finalize",
        }
        cluster = make_cluster(shards=2)
        assert cluster.window_bounds("east") == (WINDOW_SECONDS, None)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeSharded:
    def test_serve_with_shards(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.config import SourceConfig, TranslationTaskConfig, save_task
        from repro.dsm import save_dsm

        data = tmp_path / "data"
        data.mkdir()
        code = cli_main(
            ["simulate", "--devices", "3", "--floors", "1",
             "--out", str(data), "--seed", "5"]
        )
        assert code == 0
        config_path = tmp_path / "task.json"
        save_task(
            TranslationTaskConfig(
                dsm_path=str(data / "mall-dsm.json"),
                sources=[SourceConfig("csv", str(data / "positioning.csv"))],
            ),
            config_path,
        )
        out = tmp_path / "served"
        code = cli_main(
            [
                "serve", f"mall={config_path}",
                "--window-seconds", "3600",
                "--shards", "2",
                "--exchange-interval", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cluster: 2 shards" in captured
        assert "finalized mall:" in captured
        assert list((out / "mall").glob("*.json"))

    def test_serve_rejects_bad_shard_flags(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["serve", "v=whatever.json", "--shards", "0"]) == 1
        assert (
            cli_main(
                ["serve", "v=whatever.json", "--shards", "2",
                 "--exchange-interval", "0"]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "--shards" in err
        assert "--exchange-interval" in err

    def test_serve_sharded_rejects_retiring_retention(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main
        from repro.config import SourceConfig, TranslationTaskConfig, save_task

        data = tmp_path / "data"
        data.mkdir()
        assert cli_main(
            ["simulate", "--devices", "1", "--floors", "1",
             "--out", str(data), "--seed", "6"]
        ) == 0
        config_path = tmp_path / "task.json"
        save_task(
            TranslationTaskConfig(
                dsm_path=str(data / "mall-dsm.json"),
                sources=[SourceConfig("csv", str(data / "positioning.csv"))],
            ),
            config_path,
        )
        code = cli_main(
            ["serve", f"mall={config_path}", "--shards", "2",
             "--retention", "window:4"]
        )
        assert code == 1
        assert "unbounded retention" in capsys.readouterr().err
