"""The telemetry subsystem: registry algebra, exposition, neutrality.

Three pillars, mirroring the guarantees ``repro.telemetry`` documents:

- **Merge algebra.**  Counter and histogram merges are exact and
  order-independent — the hypothesis suite partitions one observation
  stream across arbitrary worker registries, merges the snapshots in
  shuffled order, and demands bit-for-bit equality with the
  single-registry fold (the same discipline as the ``PartialKnowledge``
  shard-algebra tests).  Thread and process concurrency ride the same
  invariant.
- **Exposition.**  Prometheus text (cumulative buckets, ``+Inf``,
  deduplicated ``TYPE`` lines, label escaping), the JSON snapshot, and
  the live :class:`MetricsServer` endpoints.
- **Exactness neutrality.**  Telemetry observes, it never participates:
  translation output and knowledge are bit-for-bit identical with
  telemetry enabled vs disabled, across every backend.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import random
import threading
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Translator
from repro.core.complementing import ExactSum
from repro.durability import encode
from repro.errors import ConfigError
from repro.knowledge import KnowledgeStore
from repro.live.service import LiveStats, VenueStats
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsServer,
    NullRegistry,
    SPAN_HISTOGRAM,
    get_registry,
    render_json,
    render_prometheus,
    set_registry,
    use_registry,
)

from .conftest import make_two_shop_dsm, stationary_sequence, walk_sequence


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_float_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigError, match="integers"):
            counter.inc(1.5)

    def test_rejects_bool_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigError, match="integers"):
            counter.inc(True)

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigError, match="monotone"):
            counter.inc(-1)

    def test_label_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("c", venue="mall").inc(3)
        registry.counter("c", venue="office").inc(5)
        assert registry.counter("c", venue="mall").value == 3
        assert registry.counter("c", venue="office").value == 5

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counter("c", b="2", a="1").value == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == 12.0


class TestHistogram:
    def test_default_buckets_and_counts(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.bounds == DEFAULT_BUCKETS
        histogram.observe(0.003)
        histogram.observe(0.003)
        histogram.observe(100.0)  # lands in +Inf
        assert histogram.count == 3
        counts = histogram.bucket_counts()
        assert len(counts) == len(DEFAULT_BUCKETS) + 1
        assert sum(counts) == 3
        assert counts[-1] == 1
        assert histogram.max == 100.0
        assert histogram.sum == pytest.approx(100.006)

    def test_bounds_are_inclusive_upper(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts() == [1, 0, 0]
        histogram.observe(1.0000001)
        assert histogram.bucket_counts() == [1, 1, 0]

    def test_custom_bounds_shared_across_label_series(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1.0, 2.0), venue="a")
        second = registry.histogram("h", venue="b")
        assert second.bounds == first.bounds == (1.0, 2.0)

    def test_conflicting_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigError, match="fixed at creation"):
            registry.histogram("h", buckets=(5.0,))

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError, match="strictly increasing"):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigError, match="strictly increasing"):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(ConfigError, match="strictly increasing"):
            registry.histogram("h3", buckets=())


class TestRegistry:
    def test_one_kind_per_name(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigError, match="already registered"):
            registry.gauge("m")
        with pytest.raises(ConfigError, match="already registered"):
            registry.histogram("m")

    def test_instruments_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", x="2")
        registry.counter("a", x="1")
        names = [
            (i.name, i.labels) for i in registry.instruments()
        ]
        assert names == sorted(names)

    def test_str(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        assert "1 counters" in str(registry)


# ----------------------------------------------------------------------
# Snapshot / merge algebra
# ----------------------------------------------------------------------
def observe_all(registry: MetricsRegistry, values) -> None:
    histogram = registry.histogram("h", venue="mall")
    counter = registry.counter("c")
    for value in values:
        histogram.observe(value)
        counter.inc(1)


def exact_fingerprint(registry: MetricsRegistry) -> dict:
    """A histogram's full exact state (partials included, bit-level)."""
    snapshot = registry.snapshot()
    return {
        "counters": sorted(
            (e["name"], tuple(map(tuple, e["labels"])), e["value"])
            for e in snapshot["counters"]
        ),
        "histograms": sorted(
            (
                e["name"],
                tuple(map(tuple, e["labels"])),
                tuple(e["counts"]),
                e["count"],
                # The exact value the partials represent (math.fsum
                # rounds an expansion exactly).
                e["sum"],
                math.fsum(e["sum_partials"]),
                e["max"],
            )
            for e in snapshot["histograms"]
        ),
    }


floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMergeAlgebra:
    @given(
        values=st.lists(floats, min_size=1, max_size=40),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=5),
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partitioned_merge_is_order_independent_and_exact(
        self, values, cuts, order_seed
    ):
        """Any partition of one observation stream across worker
        registries, merged in any order, reproduces the single-registry
        fold bit for bit — counters, bucket counts, and the exact sums
        (the correctly-rounded value every expansion represents)."""
        reference = MetricsRegistry()
        observe_all(reference, values)

        bounds = sorted({cut % (len(values) + 1) for cut in cuts})
        pieces = []
        previous = 0
        for bound in bounds + [len(values)]:
            if bound > previous:
                pieces.append(values[previous:bound])
                previous = bound
        workers = []
        for piece in pieces:
            worker = MetricsRegistry()
            observe_all(worker, piece)
            workers.append(worker.snapshot())

        random.Random(order_seed).shuffle(workers)
        merged = MetricsRegistry()
        for snapshot in workers:
            merged.merge_snapshot(snapshot)

        assert exact_fingerprint(merged) == exact_fingerprint(reference)

    def test_merge_is_exact_where_float_addition_is_not(self):
        """The classic exact-sum witness: values whose naive left-fold
        differs from their exact sum still merge exactly."""
        values = [1e16, 1.0, -1e16, 1.0] * 8
        naive = 0.0
        for value in values:
            naive += value
        exact = ExactSum()
        for value in values:
            exact.add(value)
        assert naive != exact.value  # the witness is real

        left, right = MetricsRegistry(), MetricsRegistry()
        observe_all(left, values[::2])
        observe_all(right, values[1::2])
        merged = MetricsRegistry()
        merged.merge_snapshot(right.snapshot())
        merged.merge_snapshot(left.snapshot())
        assert merged.histogram("h", venue="mall").sum == exact.value

    def test_gauges_merge_by_max(self):
        low, high = MetricsRegistry(), MetricsRegistry()
        low.gauge("depth").set(2.0)
        high.gauge("depth").set(7.0)
        merged = MetricsRegistry()
        merged.merge_snapshot(low.snapshot())
        merged.merge_snapshot(high.snapshot())
        assert merged.gauge("depth").value == 7.0
        merged.merge_snapshot(low.snapshot())  # lower never regresses
        assert merged.gauge("depth").value == 7.0

    def test_snapshot_is_picklable_plain_data(self):
        registry = MetricsRegistry()
        observe_all(registry, [0.5, 3.0])
        with registry.trace("t", venue="mall"):
            pass
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_snapshot_isolation(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        snapshot = registry.snapshot()
        registry.counter("c").inc(10)
        assert snapshot["counters"][0]["value"] == 1


def _worker_snapshot(values: "list[float]") -> dict:
    """Process-pool worker: observe into a private registry, ship the
    snapshot home (workers never share a registry)."""
    registry = MetricsRegistry()
    observe_all(registry, values)
    return registry.snapshot()


class TestConcurrency:
    def test_thread_updates_are_exact(self):
        registry = MetricsRegistry()
        values = [0.001 * i for i in range(400)]
        chunks = [values[i::4] for i in range(4)]
        threads = [
            threading.Thread(target=observe_all, args=(registry, chunk))
            for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        histogram = registry.histogram("h", venue="mall")
        assert histogram.count == 400
        assert registry.counter("c").value == 400
        # Same multiset of observations -> same exact sum, regardless of
        # interleaving (ExactSum is order-independent).
        reference = MetricsRegistry()
        observe_all(reference, values)
        assert histogram.sum == reference.histogram("h", venue="mall").sum

    def test_process_worker_snapshots_merge_exactly(self):
        values = [1e16, 1.0, -1e16, 1.0] * 4 + [0.25, 0.75]
        chunks = [values[i::3] for i in range(3)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=3) as pool:
            snapshots = list(pool.map(_worker_snapshot, chunks))
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        reference = MetricsRegistry()
        observe_all(reference, values)
        assert exact_fingerprint(merged) == exact_fingerprint(reference)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        registry = MetricsRegistry()
        with registry.trace("outer", venue="mall"):
            with registry.trace("inner"):
                pass
        spans = registry.recent_spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        inner, outer = spans
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert inner.duration is not None and inner.duration >= 0.0
        assert outer.labels == {"venue": "mall"}

    def test_spans_feed_the_span_histogram(self):
        registry = MetricsRegistry()
        with registry.trace("phase_one"):
            pass
        histogram = registry.histogram(SPAN_HISTOGRAM, span="phase_one")
        assert histogram.count == 1

    def test_ring_is_bounded(self):
        registry = MetricsRegistry(span_ring=4)
        for index in range(10):
            with registry.trace(f"s{index}"):
                pass
        names = [span.name for span in registry.recent_spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_span_survives_exceptions(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.trace("boom"):
                raise ValueError("x")
        (span,) = registry.recent_spans()
        assert span.name == "boom" and span.duration is not None

    def test_to_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        with registry.trace("t", venue="mall"):
            pass
        (span,) = registry.recent_spans()
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "t"
        assert payload["labels"] == {"venue": "mall"}


# ----------------------------------------------------------------------
# The global registry
# ----------------------------------------------------------------------
class TestGlobalRegistry:
    def test_defaults_to_disabled(self):
        assert isinstance(get_registry(), NullRegistry)
        assert get_registry().enabled is False

    def test_set_and_restore(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
        finally:
            set_registry(None)
        assert isinstance(get_registry(), NullRegistry)
        assert isinstance(previous, NullRegistry)

    def test_use_registry_restores_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(registry):
                assert get_registry() is registry
                raise RuntimeError("x")
        assert isinstance(get_registry(), NullRegistry)

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        null.counter("c", venue="x").inc(5)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(0.5)
        with null.trace("t"):
            pass
        assert null.recent_spans() == []
        assert null.snapshot() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
            "spans": [],
        }
        assert list(null.instruments()) == []
        null.merge_snapshot(MetricsRegistry().snapshot())  # no-op


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestPrometheusText:
    def render(self, registry: MetricsRegistry) -> str:
        return render_prometheus(registry.snapshot())

    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("trips_runs_total", mode="batch").inc(2)
        registry.gauge("trips_depth").set(3.5)
        text = self.render(registry)
        assert "# TYPE trips_runs_total counter" in text
        assert 'trips_runs_total{mode="batch"} 2' in text
        assert "# TYPE trips_depth gauge" in text
        assert "trips_depth 3.5" in text

    def test_type_lines_deduplicated_across_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", venue="a").inc()
        registry.counter("c_total", venue="b").inc()
        text = self.render(registry)
        assert text.count("# TYPE c_total counter") == 1

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(99.0)
        text = self.render(registry)
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="2.0"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text
        assert "h_seconds_sum 101.0" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", venue='mall "north"\n\\x').inc()
        text = self.render(registry)
        assert 'venue="mall \\"north\\"\\n\\\\x"' in text

    def test_render_json_sorted_and_terminated(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        payload = render_json(registry.snapshot())
        assert payload.endswith("\n")
        assert json.loads(payload)["counters"][0]["value"] == 1


class TestMetricsServer:
    def test_serves_text_and_json(self):
        registry = MetricsRegistry()
        registry.counter("trips_runs_total").inc(7)
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.status == 200
                assert "version=0.0.4" in response.headers["Content-Type"]
                text = response.read().decode("utf-8")
            assert "trips_runs_total 7" in text
            with urllib.request.urlopen(f"{base}/metrics.json") as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["counters"][0]["value"] == 7

    def test_scrapes_are_live(self):
        registry = MetricsRegistry()
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            registry.counter("c").inc()
            first = urllib.request.urlopen(f"{base}/metrics.json").read()
            registry.counter("c").inc()
            second = urllib.request.urlopen(f"{base}/metrics.json").read()
        assert json.loads(first)["counters"][0]["value"] == 1
        assert json.loads(second)["counters"][0]["value"] == 2

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope"
                )
            assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# Exactness neutrality: telemetry on/off -> bit-for-bit identical output
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def neutrality_inputs():
    translator = Translator(make_two_shop_dsm())
    sequences = []
    for i in range(4):
        sequences.append(
            stationary_sequence(
                f"dwell-{i}",
                at=(5.0 if i % 2 == 0 else 15.0, 15.0, 1),
                seed=i,
                start=100.0 * i,
            )
        )
    for i in range(3):
        sequences.append(walk_sequence(f"walk-{i}", start=50.0 * i))
    return translator, sequences


@pytest.mark.parametrize("baseline", ["objects", "columnar"])
@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_translation_is_bit_identical_with_telemetry(
    neutrality_inputs, backend, baseline
):
    """The cardinal invariant: telemetry observes, never participates.
    The instrumented engine equals an uninstrumented run — the engine
    itself (``columnar``) and the object-model reference,
    ``Translator.translate_batch`` (``objects``).  The durability codec
    serializes every float bit-exactly, so encoded equality is
    bit-for-bit equality."""
    from repro.engine import Engine, EngineConfig

    translator, sequences = neutrality_inputs
    config = EngineConfig(backend=backend, chunk_size=2, workers=2)

    if baseline == "objects":
        expected = translator.translate_batch(sequences)
    else:
        expected = Engine(translator, config).translate_batch(sequences)
    with use_registry(MetricsRegistry()) as registry:
        instrumented = Engine(translator, config).translate_batch(sequences)
        assert registry.counter(
            "trips_engine_runs_total", mode="batch"
        ).value == 1  # telemetry really was live

    assert instrumented.results == expected.results
    assert encode(instrumented.knowledge) == encode(expected.knowledge)


def test_live_finalize_is_bit_identical_with_telemetry(neutrality_inputs):
    from repro.engine import EngineConfig
    from repro.live import LiveConfig, LiveTranslationService

    translator, sequences = neutrality_inputs
    records = sorted(
        (record for sequence in sequences for record in sequence.records),
        key=lambda record: (record.timestamp, record.device_id),
    )

    def run():
        from repro.positioning import RecordStream

        service = LiveTranslationService(
            {"shop": translator},
            EngineConfig(chunk_size=2),
            LiveConfig(window_seconds=120.0),
        )
        with service:
            service.run_stream(
                RecordStream(iter(records)), venue_id="shop"
            )
            return service.finalize()["shop"]

    baseline = run()
    with use_registry(MetricsRegistry()) as registry:
        instrumented = run()
        assert registry.counter("trips_live_windows_total").value > 0

    assert instrumented.results == baseline.results
    assert encode(instrumented.knowledge) == encode(baseline.knowledge)


@pytest.mark.parametrize("shards", [1, 2])
def test_window_driver_times_every_cut(neutrality_inputs, shards):
    """``run_feeds`` observes one cut latency per window it yields, on
    the single service and the sharded cluster alike."""
    from repro.distributed import ShardedIngestService
    from repro.live import LiveConfig, LiveTranslationService
    from repro.positioning import RecordStream

    translator, sequences = neutrality_inputs
    records = sorted(
        (record for sequence in sequences for record in sequence.records),
        key=lambda record: (record.timestamp, record.device_id),
    )
    live_config = LiveConfig(window_seconds=30.0)
    with use_registry(MetricsRegistry()) as registry:
        if shards == 1:
            service = LiveTranslationService(
                {"shop": translator}, live_config=live_config
            )
        else:
            service = ShardedIngestService(
                {"shop": translator}, shards=shards, live_config=live_config
            )
        with service:
            stats = service.run_feeds({"shop": RecordStream(iter(records))})
        cuts = registry.histogram("trips_live_window_cut_seconds")
        assert stats.windows > 1
        assert cuts.count == stats.windows


def test_knowledge_roll_telemetry(neutrality_inputs):
    translator, sequences = neutrality_inputs
    with use_registry(MetricsRegistry()) as registry:
        store = KnowledgeStore(
            regions=list(translator.knowledge_regions()),
            retention="window:1",
        )
        batch = translator.translate_batch(sequences[:2])
        store.fold(batch.knowledge.to_partial(), start=0.0, end=10.0)
        store.roll()
        batch = translator.translate_batch(sequences[2:4])
        store.fold(batch.knowledge.to_partial(), start=10.0, end=20.0)
        retired = store.roll()
        assert len(retired) == 1
        assert registry.counter("trips_knowledge_rolls_total").value == 2
        assert registry.counter("trips_knowledge_retired_total").value == 1


# ----------------------------------------------------------------------
# Stats tables (satellite: durability columns + stable alignment)
# ----------------------------------------------------------------------
class TestLiveStatsTable:
    def test_wal_and_snapshot_columns_appear_when_nonzero(self):
        stats = LiveStats(
            windows=3, records=10, wal_bytes=2048, snapshots=1
        )
        summary = stats.format_table().splitlines()[0]
        assert "wal=2,048B" in summary
        assert "snapshots=1" in summary

    def test_durability_columns_absent_without_journal(self):
        stats = LiveStats(windows=3, records=10)
        assert "wal=" not in stats.format_table()

    def test_long_venue_names_keep_alignment(self):
        stats = LiveStats(
            venues={
                "mall": VenueStats("mall", windows=1),
                "a-very-long-venue-identifier": VenueStats(
                    "a-very-long-venue-identifier", windows=2
                ),
            }
        )
        lines = stats.format_table().splitlines()[1:]
        # Both rows' window columns start at the same offset: the venue
        # column grew to fit the longest id.
        offsets = {line.index(" windows") for line in lines}
        assert len(offsets) == 1


class TestClusterStatsTable:
    def test_per_shard_epochs_and_durability_columns(self):
        from repro.distributed.service import ClusterStats

        shard = LiveStats(
            windows=2,
            records=5,
            wal_bytes=512,
            snapshots=2,
            venues={"mall": VenueStats("mall", retained_epochs=3)},
        )
        table = ClusterStats(shards=1, per_shard=(shard,)).format_table()
        shard_line = next(
            line for line in table.splitlines() if "shard 0" in line
        )
        assert "3 epochs" in shard_line
        assert "wal=512B" in shard_line
        assert "snapshots=2" in shard_line
