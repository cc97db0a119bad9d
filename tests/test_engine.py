"""The parallel batch-translation engine.

The engine's contract is strict: for every backend, worker count and chunk
size, its output must be *semantically identical* to the serial
``Translator.translate_batch`` — same per-device results in the same input
order, same shared mobility knowledge — and repeated runs must be
deterministic.  Every comparison here leans on the dataclass equality of
the result objects, which covers cleaning reports, annotations, inferred
complements and confidences field by field.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.columnar import RecordBatch
from repro.core import Translator
from repro.core.translator import BatchStats, BatchTranslationResult, PhaseStats
from repro.engine import engine as engine_module
from repro.engine import (
    BACKENDS,
    DEFAULT_CHUNK_SIZE,
    Engine,
    EngineConfig,
    ProcessBackend,
    SerialBackend,
    SharedValue,
    create_backend,
    iter_chunks,
    partition,
    resolve_shared,
)
from repro.errors import AnnotationError, ConfigError, PersistenceError
from repro.positioning import (
    PositioningSequence,
    RecordStream,
    sequence_stream,
    windowed_sequences,
)

from .conftest import (
    dirty_shop_records,
    make_two_shop_dsm,
    stationary_sequence,
    walk_sequence,
)

ALL_BACKENDS = sorted(BACKENDS)
IN_PROCESS_BACKENDS = [
    name for name in ALL_BACKENDS if not BACKENDS[name].remote
]


@pytest.fixture(scope="module")
def shop_translator():
    return Translator(make_two_shop_dsm())


@pytest.fixture(scope="module")
def shop_sequences():
    """Seven small sequences: dwellers in both shops plus hall walkers."""
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
    return sequences


@pytest.fixture(scope="module")
def shop_serial(shop_translator, shop_sequences):
    return shop_translator.translate_batch(shop_sequences)


def assert_batches_identical(
    batch: BatchTranslationResult, reference: BatchTranslationResult
) -> None:
    assert [r.device_id for r in batch] == [r.device_id for r in reference]
    assert batch.results == reference.results
    assert batch.knowledge == reference.knowledge


# ----------------------------------------------------------------------
# Equivalence: engine output == serial translate_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("chunk_size", [1, 3, 100])
def test_engine_matches_serial_all_backends(
    shop_translator, shop_sequences, shop_serial, backend, chunk_size
):
    engine = Engine(
        shop_translator,
        EngineConfig(backend=backend, workers=2, chunk_size=chunk_size),
    )
    batch = engine.translate_batch(shop_sequences)
    assert_batches_identical(batch, shop_serial)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_engine_worker_counts(
    shop_translator, shop_sequences, shop_serial, workers
):
    engine = Engine(
        shop_translator,
        EngineConfig(backend="processes", workers=workers, chunk_size=2),
    )
    assert_batches_identical(
        engine.translate_batch(shop_sequences), shop_serial
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_engine_matches_serial_mall_population(
    mall3, population, backend
):
    """The acceptance benchmark: mall population, every backend."""
    translator = Translator(mall3)
    sequences = [device.raw for device in population]
    reference = translator.translate_batch(sequences)
    engine = Engine(
        translator, EngineConfig(backend=backend, workers=2, chunk_size=2)
    )
    batch = engine.translate_batch(sequences)
    assert_batches_identical(batch, reference)
    assert batch.total_records == reference.total_records
    assert batch.total_semantics == reference.total_semantics


def test_engine_deterministic_across_runs(shop_translator, shop_sequences):
    engine = Engine(shop_translator, EngineConfig(chunk_size=2))
    first = engine.translate_batch(shop_sequences)
    second = engine.translate_batch(shop_sequences)
    assert_batches_identical(first, second)


def test_engine_streaming_matches_batch(
    shop_translator, shop_sequences, shop_serial
):
    engine = Engine(shop_translator, EngineConfig(chunk_size=2))
    batch = engine.translate_stream(iter(shop_sequences))
    assert_batches_identical(batch, shop_serial)


def test_engine_empty_batch(shop_translator):
    engine = Engine(shop_translator, EngineConfig(backend="serial"))
    batch = engine.translate_batch([])
    reference = shop_translator.translate_batch([])
    assert len(batch) == 0
    assert batch.results == reference.results
    assert batch.knowledge == reference.knowledge
    assert batch.stats.chunk_count == 0


def test_engine_single_sequence(shop_translator, shop_sequences, shop_serial):
    engine = Engine(shop_translator, EngineConfig(chunk_size=1))
    batch = engine.translate_batch(shop_sequences[:1])
    assert batch.results == shop_serial.results[:1]


# ----------------------------------------------------------------------
# The barrier: the engine's shard merge vs the reference's serial rebuild
# ----------------------------------------------------------------------
def _export_bytes(batch: BatchTranslationResult, root) -> dict[str, bytes]:
    """The per-device result files a run would write, keyed by device."""
    root.mkdir(exist_ok=True)
    exported: dict[str, bytes] = {}
    for index, result in enumerate(batch):
        path = root / f"{index}-{result.device_id}.json"
        result.export(path)
        exported[f"{index}-{result.device_id}"] = path.read_bytes()
    return exported


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("chunk_size", [1, 5, 100])
def test_sharded_matches_rebuild_all_backends(
    shop_translator, shop_sequences, shop_serial, backend, chunk_size, tmp_path
):
    """The engine merges per-chunk shards; the reference
    (``Translator.translate_batch``) re-observes every annotated sequence
    serially.  Chunk sizes cover the degenerate (1), prime (5) and
    single-chunk (100 > batch) shardings; results must be byte-identical
    either way."""
    sharded = Engine(
        shop_translator,
        EngineConfig(backend=backend, workers=2, chunk_size=chunk_size),
    ).translate_batch(shop_sequences)
    assert_batches_identical(sharded, shop_serial)
    assert _export_bytes(sharded, tmp_path / "sharded") == _export_bytes(
        shop_serial, tmp_path / "rebuild"
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_sharded_matches_serial_mall_population(mall3, population, backend):
    """The default (sharded) engine still reproduces the serial reference
    on the simulated mall population, where dwell durations are arbitrary
    floats — the exact-accumulation guarantee at work."""
    translator = Translator(mall3)
    sequences = [device.raw for device in population]
    reference = translator.translate_batch(sequences)
    batch = Engine(
        translator, EngineConfig(backend=backend, workers=2, chunk_size=2)
    ).translate_batch(sequences)
    assert_batches_identical(batch, reference)


def test_sharded_is_default_strategy(
    shop_translator, shop_sequences, monkeypatch
):
    """Every phase-one chunk of a batch run is asked for its shard."""
    asked = []
    runner = engine_module.run_phase_one_chunk_columnar

    def watching(translator, chunk, emit_partial=False):
        asked.append(emit_partial)
        return runner(translator, chunk, emit_partial=emit_partial)

    monkeypatch.setattr(
        engine_module, "run_phase_one_chunk_columnar", watching
    )
    batch = Engine(shop_translator, EngineConfig()).translate_batch(
        shop_sequences
    )
    assert asked == [True] * batch.stats.chunk_count
    assert batch.knowledge is not None
    assert batch.knowledge.sequences_seen == len(shop_sequences)


def test_sharded_empty_batch_matches_rebuild(shop_translator):
    sharded = Engine(shop_translator, EngineConfig()).translate_batch([])
    rebuild = shop_translator.translate_batch([])
    assert sharded.results == rebuild.results == []
    assert sharded.knowledge == rebuild.knowledge


def test_sharded_streaming_duplicate_devices(shop_translator):
    """Regression: streaming yields one result per device per window, so a
    device can appear twice; the sharded build must preserve input order
    and by_device's first-match semantics."""
    first = stationary_sequence("dup", at=(5.0, 15.0, 1), seed=1, start=0.0)
    second = stationary_sequence(
        "dup", at=(15.0, 15.0, 1), seed=2, start=1000.0
    )
    records = sorted(
        [*first.records, *second.records], key=lambda r: r.timestamp
    )

    def windowed():
        return sequence_stream(
            RecordStream(iter(records)), window_seconds=500.0
        )

    sharded = Engine(
        shop_translator, EngineConfig(chunk_size=1)
    ).translate_stream(windowed())
    rebuild = shop_translator.translate_batch(list(windowed()))
    assert_batches_identical(sharded, rebuild)
    assert [r.device_id for r in sharded] == ["dup", "dup"]
    # First match wins, and it is the first *window*, not the last.
    hit = sharded.by_device("dup")
    assert hit is sharded.results[0]
    assert hit.raw.records[0].timestamp == records[0].timestamp
    # The shared knowledge saw both windows.
    assert sharded.knowledge.sequences_seen == 2


# ----------------------------------------------------------------------
# Incremental window translation (the live service's unit of work)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reference", ["rebuild", "sharded"])
def test_translate_increment_folds_to_batch_knowledge(
    shop_translator, shop_sequences, shop_serial, reference
):
    """Folding every window's shards reproduces the one-shot batch
    knowledge bit for bit — as the reference rebuilds it serially, and as
    the engine's own batch barrier merges it."""
    engine = Engine(shop_translator, EngineConfig(chunk_size=2))
    one_shot = (
        shop_serial
        if reference == "rebuild"
        else engine.translate_batch(shop_sequences)
    )
    store = engine.make_store()
    window_results = []
    for start in range(0, len(shop_sequences), 2):
        window = shop_sequences[start : start + 2]
        batch = engine.translate_increment(window, store=store)
        assert batch.knowledge is store.knowledge
        window_results.extend(batch.results)
    assert store.knowledge == one_shot.knowledge
    assert [r.device_id for r in window_results] == [
        r.device_id for r in one_shot.results
    ]
    # Re-complementing against the final knowledge reproduces the batch.
    complements = engine.complement(
        [r.annotation.sequence for r in window_results], store.knowledge
    )
    assert complements == [r.complement for r in one_shot.results]


def test_translate_increment_windowed_stream(shop_translator):
    """Increment-per-window over a RecordStream equals translate_stream
    over the same windowed sequences (results aside from complements
    computed against partial knowledge, which finalize reconciles)."""
    records = sorted(
        (
            r
            for i in range(3)
            for r in stationary_sequence(
                f"s-{i}", at=(5.0, 15.0, 1), seed=i, start=200.0 * i
            ).records
        ),
        key=lambda r: (r.timestamp, r.device_id),
    )
    engine = Engine(shop_translator, EngineConfig(chunk_size=2))
    store = engine.make_store()
    count = 0
    for window in windowed_sequences(RecordStream(iter(records)), 100.0):
        count += len(engine.translate_increment(window, store=store))
    reference = engine.translate_stream(
        sequence_stream(RecordStream(iter(records)), 100.0)
    )
    assert count == len(reference)
    assert store.knowledge == reference.knowledge


def test_translate_increment_complementing_disabled(shop_sequences):
    from repro.core import TranslatorConfig

    translator = Translator(
        make_two_shop_dsm(),
        config=TranslatorConfig(enable_complementing=False),
    )
    engine = Engine(translator, EngineConfig())
    store = engine.make_store()
    assert store is None
    batch = engine.translate_increment(shop_sequences[:2], store=store)
    assert batch.knowledge is None
    assert all(r.complement is None for r in batch)


def test_translate_increment_empty_window_still_folds(shop_translator):
    """An empty window folds one empty shard: the counts stay put, but the
    knowledge is marked mutated (generation-keyed caches go stale) and a
    delta-tracking store opens its epoch — the behaviour the live service
    and its journal have always seen."""
    engine = Engine(shop_translator, EngineConfig())
    store = engine.make_store()
    store.track_deltas = True
    generation = store.knowledge.generation
    before = store.to_partial()
    batch = engine.translate_increment([], store=store)
    assert batch.results == []
    assert batch.knowledge is store.knowledge
    assert store.knowledge.generation == generation + 1
    assert store.to_partial() == before
    assert store._current is not None
    assert store._current.sequences_seen == 0


# ----------------------------------------------------------------------
# Shared backends and warm pools
# ----------------------------------------------------------------------
def test_engines_share_one_backend(shop_translator, shop_sequences, shop_serial):
    """Two engines (venue keys) interleave batches on one open pool."""
    backend = create_backend("processes", workers=2)
    backend.open({"east": shop_translator, "west": shop_translator})
    try:
        east = Engine(
            shop_translator,
            EngineConfig(chunk_size=2),
            backend=backend,
            context_key="east",
        )
        west = Engine(
            shop_translator,
            EngineConfig(chunk_size=3),
            backend=backend,
            context_key="west",
        )
        first = east.translate_batch(shop_sequences)
        second = west.translate_batch(shop_sequences)
        third = east.translate_batch(shop_sequences)
    finally:
        backend.close()
    for batch in (first, second, third):
        assert batch.results == shop_serial.results
        assert batch.knowledge == shop_serial.knowledge
    assert first.stats.backend == "processes"


def test_process_pool_stays_warm_across_phases(shop_translator, shop_sequences):
    """The phase-two barrier must not restart the process pool: the
    translator ships once at open, only the knowledge travels after."""
    backend = create_backend("processes", workers=2)
    backend.open({"default": shop_translator})
    try:
        pool = backend._pool
        assert pool is not None
        engine = Engine(
            shop_translator, EngineConfig(chunk_size=2), backend=backend
        )
        batch = engine.translate_batch(shop_sequences)
        assert batch.knowledge is not None  # phase two actually ran
        assert backend._pool is pool  # same pool object: never restarted
        again = engine.translate_batch(shop_sequences)
        assert backend._pool is pool
        assert again.results == batch.results
    finally:
        backend.close()


@pytest.mark.parametrize("backend_name", IN_PROCESS_BACKENDS)
def test_share_and_release_inproc(backend_name):
    backend = create_backend(backend_name, workers=2)
    backend.open(None)
    token = backend.share({"answer": 42})
    assert isinstance(token, SharedValue)
    assert token.kind == "inproc"
    assert resolve_shared(token) == {"answer": 42}
    backend.release(token)
    with pytest.raises(ConfigError):
        resolve_shared(token)
    backend.close()


def test_close_releases_outstanding_tokens():
    backend = create_backend("serial")
    backend.open(None)
    token = backend.share("value")
    backend.close()
    with pytest.raises(ConfigError):
        resolve_shared(token)


def test_share_pickled_resolves_and_caches():
    backend = create_backend("processes", workers=1)
    token = backend.share({"k": [1, 2, 3]})
    assert token.kind == "pickled"
    first = resolve_shared(token)
    assert first == {"k": [1, 2, 3]}
    # Cached per generation: same object back on the second resolve.
    assert resolve_shared(token) is first
    backend.release(token)  # no-op, must not raise


# ----------------------------------------------------------------------
# The process boundary: columns out, the phase-one codec back
# ----------------------------------------------------------------------
class _InlineRemoteBackend(SerialBackend):
    """Serial execution that the engine treats as ``remote``: the wire
    path (columns out, codec back) runs in-process, where a test can
    tamper with it."""

    remote = True


#: Record-level classes whose instances the engine already holds.
RECORD_CLASSES = (
    "RawPositioningRecord", "PositioningSequence", "CleaningResult", "Snippet",
)


@pytest.fixture(scope="module")
def dirty_sequences():
    return PositioningSequence.group_records(dirty_shop_records())


@pytest.fixture(scope="module")
def dirty_serial(shop_translator, dirty_sequences):
    batch = Engine(shop_translator).translate_batch(dirty_sequences)
    # The feed really repairs, so the codec's cleaned-record half crosses.
    assert sum(result.cleaning.report.repaired_count for result in batch) > 0
    return batch


def test_backend_remote_is_a_class_property():
    assert [
        name for name in ALL_BACKENDS if BACKENDS[name].remote
    ] == ["processes"]
    assert "remote" not in inspect.signature(ProcessBackend).parameters


def test_no_record_object_crosses_the_process_boundary(
    shop_translator, dirty_sequences
):
    """The wire task's payload holds columns, its result the phase-one
    codec: no record-level object is pickled either way, the result is
    at most a quarter of the whole ``PhaseOneChunk``'s pickle, and it
    decodes to that chunk against the sequences the engine sent."""
    venues = {"default": shop_translator}
    task = ("default", *RecordBatch.from_sequences(dirty_sequences))
    result = engine_module._phase_one_wire_task(venues, task)
    task_bytes, result_bytes = pickle.dumps(task), pickle.dumps(result)
    assert b"RawPositioningRecord" not in task_bytes
    for name in RECORD_CLASSES:
        assert name.encode() not in result_bytes
    whole = engine_module._phase_one_task(venues, ("default", dirty_sequences))
    assert len(result_bytes) * 4 <= len(pickle.dumps(whole))
    decoded = engine_module._from_wire(
        "default", 0, dirty_sequences, pickle.loads(result_bytes)
    )
    assert decoded == whole
    assert decoded.seconds is not None


@pytest.mark.parametrize("chunk_size", [1, 3])
def test_processes_match_serial_on_a_dirty_feed(
    shop_translator, dirty_sequences, dirty_serial, chunk_size
):
    batch = Engine(
        shop_translator,
        EngineConfig(backend="processes", workers=2, chunk_size=chunk_size),
    ).translate_batch(dirty_sequences)
    assert_batches_identical(batch, dirty_serial)


def test_a_wire_result_that_misfits_its_chunk_is_refused(
    shop_translator, dirty_sequences, dirty_serial, monkeypatch
):
    """A result holding fewer sequences than its chunk sent raises,
    naming the venue and the chunk — never a silent truncation."""
    wire_task = engine_module._phase_one_wire_task
    calls = []

    def dropping_in_chunk_one(venues, payload):
        encoded, partial, seconds = wire_task(venues, payload)
        calls.append(payload)
        return (encoded[:-1] if len(calls) == 2 else encoded), partial, seconds

    backend = _InlineRemoteBackend()
    backend.open({"east": shop_translator})
    with backend:
        engine = Engine(
            shop_translator, EngineConfig(chunk_size=3), backend=backend,
            context_key="east",
        )
        # Untampered, the in-process wire path equals serial.
        assert_batches_identical(
            engine.translate_batch(dirty_sequences), dirty_serial
        )
        monkeypatch.setattr(
            engine_module, "_phase_one_wire_task", dropping_in_chunk_one
        )
        with pytest.raises(
            PersistenceError,
            match=r"venue 'east' phase-one chunk 1 .*2 sequences for 3 raw",
        ):
            engine.translate_batch(dirty_sequences)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_engine_stats_phases(shop_translator, shop_sequences):
    engine = Engine(
        shop_translator,
        EngineConfig(backend="serial", workers=2, chunk_size=3),
    )
    batch = engine.translate_batch(shop_sequences)
    stats = batch.stats
    assert stats.backend == "serial"
    assert stats.workers == 1  # serial validates a pool size, never uses it
    assert stats.chunk_size == 3
    assert stats.chunk_count == 3  # 7 sequences in chunks of 3
    assert [p.name for p in stats.phases] == [
        "clean+annotate",
        "knowledge",
        "complement",
    ]
    assert all(p.items == len(shop_sequences) for p in stats.phases)
    assert stats.phase("knowledge").seconds >= 0.0
    assert stats.total_seconds == pytest.approx(
        sum(p.seconds for p in stats.phases)
    )
    assert "serial" in stats.format_table()
    with pytest.raises(KeyError):
        stats.phase("no-such-phase")


class _AmnesiacBackend(SerialBackend):
    """A backend that forgets its identity once closed.

    Pins the fix for BatchStats being filled from ``backend.name`` /
    ``backend.workers`` *after* ``backend.close()``: the engine must
    capture both before the pool is torn down.
    """

    name = "amnesiac"

    def close(self) -> None:
        super().close()
        self.name = "closed"  # instance attr shadows the class attr
        self.workers = -1


def test_stats_captured_before_backend_close(
    shop_translator, shop_sequences, monkeypatch
):
    monkeypatch.setitem(BACKENDS, _AmnesiacBackend.name, _AmnesiacBackend)
    engine = Engine(shop_translator, EngineConfig(backend="amnesiac"))
    batch = engine.translate_batch(shop_sequences)
    assert batch.stats.backend == "amnesiac"
    assert batch.stats.workers == 1


def test_serial_translate_batch_reports_inline_stats(shop_serial):
    assert shop_serial.stats is not None
    assert shop_serial.stats.backend == "inline"
    assert shop_serial.stats.workers == 1


def test_phase_stats_throughput():
    stats = PhaseStats("clean+annotate", seconds=2.0, items=10)
    assert stats.items_per_second == 5.0
    assert PhaseStats("x", seconds=0.0, items=10).items_per_second == 0.0
    empty = BatchStats(backend="serial", workers=1, chunk_size=1, chunk_count=0)
    assert empty.total_seconds == 0.0


# ----------------------------------------------------------------------
# by_device index
# ----------------------------------------------------------------------
def test_by_device_lookup(shop_serial, shop_sequences):
    for sequence in shop_sequences:
        assert shop_serial.by_device(sequence.device_id).raw is sequence
    with pytest.raises(AnnotationError):
        shop_serial.by_device("no-such-device")


def test_by_device_duplicate_ids_first_match(shop_translator):
    """Streaming yields one result per device per window, so duplicate
    device ids are legal — by_device keeps the first, in iteration order,
    and stays O(1) (no per-call rebuild) despite the duplicates."""
    first = stationary_sequence("dup", at=(5.0, 15.0, 1), seed=1, start=0.0)
    second = stationary_sequence(
        "dup", at=(15.0, 15.0, 1), seed=2, start=1000.0
    )
    batch = shop_translator.translate_batch([first, second])
    assert batch.by_device("dup").raw is first
    assert batch._indexed_count == len(batch.results)
    # A second lookup must not trigger a rebuild.
    index = batch._device_index
    assert batch.by_device("dup").raw is first
    assert batch._device_index is index


def test_by_device_index_tracks_mutation(shop_translator, shop_sequences):
    batch = shop_translator.translate_batch(shop_sequences[:2])
    assert batch.by_device(shop_sequences[0].device_id)
    extra = shop_translator.translate_batch(shop_sequences[2:3])
    batch.results.append(extra.results[0])
    assert (
        batch.by_device(shop_sequences[2].device_id) is extra.results[0]
    )


# ----------------------------------------------------------------------
# Configuration and backend registry
# ----------------------------------------------------------------------
def test_engine_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(backend="bogus")
    with pytest.raises(ConfigError):
        EngineConfig(workers=0)
    with pytest.raises(ConfigError):
        EngineConfig(chunk_size=0)
    assert EngineConfig().chunk_size == DEFAULT_CHUNK_SIZE
    # Serial runs in process; ``processes`` is the only pool.
    with pytest.raises(
        ConfigError, match=r"'threads' \(known: processes, serial\)"
    ):
        EngineConfig(backend="threads")


def test_engine_config_surface():
    """The ratchet: three options, and the removed ones stay removed —
    ``Engine.make_store`` included, which takes no external knowledge,
    and ``Engine.phase_one``."""
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {
        "backend", "workers", "chunk_size",
    }
    for removed in (
        "record_layout", "knowledge_build", "phase_one_cache", "retention",
    ):
        with pytest.raises(TypeError):
            EngineConfig(**{removed: None})
    assert list(inspect.signature(Engine.make_store).parameters) == [
        "self", "retention",
    ]
    # Recovery decodes journaled phase-one output; nothing runs phase
    # one alone any more.
    assert not hasattr(Engine, "phase_one")


def test_create_backend_registry():
    for name in ALL_BACKENDS:
        backend = create_backend(name, workers=2)
        assert backend.name == name
    with pytest.raises(ConfigError):
        create_backend("bogus")
    with pytest.raises(ConfigError):
        create_backend("processes", workers=0)


# Pool workers receive the submitted function by pickle, so it must be a
# module-level function, not a lambda.
def _double(context, payload):
    return payload * 2


def _with_context(context, payload):
    return (context, payload)


def test_pool_backend_requires_open():
    backend = ProcessBackend(workers=2)
    with pytest.raises(ConfigError):
        list(backend.map(_double, [1, 2]))
    backend.open(None)
    assert list(backend.map(_double, [1, 2, 3])) == [2, 4, 6]
    backend.close()


def test_backend_map_preserves_order():
    backend = create_backend("processes", workers=4)
    backend.open("ctx")
    payloads = list(range(50))
    assert list(backend.map(_with_context, payloads)) == [
        ("ctx", p) for p in payloads
    ]
    backend.close()


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def test_partition_shapes():
    assert partition([], 3) == []
    assert partition([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert partition([1, 2, 3], 3) == [[1, 2, 3]]
    assert partition([1, 2], 100) == [[1, 2]]
    assert partition([1, 2, 3], 1) == [[1], [2], [3]]


def test_iter_chunks_is_lazy():
    pulled: list[int] = []

    def source():
        for i in range(10):
            pulled.append(i)
            yield i

    chunks = iter_chunks(source(), 3)
    assert next(chunks) == [0, 1, 2]
    assert pulled == [0, 1, 2]
    assert next(chunks) == [3, 4, 5]
    assert pulled == [0, 1, 2, 3, 4, 5]


def test_iter_chunks_rejects_bad_size():
    with pytest.raises(ConfigError):
        list(iter_chunks([1, 2], 0))
