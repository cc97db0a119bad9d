"""The parallel batch-translation engine.

``Translator.translate_batch`` is two-phase, and phase one (clean +
annotate) is embarrassingly parallel per sequence; only the mobility
knowledge build genuinely needs the whole batch ("referring to other
generated mobility semantics sequences", paper §3).  The :class:`Engine`
exploits exactly that structure:

1. partition the batch into chunks and fan phase one out across an
   :class:`~repro.engine.backends.ExecutionBackend` worker pool;
2. run the global knowledge build as the barrier phase on the caller;
3. fan phase two (complementing) back out over the same pool;
4. merge everything **in input order**, so the output is identical to the
   serial ``Translator.translate_batch`` — same results, same knowledge,
   just faster.

:meth:`Engine.translate_stream` accepts any iterator of sequences and
chunks it lazily, so a live feed (see
:func:`repro.positioning.stream.sequence_stream`) can be translated
without materializing the full batch before phase one starts.
:meth:`Engine.translate_increment` is the truly-online shape: it
translates one bounded stream window and **folds** the window's
:class:`~repro.core.complementing.PartialKnowledge` into long-running
knowledge instead of rebuilding — the unit of work of the live streaming
service in :mod:`repro.live`.  That long-running knowledge is owned by a
:class:`~repro.knowledge.KnowledgeStore` (see :meth:`Engine.make_store`
and ``EngineConfig.retention``): folds go through the store, and the
store's retention policy — unbounded, sliding-window, or exponential
decay — decides at each epoch roll what the prior keeps remembering.

Knowledge build strategies
--------------------------

The barrier in step 2 supports two strategies
(``EngineConfig.knowledge_build``), both producing byte-identical
knowledge and results:

- ``"sharded"`` (default) — each phase-one worker also aggregates its
  chunk's :class:`~repro.core.complementing.PartialKnowledge` shard (raw
  transition counts, outgoing totals, per-region stats); the barrier then
  merges the shards in O(#regions + #edges) per chunk.  The knowledge
  build scales out with phase one instead of re-observing every sequence
  on one core, so the ``knowledge`` phase in :class:`BatchStats` reports
  pure merge time.
- ``"rebuild"`` — the pre-sharding behaviour: the caller re-observes every
  annotated sequence serially at the barrier.  Kept as the reference path
  and for A/B benchmarks (``benchmarks/bench_knowledge_shard.py``).

Sharding is exact, not approximate: dwell totals accumulate through
:class:`~repro.core.complementing.ExactSum`, so the merged aggregates are
bit-for-bit independent of the chunking.

Warm pools and shared backends
------------------------------

Worker pools stay warm across phases: the backend context installed at
``open`` is a **venue map** ``{context_key: translator}``, shipped to each
worker once at pool startup, and the phase-two knowledge travels through
the backend's generation-keyed :meth:`~ExecutionBackend.share` channel —
pickled once, cached per worker — instead of restarting the pool at the
barrier.  Because the context is a map, several engines (one per venue,
each with its own ``context_key``) can share a single externally-managed
backend: pass ``backend=`` to the constructor and the engine maps its
phases onto that pool without opening or closing it.  This is how the
live service in :mod:`repro.live` serves heterogeneous multi-building
traffic from one worker pool.

Phase-one caching
-----------------

``EngineConfig.phase_one_cache`` (off by default) memoizes clean+annotate
per ``(device id, records)`` in a small engine-owned LRU.  Re-translating
the same sequences — overlapping stream windows, or a re-run after
tweaking the complementing config — then skips phase one entirely for the
cached sequences while still producing the exact batch output (phase one
is deterministic per sequence).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial as _bind
from typing import Iterable, Iterator, Mapping

from ..columnar import run_phase_one_chunk_columnar
from ..core.complementing import (
    ComplementResult,
    MobilityKnowledge,
    PartialKnowledge,
)
from ..core.semantics import MobilitySemanticsSequence
from ..core.translator import (
    BatchStats,
    BatchTranslationResult,
    PhaseOneChunk,
    PhaseStats,
    Translator,
    assemble_results,
    build_batch_knowledge,
    build_partial_knowledge,
    gapless_complements,
    run_phase_one_chunk,
    run_phase_two_chunk,
)
from ..errors import ConfigError
from ..knowledge import KnowledgeStore, parse_retention
from ..positioning import PositioningSequence
from ..telemetry import get_registry
from .backends import (
    BACKENDS,
    ExecutionBackend,
    create_backend,
    resolve_shared,
)
from .chunking import iter_chunks, partition

#: Default sequences per chunk: coarse enough to amortize dispatch,
#: fine enough to load-balance uneven sequence lengths.
DEFAULT_CHUNK_SIZE = 8

#: The two barrier strategies; both yield byte-identical knowledge.
KNOWLEDGE_BUILDS = ("rebuild", "sharded")

#: Phase-one record layouts; both produce bit-for-bit identical output
#: (``tests/test_columnar_equivalence.py`` is the proof).  ``"columnar"``
#: is the default pipeline; ``"objects"`` is the reference oracle the
#: differential suites and the ledger's digest checks compare against.
RECORD_LAYOUTS = ("objects", "columnar")


def _default_record_layout() -> str:
    """Engine default layout, overridable via ``TRIPS_RECORD_LAYOUT``.

    The environment override is what makes CI's ``record-layout: objects``
    matrix leg honest: the whole tier-1 suite runs its engines on the
    object-model oracle without every test naming the layout explicitly.
    """
    return os.environ.get("TRIPS_RECORD_LAYOUT", "columnar")

#: Context key of a stand-alone engine in its single-entry venue map.
DEFAULT_CONTEXT_KEY = "default"


def _phase_one_task(
    venues: Mapping[str, Translator],
    payload: tuple[str, list[PositioningSequence]],
    emit_partial: bool = False,
    record_layout: str = "columnar",
) -> PhaseOneChunk:
    """Phase-one worker task: resolve the venue translator, run the chunk.

    The context is a venue map so one pool can serve several translators;
    a stand-alone engine opens the map with a single entry.
    ``record_layout`` picks the columnar kernels (the default) or the
    per-record object pipeline — both produce identical chunks, so the
    choice is invisible to everything past this dispatch.
    """
    key, chunk = payload
    started = time.perf_counter()
    if record_layout == "columnar":
        result = run_phase_one_chunk_columnar(
            venues[key], chunk, emit_partial=emit_partial
        )
    else:
        result = run_phase_one_chunk(
            venues[key], chunk, emit_partial=emit_partial
        )
    # Worker-side timing rides home on the chunk itself: with the
    # ``processes`` backend there is no shared registry, so the float on
    # the result is how per-chunk telemetry crosses the process boundary.
    return replace(result, seconds=time.perf_counter() - started)


def _phase_two_task(
    venues: Mapping[str, Translator],
    payload: "tuple[str, object, list[MobilitySemanticsSequence]]",
) -> "tuple[float, list[ComplementResult]]":
    """Phase-two worker task bound to shared knowledge.

    The knowledge travels as a :class:`~repro.engine.backends.SharedValue`
    token — published once by the caller, resolved (and cached) per
    worker — so the translator installed at pool startup is never
    re-shipped at the barrier.  Because the resolved knowledge object is
    cached per worker, the compiled transition model the chunk runner
    attaches to it (``run_phase_two_chunk`` → ``prime()``) is cached
    right alongside: a process worker compiles once on its first chunk
    and every later chunk of the same generation reuses the tables.
    In-process backends share one knowledge object, so they share one
    compiled model the same way.  Returns ``(worker seconds,
    complements)``; like phase one, the timing crosses the process
    boundary on the result because workers have no shared registry.
    """
    key, token, chunk = payload
    started = time.perf_counter()
    knowledge = resolve_shared(token)
    results = run_phase_two_chunk(venues[key], (knowledge, chunk))
    return time.perf_counter() - started, results


@dataclass(frozen=True)
class EngineConfig:
    """How the engine partitions and executes a batch.

    ``retention`` is the knowledge-lifecycle spec consumed by
    :meth:`Engine.make_store` — ``"unbounded"`` (default, fold forever),
    ``"window:N"`` / ``"window:Ns"`` (sliding window by epoch count /
    data-time TTL) or ``"decay:H"`` (exponential decay, half-life in
    epoch rolls); see :func:`repro.knowledge.parse_retention`.  It only
    shapes store-based incremental translation (the live service rolls
    one epoch per ingestion window); one-shot batch translation always
    builds the full-batch knowledge.
    """

    backend: str = "serial"
    workers: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    knowledge_build: str = "sharded"
    phase_one_cache: int = 0
    retention: str = "unbounded"
    #: Phase-one record layout: ``"columnar"`` (flat-array kernels, the
    #: default) or ``"objects"`` (the per-record reference pipeline,
    #: bit-for-bit identical output).  ``TRIPS_RECORD_LAYOUT`` overrides
    #: the default when set.
    record_layout: str = field(default_factory=_default_record_layout)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            raise ConfigError(
                f"unknown execution backend {self.backend!r} (known: {known})"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise ConfigError(
                f"chunk size must be >= 1, got {self.chunk_size}"
            )
        if self.knowledge_build not in KNOWLEDGE_BUILDS:
            known = ", ".join(KNOWLEDGE_BUILDS)
            raise ConfigError(
                f"unknown knowledge build strategy "
                f"{self.knowledge_build!r} (known: {known})"
            )
        if self.phase_one_cache < 0:
            raise ConfigError(
                f"phase-one cache size must be >= 0, got "
                f"{self.phase_one_cache}"
            )
        if self.record_layout not in RECORD_LAYOUTS:
            known = ", ".join(RECORD_LAYOUTS)
            raise ConfigError(
                f"unknown record layout {self.record_layout!r} "
                f"(known: {known})"
            )
        parse_retention(self.retention)  # validate the spec eagerly


def _phase_one_cache_key(sequence: PositioningSequence) -> tuple:
    """Exact memoization key: device id plus every record's coordinates.

    The full coordinate tuple (not a hash digest) is used so lookups can
    never collide; the LRU is small, so holding the key tuples is cheap.
    The key is deliberately layout-independent: both record layouts
    produce identical phase-one results, so a pair cached under one
    layout is byte-valid under the other.
    """
    return (
        sequence.device_id,
        tuple(
            (r.timestamp, r.location.x, r.location.y, r.location.floor)
            for r in sequence.records
        ),
    )


def _window_span(
    sequences: list[PositioningSequence],
) -> tuple[float | None, float | None]:
    """Earliest and latest record timestamps across a window's sequences.

    Data time, not wall time: the knowledge store's TTL retention must
    expire the same epochs on a replayed feed as on a live one.  Records
    within a sequence are time-ordered, so first/last suffice.
    """
    start: float | None = None
    end: float | None = None
    for sequence in sequences:
        if not sequence.records:
            continue
        first = sequence.records[0].timestamp
        last = sequence.records[-1].timestamp
        if start is None or first < start:
            start = first
        if end is None or last > end:
            end = last
    return start, end


class Engine:
    """Parallel drop-in for ``Translator.translate_batch``.

    ``backend`` attaches an externally-managed (already open) pool whose
    context is a venue map containing ``context_key``; the engine then
    never opens or closes it, which lets several engines — one per venue —
    interleave phases on a single warm pool.  Without ``backend`` the
    engine creates, opens and closes its own pool per call, registering
    itself under ``context_key`` (default ``"default"``).
    """

    def __init__(
        self,
        translator: Translator,
        config: EngineConfig | None = None,
        *,
        backend: ExecutionBackend | None = None,
        context_key: str = DEFAULT_CONTEXT_KEY,
    ):
        self.translator = translator
        self.config = config if config is not None else EngineConfig()
        self.context_key = context_key
        self._attached = backend
        self._phase_one_cache: "OrderedDict[tuple, tuple]" | None = (
            OrderedDict() if self.config.phase_one_cache > 0 else None
        )

    def translate_batch(
        self, sequences: Iterable[PositioningSequence]
    ) -> BatchTranslationResult:
        """Translate a batch; output is identical to the serial path."""
        return self._run(partition(list(sequences), self.config.chunk_size))

    def translate_stream(
        self, sequences: Iterable[PositioningSequence]
    ) -> BatchTranslationResult:
        """Translate a sequence iterator with lazy, chunked ingestion.

        The input is consumed one chunk at a time as worker capacity frees
        up (the backends keep a bounded submission window), so phase one
        overlaps ingestion instead of waiting for the full batch.  The
        knowledge barrier still needs every phase-one result, so results
        accumulate until the input ends — the feed must be finite.  For
        unbounded feeds, cut windows and call
        :meth:`translate_increment` per window (or use
        :class:`repro.live.LiveTranslationService`).
        """
        return self._run(iter_chunks(sequences, self.config.chunk_size))

    def translate_increment(
        self,
        sequences: Iterable[PositioningSequence],
        knowledge: MobilityKnowledge | None = None,
        *,
        store: KnowledgeStore | None = None,
    ) -> tuple[BatchTranslationResult, MobilityKnowledge | None]:
        """Translate one stream window, folding its shard into ``knowledge``.

        The incremental path of the live streaming service: phase one
        runs as usual, but instead of building fresh batch knowledge at
        the barrier, the window's :class:`PartialKnowledge` is **folded**
        into the given long-running ``knowledge`` (created on first call
        when ``None``), and phase two complements the window against the
        folded cumulative state.  Returns ``(window result, knowledge)``;
        the returned knowledge is the same evolving object — pass it back
        in for the next window.

        Knowledge ownership lives in a
        :class:`~repro.knowledge.KnowledgeStore`: pass ``store=`` (see
        :meth:`make_store`) to fold into a store whose retention policy
        may retire or discount old epochs at the caller's epoch rolls —
        the live service holds one store per venue and rolls once per
        ingestion window.  Without ``store``, a bare ``knowledge`` object
        is wrapped in a transient unbounded store, which preserves the
        legacy fold-forever behaviour exactly (the caller's object is
        mutated in place, as before).

        Folding is exact (see :class:`~repro.core.complementing.ExactSum`),
        so under unbounded retention the cumulative knowledge after the
        final window is bit-for-bit identical to a one-shot batch build
        over all windows' sequences.  Note the *per-window* complements
        are computed against the knowledge as of that window; re-complement
        at end of stream (see ``LiveTranslationService.finalize``) to
        reproduce the one-shot batch output exactly.
        """
        if store is not None and knowledge is not None:
            raise ConfigError(
                "pass either a knowledge object or a store, not both"
            )
        result = self._run(
            partition(list(sequences), self.config.chunk_size),
            fold_into=knowledge,
            incremental=True,
            store=store,
        )
        return result, result.knowledge

    def make_store(
        self,
        retention: "str | None" = None,
        *,
        knowledge: MobilityKnowledge | None = None,
    ) -> KnowledgeStore | None:
        """A fresh knowledge store for this engine's venue.

        Vocabulary and smoothing come from the translator; the retention
        policy from ``retention`` (spec string) or, when ``None``, from
        ``EngineConfig.retention``.  Returns ``None`` when the venue
        builds no knowledge at all (complementing disabled or no semantic
        regions) — the same gate every knowledge build shares.

        ``knowledge`` attaches an *external* knowledge object instead of
        creating a fresh one: the store adopts it and every fold through
        :meth:`translate_increment` mutates it in place.  This is how a
        caller that owns knowledge outside the engine — a distributed
        coordinator rebasing a shard on merged cluster state, or a warm
        restart from a serialized prior — plugs it into the incremental
        path without losing the store's epoch lifecycle.  The venue gate
        still applies: a venue that builds no knowledge returns ``None``
        even when ``knowledge`` is given.
        """
        regions = self.translator.knowledge_regions()
        if regions is None:
            return None
        if knowledge is not None:
            return KnowledgeStore(
                knowledge=knowledge,
                retention=(
                    retention
                    if retention is not None
                    else self.config.retention
                ),
            )
        return KnowledgeStore(
            regions,
            smoothing=self.translator.config.knowledge_smoothing,
            retention=(
                retention if retention is not None else self.config.retention
            ),
        )

    def phase_one(
        self, sequences: Iterable[PositioningSequence]
    ) -> list:
        """Run clean + annotate alone, fanned out over the pool.

        Returns the per-sequence ``(cleaning, annotation)`` pairs in
        input order, with no knowledge build and no complementing —
        phase one is deterministic per sequence, which is what makes
        this the durable-state recovery path: replaying journaled
        record batches through it rebuilds exactly the phase-one output
        the crashed run computed, ready for a ``finalize()``-style
        re-complement against the recovered knowledge.
        """
        backend, owns = self._backend()
        if owns:
            backend.open({self.context_key: self.translator})
        try:
            _, pairs, _ = self._map_phase_one(
                backend,
                partition(list(sequences), self.config.chunk_size),
                emit_partial=False,
            )
            return pairs
        finally:
            if owns:
                backend.close()

    def complement(
        self,
        annotated: list[MobilitySemanticsSequence],
        knowledge: MobilityKnowledge,
    ) -> list[ComplementResult]:
        """Run the complementing phase alone, fanned out over the pool.

        Reusable phase plumbing: given already-annotated sequences and a
        knowledge object, produce the per-sequence complements exactly as
        the batch path would.  The live service uses this to re-complement
        every retained window against the final cumulative knowledge,
        which is what makes a replayed finite stream reproduce the
        one-shot batch output.
        """
        backend, owns = self._backend()
        if owns:
            backend.open({self.context_key: self.translator})
        try:
            return self._map_phase_two(backend, annotated, knowledge)
        finally:
            if owns:
                backend.close()

    # ------------------------------------------------------------------
    def _backend(self) -> tuple[ExecutionBackend, bool]:
        """The backend to run on, and whether this engine owns it."""
        if self._attached is not None:
            return self._attached, False
        return create_backend(self.config.backend, self.config.workers), True

    def _map_phase_two(
        self,
        backend: ExecutionBackend,
        annotated: list[MobilitySemanticsSequence],
        knowledge: MobilityKnowledge,
    ) -> list[ComplementResult]:
        """Fan complementing out over the pool via a shared-knowledge token.

        Gap-gated: only the sequences :func:`gapless_complements` leaves
        open are chunked, shared and mapped, slotting back in input order
        — a gapless window costs no share, no map and no compile.
        One share per barrier: every chunk task resolves the same token,
        so per-worker knowledge caches (and the compiled transition model
        attached to the cached knowledge) stay warm across all chunks of
        the phase.
        """
        complements = gapless_complements(self.translator, annotated)
        pending = [
            slot for slot, done in enumerate(complements) if done is None
        ]
        if not pending:
            return complements
        chunks = partition(
            [annotated[slot] for slot in pending], self.config.chunk_size
        )
        registry = get_registry()
        token = backend.share(knowledge)
        try:
            key = self.context_key
            slots = iter(pending)
            for seconds, chunk_result in backend.map(
                _phase_two_task, [(key, token, chunk) for chunk in chunks]
            ):
                if registry.enabled:
                    registry.histogram(
                        "trips_engine_chunk_seconds",
                        phase="two",
                        layout=self.config.record_layout,
                    ).observe(seconds)
                for result in chunk_result:
                    complements[next(slots)] = result
        finally:
            backend.release(token)
        return complements

    def _map_phase_one(
        self,
        backend: ExecutionBackend,
        chunks: Iterator[list[PositioningSequence]],
        emit_partial: bool,
    ) -> tuple[list[list[PositioningSequence]], list, list[PartialKnowledge]]:
        """Fan phase one out; returns (consumed chunks, pairs, partials).

        The payload generator records every chunk it hands to the pool;
        ``map()`` yields chunk results in the same submission order,
        keeping the lists aligned for the deterministic input-order merge.
        """
        if self._phase_one_cache is not None:
            return self._map_phase_one_cached(backend, chunks, emit_partial)
        consumed: list[list[PositioningSequence]] = []
        key = self.context_key

        def payloads() -> Iterator[tuple[str, list[PositioningSequence]]]:
            for chunk in chunks:
                consumed.append(chunk)
                yield (key, chunk)

        fn = _bind(
            _phase_one_task,
            emit_partial=emit_partial,
            record_layout=self.config.record_layout,
        )
        phase_one_chunks = list(backend.map(fn, payloads()))
        self._observe_phase_one_chunks(phase_one_chunks)
        pairs = [pair for chunk in phase_one_chunks for pair in chunk.pairs]
        partials = [
            chunk.partial
            for chunk in phase_one_chunks
            if chunk.partial is not None
        ]
        return consumed, pairs, partials

    def _observe_phase_one_chunks(self, chunks: "list[PhaseOneChunk]") -> None:
        """Feed the workers' ride-along chunk timings into the registry."""
        registry = get_registry()
        if not registry.enabled or not chunks:
            return
        layout = self.config.record_layout
        histogram = registry.histogram(
            "trips_engine_chunk_seconds", phase="one", layout=layout
        )
        for chunk in chunks:
            if chunk.seconds is not None:
                histogram.observe(chunk.seconds)
        if layout == "columnar":
            registry.counter("trips_columnar_chunks_total").inc(len(chunks))

    def _map_phase_one_cached(
        self,
        backend: ExecutionBackend,
        chunks: Iterator[list[PositioningSequence]],
        emit_partial: bool,
    ) -> tuple[list[list[PositioningSequence]], list, list[PartialKnowledge]]:
        """Phase one with the engine-owned clean+annotate LRU consulted.

        Cache misses are re-grouped into pure-miss payloads (so worker
        shards cover exactly the sequences they annotated); the cached
        sequences contribute one caller-built shard instead.  Shard
        merging is exact and order-independent, so the regrouping cannot
        change the knowledge.
        """
        cache = self._phase_one_cache
        assert cache is not None
        limit = self.config.phase_one_cache
        consumed: list[list[PositioningSequence]] = []
        slots: list[list] = []
        hit_pairs: list = []
        miss_positions: list[tuple[int, list[int]]] = []
        miss_keys: list[list[tuple]] = []

        def payloads() -> Iterator[tuple[str, list[PositioningSequence]]]:
            # Generated lazily, like the uncached path: the cache is
            # consulted chunk by chunk as the input iterator is pulled,
            # so streaming ingestion still overlaps phase one.
            for chunk in chunks:
                chunk_index = len(consumed)
                consumed.append(chunk)
                row: list = []
                misses: list[int] = []
                keys: list[tuple] = []
                for position, sequence in enumerate(chunk):
                    cache_key = _phase_one_cache_key(sequence)
                    hit = cache.get(cache_key)
                    if hit is not None:
                        cache.move_to_end(cache_key)
                        hit_pairs.append(hit)
                    else:
                        misses.append(position)
                        keys.append(cache_key)
                    row.append(hit)
                slots.append(row)
                if misses:
                    miss_positions.append((chunk_index, misses))
                    miss_keys.append(keys)
                    yield (self.context_key, [chunk[p] for p in misses])

        fn = _bind(
            _phase_one_task,
            emit_partial=emit_partial,
            record_layout=self.config.record_layout,
        )
        mapped = list(backend.map(fn, payloads()))
        self._observe_phase_one_chunks(mapped)

        partials: list[PartialKnowledge] = []
        for (chunk_index, misses), keys, chunk_result in zip(
            miss_positions, miss_keys, mapped
        ):
            for position, cache_key, pair in zip(
                misses, keys, chunk_result.pairs
            ):
                slots[chunk_index][position] = pair
                cache[cache_key] = pair
                cache.move_to_end(cache_key)
                while len(cache) > limit:
                    cache.popitem(last=False)
            if chunk_result.partial is not None:
                partials.append(chunk_result.partial)

        if emit_partial and hit_pairs:
            hit_shard = build_partial_knowledge(
                self.translator,
                [annotation.sequence for _, annotation in hit_pairs],
            )
            if hit_shard is not None:
                partials.append(hit_shard)

        pairs = [pair for row in slots for pair in row]
        return consumed, pairs, partials

    # ------------------------------------------------------------------
    def _run(
        self,
        chunks: Iterator[list[PositioningSequence]],
        fold_into: MobilityKnowledge | None = None,
        incremental: bool = False,
        store: KnowledgeStore | None = None,
    ) -> BatchTranslationResult:
        registry = get_registry()
        mode = "incremental" if incremental else "batch"
        layout = self.config.record_layout
        with registry.trace("engine_run", mode=mode, layout=layout):
            result = self._run_phases(chunks, fold_into, incremental, store)
        if registry.enabled:
            for phase in result.stats.phases:
                registry.histogram(
                    "trips_engine_phase_seconds",
                    phase=phase.name,
                    layout=layout,
                ).observe(phase.seconds)
            registry.counter(
                "trips_engine_runs_total", mode=mode, layout=layout
            ).inc()
            registry.counter("trips_engine_sequences_total").inc(
                len(result.results)
            )
        return result

    def _run_phases(
        self,
        chunks: Iterator[list[PositioningSequence]],
        fold_into: MobilityKnowledge | None = None,
        incremental: bool = False,
        store: KnowledgeStore | None = None,
    ) -> BatchTranslationResult:
        started = time.perf_counter()
        sharded = self.config.knowledge_build == "sharded"
        backend, owns = self._backend()
        # Captured up front: stats must not depend on reading the backend
        # after close() has torn the pool down.
        backend_name, backend_workers = backend.name, backend.workers
        if owns:
            backend.open({self.context_key: self.translator})
        try:
            consumed, phase_one, partials = self._map_phase_one(
                backend, chunks, emit_partial=sharded
            )
            phase_one_done = time.perf_counter()

            sequences = [s for chunk in consumed for s in chunk]
            annotated = [
                annotation.sequence for _, annotation in phase_one
            ]

            # Barrier: sharded mode merges the per-chunk shards the
            # workers already aggregated — O(#regions + #edges) per chunk;
            # rebuild mode re-observes every annotated sequence on the
            # caller.  Both produce byte-identical knowledge.  Incremental
            # mode folds the window's shard into the long-running
            # knowledge instead of building from scratch.
            if incremental:
                knowledge = self._fold_window(
                    fold_into, annotated, partials, sequences, store
                )
            elif sharded:
                knowledge = build_batch_knowledge(
                    self.translator, partials=partials
                )
            else:
                knowledge = build_batch_knowledge(self.translator, annotated)
            knowledge_done = time.perf_counter()

            # Phase two: fan out complementing with the shared knowledge.
            complements: list[ComplementResult] | None = None
            if knowledge is not None:
                complements = self._map_phase_two(
                    backend, annotated, knowledge
                )
            finished = time.perf_counter()
        finally:
            if owns:
                backend.close()

        results = assemble_results(sequences, phase_one, complements)
        count = len(sequences)
        stats = BatchStats(
            backend=backend_name,
            workers=backend_workers,
            chunk_size=self.config.chunk_size,
            chunk_count=len(consumed),
            phases=(
                PhaseStats("clean+annotate", phase_one_done - started, count),
                PhaseStats(
                    "knowledge", knowledge_done - phase_one_done, count
                ),
                PhaseStats("complement", finished - knowledge_done, count),
            ),
        )
        return BatchTranslationResult(
            results, knowledge, finished - started, stats
        )

    def _fold_window(
        self,
        fold_into: MobilityKnowledge | None,
        annotated: list[MobilitySemanticsSequence],
        partials: list[PartialKnowledge],
        sequences: list[PositioningSequence],
        store: KnowledgeStore | None = None,
    ) -> MobilityKnowledge | None:
        """The incremental barrier: fold the window into its store.

        Knowledge ownership is delegated to a
        :class:`~repro.knowledge.KnowledgeStore`: the caller's store when
        given, otherwise a transient unbounded wrap of the bare
        ``fold_into`` knowledge (created on first window), so the legacy
        path mutates the same object with identical, fold-forever
        semantics.  Under the ``rebuild`` strategy the workers did not
        aggregate shards, so the window's shard is built on the caller;
        either way the fold applies exactly the same counting rules as a
        batch build, so replaying all windows under unbounded retention
        reproduces the one-shot batch knowledge bit for bit.  The
        window's data-time span travels into the store's open epoch for
        TTL retention to measure against.
        """
        regions = self.translator.knowledge_regions()
        if regions is None:
            return fold_into
        if not partials:
            partials = [PartialKnowledge.from_sequences(annotated, regions)]
        if store is None:
            knowledge = fold_into
            if knowledge is None:
                knowledge = MobilityKnowledge(
                    regions=regions,
                    smoothing=self.translator.config.knowledge_smoothing,
                )
            store = KnowledgeStore.wrap(knowledge)
        start, end = _window_span(sequences)
        for partial in partials:
            store.fold(partial, start=start, end=end)
        return store.knowledge
