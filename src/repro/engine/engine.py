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

The sharded barrier
-------------------

Each phase-one worker also aggregates its chunk's
:class:`~repro.core.complementing.PartialKnowledge` shard (raw transition
counts, outgoing totals, per-region stats); the barrier in step 2 merges
the shards in O(#regions + #edges) per chunk, so the knowledge build
scales out with phase one and the ``knowledge`` phase in
:class:`BatchStats` reports pure merge time.  Sharding is exact, not
approximate: dwell totals accumulate through
:class:`~repro.core.complementing.ExactSum`, so the merged aggregates are
bit-for-bit independent of the chunking — and equal to the reference's
serial re-observation of every annotated sequence
(``Translator.translate_batch``; ``tests/test_engine.py`` holds the proof).

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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import ClassVar, Iterable, Iterator, Mapping

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
    gapless_complements,
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

#: Context key of a stand-alone engine in its single-entry venue map.
DEFAULT_CONTEXT_KEY = "default"


def _phase_one_task(
    venues: Mapping[str, Translator],
    payload: tuple[str, list[PositioningSequence]],
) -> PhaseOneChunk:
    """Phase-one worker task: resolve the venue translator, run the chunk.

    The context is a venue map so one pool can serve several translators;
    a stand-alone engine opens the map with a single entry.  The chunk
    runs on the columnar kernels and aggregates its knowledge shard for
    the barrier to merge.
    """
    key, chunk = payload
    started = time.perf_counter()
    result = run_phase_one_chunk_columnar(
        venues[key], chunk, emit_partial=True
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
    retention: str = "unbounded"
    #: Not an option: phase one always runs the columnar kernels.  The
    #: constant exists only because the ledger's re-drive
    #: (``benchmarks/e2e/trace.py::_chunk_runner``) picks its chunk runner
    #: from this attribute and would otherwise silently time the object
    #: model; ROADMAP item 2b (the re-drive retired) retires it.
    record_layout: ClassVar[str] = "columnar"

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
        parse_retention(self.retention)  # validate the spec eagerly


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
        *,
        store: KnowledgeStore | None,
    ) -> BatchTranslationResult:
        """Translate one stream window, folding its shards into ``store``.

        The incremental path of the live streaming service: phase one
        runs as usual, but instead of building fresh batch knowledge at
        the barrier, the window's :class:`PartialKnowledge` shards are
        **folded** into the store's long-running knowledge, and phase two
        complements the window against the folded cumulative state
        (``result.knowledge`` is ``store.knowledge``, the same evolving
        object window after window).  The store (see :meth:`make_store`)
        owns the lifecycle: its retention policy may retire or discount
        old epochs at the caller's epoch rolls — the live service holds
        one store per venue and rolls once per ingestion window.

        ``store=None`` means what :meth:`make_store` returning ``None``
        means: this venue keeps no knowledge, so nothing folds and phase
        two is skipped.

        Folding is exact (see :class:`~repro.core.complementing.ExactSum`),
        so under unbounded retention the cumulative knowledge after the
        final window is bit-for-bit identical to a one-shot batch build
        over all windows' sequences.  Note the *per-window* complements
        are computed against the knowledge as of that window; re-complement
        at end of stream (see ``LiveTranslationService.finalize``) to
        reproduce the one-shot batch output exactly.
        """
        return self._run(
            partition(list(sequences), self.config.chunk_size),
            incremental=True,
            store=store,
        )

    def make_store(
        self, retention: "str | None" = None
    ) -> KnowledgeStore | None:
        """A fresh knowledge store for this engine's venue.

        Vocabulary and smoothing come from the translator; the retention
        policy from ``retention`` (spec string) or, when ``None``, from
        ``EngineConfig.retention``.  Returns ``None`` when the venue
        builds no knowledge at all (complementing disabled or no semantic
        regions) — the same gate every knowledge build shares.
        """
        regions = self.translator.knowledge_regions()
        if regions is None:
            return None
        if retention is None:
            retention = self.config.retention
        return KnowledgeStore(
            regions,
            smoothing=self.translator.config.knowledge_smoothing,
            retention=retention,
        )

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
                        "trips_engine_chunk_seconds", phase="two"
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
    ) -> tuple[list[list[PositioningSequence]], list, list[PartialKnowledge]]:
        """Fan phase one out; returns (consumed chunks, pairs, partials).

        The payload generator records every chunk it hands to the pool;
        ``map()`` yields chunk results in the same submission order,
        keeping the lists aligned for the deterministic input-order merge.
        """
        consumed: list[list[PositioningSequence]] = []
        key = self.context_key

        def payloads() -> Iterator[tuple[str, list[PositioningSequence]]]:
            for chunk in chunks:
                consumed.append(chunk)
                yield (key, chunk)

        phase_one_chunks = list(backend.map(_phase_one_task, payloads()))
        registry = get_registry()
        if registry.enabled and phase_one_chunks:
            # The workers' ride-along chunk timings.
            histogram = registry.histogram(
                "trips_engine_chunk_seconds", phase="one"
            )
            for chunk in phase_one_chunks:
                if chunk.seconds is not None:
                    histogram.observe(chunk.seconds)
        pairs = [pair for chunk in phase_one_chunks for pair in chunk.pairs]
        partials = [
            chunk.partial
            for chunk in phase_one_chunks
            if chunk.partial is not None
        ]
        return consumed, pairs, partials

    # ------------------------------------------------------------------
    def _run(
        self,
        chunks: Iterator[list[PositioningSequence]],
        incremental: bool = False,
        store: KnowledgeStore | None = None,
    ) -> BatchTranslationResult:
        registry = get_registry()
        mode = "incremental" if incremental else "batch"
        with registry.trace("engine_run", mode=mode):
            result = self._run_phases(chunks, incremental, store)
        if registry.enabled:
            for phase in result.stats.phases:
                registry.histogram(
                    "trips_engine_phase_seconds", phase=phase.name
                ).observe(phase.seconds)
            registry.counter("trips_engine_runs_total", mode=mode).inc()
            registry.counter("trips_engine_sequences_total").inc(
                len(result.results)
            )
        return result

    def _run_phases(
        self,
        chunks: Iterator[list[PositioningSequence]],
        incremental: bool,
        store: KnowledgeStore | None,
    ) -> BatchTranslationResult:
        started = time.perf_counter()
        backend, owns = self._backend()
        # Captured up front: stats must not depend on reading the backend
        # after close() has torn the pool down.
        backend_name, backend_workers = backend.name, backend.workers
        if owns:
            backend.open({self.context_key: self.translator})
        try:
            consumed, phase_one, partials = self._map_phase_one(
                backend, chunks
            )
            phase_one_done = time.perf_counter()

            sequences = [s for chunk in consumed for s in chunk]
            annotated = [
                annotation.sequence for _, annotation in phase_one
            ]

            # Barrier: merge the per-chunk shards the workers already
            # aggregated — O(#regions + #edges) per chunk — into fresh
            # batch knowledge, or (incremental mode) fold them into the
            # store's long-running knowledge.
            if incremental:
                knowledge = self._fold_window(store, partials, sequences)
            else:
                knowledge = build_batch_knowledge(
                    self.translator, partials=partials
                )
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
        store: KnowledgeStore | None,
        partials: list[PartialKnowledge],
        sequences: list[PositioningSequence],
    ) -> MobilityKnowledge | None:
        """The incremental barrier: fold the window into its store.

        The fold applies exactly the same counting rules as a batch
        build, so replaying all windows under unbounded retention
        reproduces the one-shot batch knowledge bit for bit.  The
        window's data-time span travels into the store's open epoch for
        TTL retention to measure against.
        """
        regions = self.translator.knowledge_regions()
        if store is None or regions is None:
            return None
        if not partials:
            # An empty window still folds one (empty) shard: the fold
            # marks the knowledge mutated and opens the store's epoch.
            partials = [PartialKnowledge.from_sequences([], regions)]
        start, end = _window_span(sequences)
        for partial in partials:
            store.fold(partial, start=start, end=end)
        return store.knowledge
