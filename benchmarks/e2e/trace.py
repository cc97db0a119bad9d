"""The traced pass: re-drive each workload from outside, layer by layer.

The end-to-end numbers come from the real entry points with nothing
attached.  The per-layer numbers come from here: each workload is
replayed by composing the layers' *public* functions in the order the
engine and the services call them (``take_window`` → ``group_records`` →
``partition`` → phase-one chunk → ``store.fold``/``roll`` or
``build_batch_knowledge`` → ``ensure_compiled`` → ``run_phase_two_chunk``
→ ``assemble_results`` → ``encode``/``append_window``/``write_snapshot``
→ ``shard_records``/``KnowledgeExchange.exchange``), with an in-memory
span around every call.  Nothing inside ``repro`` is patched and no
series is added to it; the re-drive's result digest must equal the real
entry point's, which is what licenses reading its spans as the real
run's ledger.

Entry points resolve lazily through :func:`layer`: when a later change
removes or renames one, the re-drive raises :class:`LayerMissing` and
the harness prints the per-layer metrics as ``null`` with that note
instead of crashing.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import DURABLE_SNAPSHOT_INTERVAL


class LayerMissing(Exception):
    """A layer entry point the re-drive composes no longer exists."""


def layer(dotted: str):
    """Resolve ``package.module:attribute`` at call time."""
    module_name, _, attribute = dotted.partition(":")
    try:
        return getattr(importlib.import_module(module_name), attribute)
    except (ImportError, AttributeError) as exc:
        raise LayerMissing(f"{dotted} is gone: {exc}") from exc


class Tracer:
    """In-memory spans ``[name, start, end, parent, window]``.

    A disabled tracer records nothing; running the same re-drive with
    one gives the wall time the spans themselves cost.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._leaf_depth = 0

    @contextmanager
    def span(self, name: str, window: "int | None" = None, leaf: bool = False):
        """Record one span; under a ``leaf`` span nested spans are dropped,
        so the leaf's self time is its whole duration."""
        if not self.enabled or self._leaf_depth:
            yield
            return
        record = [
            name, time.perf_counter(), None,
            self._stack[-1] if self._stack else None, window,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._leaf_depth += leaf
        try:
            yield
        finally:
            self._leaf_depth -= leaf
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per span name, duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            totals[name] += end - start - child_time
        return dict(totals)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


class Context:
    """What one re-drive shares: the tracer and the exact counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: dict[str, float] = defaultdict(float)
        #: Per cluster window, max ÷ mean records per shard.
        self.skews: list[float] = []


def _traced_translator(translator, tracer: Tracer):
    """A translator whose phase one reports cleaning and annotation apart.

    The chunk runner the engine uses stays the code under measurement;
    this subclass only splits its per-sequence step into two spans.  A
    chunk runner that stops calling ``clean_and_annotate`` records no
    such spans, and the two layers then read ``null``.
    """
    base = layer("repro.core.translator:Translator")

    class TracedTranslator(base):
        def clean_and_annotate(self, sequence):
            with tracer.span("cleaning.clean"):
                cleaning = self.cleaner.clean(sequence)
            with tracer.span("annotation.annotate"):
                annotation = self.annotator.annotate(cleaning.cleaned)
            return cleaning, annotation

    return TracedTranslator(
        translator.model, translator.annotator.event_model, translator.config
    )


def _chunk_runner():
    """The phase-one chunk function the engine dispatches to by default."""
    config = layer("repro.engine:EngineConfig")()
    if getattr(config, "record_layout", "objects") == "columnar":
        return layer("repro.columnar:run_phase_one_chunk_columnar")
    return layer("repro.core.translator:run_phase_one_chunk")


class Phases:
    """The two translation phases of one venue, chunked as the engine does.

    ``wire`` adds what the process backend pays on top: every chunk task
    and result is pickled and unpickled, and the phase-two knowledge is
    pickled once per phase (``ProcessBackend.share``).
    """

    def __init__(self, ctx: Context, venue: str, translator, wire: bool):
        self.ctx = ctx
        self.venue = venue
        self.translator = translator
        self.traced = _traced_translator(translator, ctx.tracer)
        self.wire = wire
        self.chunk_size = layer("repro.engine:EngineConfig")().chunk_size
        self._partition = layer("repro.engine.chunking:partition")
        self._run_chunk = _chunk_runner()
        self._build_partial = layer(
            "repro.core.translator:build_partial_knowledge"
        )
        self._ensure_compiled = layer(
            "repro.core.complementing:ensure_compiled"
        )
        self._run_phase_two = layer(
            "repro.core.translator:run_phase_two_chunk"
        )

    def _ship(self, value, direction: str, window) -> None:
        with self.ctx.tracer.span("engine.pickle", window):
            blob = pickle.dumps(value)
            pickle.loads(blob)
        self.ctx.counts[f"{direction}_pickle_bytes"] += len(blob)

    def one(self, sequences, window, emit_partial: bool = True):
        """Phase one: ``(pairs, knowledge shards)`` in input order."""
        span = self.ctx.tracer.span
        with span("engine.partition", window):
            chunks = self._partition(sequences, self.chunk_size)
        pairs, partials = [], []
        for chunk in chunks:
            if self.wire:
                self._ship((self.venue, chunk), "task", window)
            with span("phase_one.chunk", window):
                result = self._run_chunk(self.traced, chunk)
            if emit_partial:
                with span("knowledge.build", window):
                    result = dataclasses.replace(
                        result,
                        partial=self._build_partial(
                            self.translator,
                            [annotation.sequence for _, annotation in result.pairs],
                        ),
                    )
                partials.append(result.partial)
            if self.wire:
                self._ship(result, "result", window)
            pairs.extend(result.pairs)
        return pairs, partials

    def two(self, annotated, knowledge, window):
        """Phase two: complements in input order."""
        span = self.ctx.tracer.span
        with span("engine.partition", window):
            chunks = self._partition(annotated, self.chunk_size)
        blob = None
        if self.wire and chunks:
            with span("engine.pickle", window):
                blob = pickle.dumps(knowledge)
                pickle.loads(blob)
        complements = []
        for chunk in chunks:
            if self.wire:
                self._ship((self.venue, blob, chunk), "task", window)
            with span("compiled.compile", window):
                fresh = knowledge.compiled_model() is not None
                self.ctx.counts["compile_hits" if fresh else "compiles"] += 1
                self._ensure_compiled(knowledge, self.translator.model.topology)
            with span("inference.viterbi", window):
                chunk_complements = self._run_phase_two(
                    self.translator, (knowledge, chunk)
                )
            if self.wire:
                self._ship(chunk_complements, "result", window)
            complements.extend(chunk_complements)
        return complements


class VenuePipeline:
    """One venue's live window path, as ``process_window`` and
    ``Engine.translate_increment`` run it, plus the journal and the
    recovery of ``LiveTranslationService`` when a state directory is set.
    """

    def __init__(
        self, ctx, venue, translator, retention=None, state_dir=None,
        wire=False,
    ):
        self.ctx = ctx
        self.venue = venue
        self.phases = Phases(ctx, venue, translator, wire)
        self.retention = retention
        self.store = self._fresh_store()
        self.results: list = []
        self.windows = 0
        self._group = layer(
            "repro.positioning:PositioningSequence"
        ).group_records
        self._assemble = layer("repro.core.translator:assemble_results")
        self._batch_result = layer(
            "repro.core.translator:BatchTranslationResult"
        )
        self.state_dir = state_dir
        self.journal = None
        if state_dir is not None:
            self._journal_class = layer("repro.durability:DurableStateJournal")
            self._encode = layer("repro.durability:encode")
            self._encode_records = layer("repro.durability:encode_records")
            self._decode = layer("repro.durability:decode")
            self._decode_records = layer("repro.durability:decode_records")
            self._open_journal()
            self.batches: list = []
            self.since_snapshot = 0

    def _fresh_store(self):
        engine = layer("repro.engine:Engine")(self.phases.translator)
        return engine.make_store(retention=self.retention)

    def window(self, records, window: int) -> None:
        """Translate one cut window; ``window`` is its id on the spans."""
        span = self.ctx.tracer.span
        started = time.perf_counter()
        with span("positioning.group", window):
            sequences = self._group(records)
        pairs, partials = self.phases.one(sequences, window)
        with span("knowledge.fold", window):
            start = min(s.records[0].timestamp for s in sequences)
            end = max(s.records[-1].timestamp for s in sequences)
            for partial in partials:
                self.store.fold(partial, start=start, end=end)
        complements = self.phases.two(
            [annotation.sequence for _, annotation in pairs],
            self.store.knowledge,
            window,
        )
        with span("translator.assemble", window):
            results = self._assemble(sequences, pairs, complements)
        with span("knowledge.fold", window):
            retired = self.store.roll()
        self.ctx.counts["retired_epochs"] += len(retired)
        self.results.extend(results)
        if self.journal is not None:
            self._journal_window(
                records, results, retired, time.perf_counter() - started,
                window,
            )
        self.windows += 1

    # -- durable state, mirroring LiveTranslationService ---------------
    def _open_journal(self) -> None:
        self.journal = self._journal_class(self.state_dir)
        self.journal.open()
        self.store.track_deltas = True

    def close(self) -> None:
        """Close the journal, if any, keeping what it wrote."""
        if self.journal is not None:
            self.ctx.counts["wal_bytes"] += self.journal.wal.bytes_written
            self.ctx.counts["snapshots"] += self.journal.snapshots_written
            self.journal.close()

    def _journal_window(self, records, results, retired, seconds, window):
        span = self.ctx.tracer.span
        closed = self.store.last_epoch
        with span("durability.encode", window):
            entry = {
                "venue": self.venue,
                "records": len(records),
                "sequences": len(results),
                "semantics": sum(len(r.semantics) for r in results),
                "seconds": seconds,
                "delta": self._encode(closed.partial),
                "start": closed.start,
                "end": closed.end,
                "retired": [epoch.index for epoch in retired],
                "batch": self._encode_records(records),
            }
        with span("durability.wal_append", window):
            self.journal.append_window(self.windows, {"venues": [entry]})
        self.batches.append(records)
        self.since_snapshot += 1
        if self.since_snapshot >= DURABLE_SNAPSHOT_INTERVAL:
            with span("durability.snapshot", window):
                self.journal.write_snapshot(
                    self.windows + 1,
                    {
                        "store": self._encode(self.store),
                        "batches": [
                            self._encode_records(batch)
                            for batch in self.batches
                        ],
                    },
                )
            self.since_snapshot = 0

    def crash_and_recover(self) -> None:
        """Drop the in-memory state and rebuild it from the journal:
        snapshot, then the WAL tail, then phase one over the journaled
        batches (``LiveTranslationService._recover``)."""
        span = self.ctx.tracer.span
        self.close()
        self.results = []
        with span("durability.recovery_load"):
            self.store = self._fresh_store()
            self._open_journal()
            snapshot, entries = self.journal.load()
            self.batches = []
            if snapshot is not None:
                self.store = self._decode(snapshot["store"])
                self.store.track_deltas = True
                self.batches = [
                    self._decode_records(rows) for rows in snapshot["batches"]
                ]
            for entry in entries:
                (payload,) = entry["venues"]
                self.store.fold(
                    self._decode(payload["delta"]),
                    start=payload["start"],
                    end=payload["end"],
                )
                self.store.roll()
                self.batches.append(self._decode_records(payload["batch"]))
        self.since_snapshot = len(entries)
        self.ctx.counts["recovery_windows_replayed"] += len(entries)
        with span("durability.recovery_replay", leaf=True):
            for records in self.batches:
                sequences = self._group(records)
                pairs, _ = self.phases.one(sequences, None, emit_partial=False)
                self.results.extend(self._assemble(sequences, pairs, None))

    def finalize(self):
        """Re-complement every retained result against the final knowledge."""
        with self.ctx.tracer.span("live.finalize", leaf=True):
            sequences = [result.raw for result in self.results]
            pairs = [
                (result.cleaning, result.annotation)
                for result in self.results
            ]
            complements = self.phases.two(
                [annotation.sequence for _, annotation in pairs],
                self.store.knowledge,
                None,
            )
            results = self._assemble(sequences, pairs, complements)
        return self._batch_result(results, self.store.knowledge, 0.0, None)


def redrive_batch(ctx: Context, task_path: Path, export_dir: Path):
    """``run_task(load_task(task), engine=serial)`` plus the export loop."""
    span = ctx.tracer.span
    load_task = layer("repro.config:load_task")
    build_translator = layer("repro.config:build_translator")
    select_sequences = layer("repro.config:select_sequences")
    build_batch_knowledge = layer(
        "repro.core.translator:build_batch_knowledge"
    )
    assemble = layer("repro.core.translator:assemble_results")
    batch_result = layer("repro.core.translator:BatchTranslationResult")
    with span("run"):
        config = load_task(task_path)
        with span("dsm.load"):
            translator = build_translator(config)
        with span("positioning.read"):
            sequences = select_sequences(config)
        phases = Phases(ctx, "mall", translator, wire=False)
        pairs, partials = phases.one(sequences, None)
        with span("knowledge.build"):
            knowledge = build_batch_knowledge(translator, partials=partials)
        complements = phases.two(
            [annotation.sequence for _, annotation in pairs], knowledge, None
        )
        with span("translator.assemble"):
            results = assemble(sequences, pairs, complements)
        with span("translator.export"):
            for index, result in enumerate(results):
                result.export(export_dir / f"{index}-{result.device_id}.json")
    return {"mall": batch_result(results, knowledge, 0.0, None)}


def redrive_live(
    ctx: Context, translators, feeds, window_seconds, retention=None,
    state_dir=None, crash_index=None,
):
    """``LiveTranslationService`` over tagged feeds, then ``finalize()``.

    The real front-end interleaves the venues' windows; venues share no
    state, so replaying them one after another gives the same result.
    With ``state_dir`` the single feed is journaled, killed after
    ``crash_index`` records, recovered and resumed.
    """
    span = ctx.tracer.span
    record_stream = layer("repro.positioning:RecordStream")
    finalized = {}
    with span("run"):
        for venue in sorted(feeds):
            pipeline = VenuePipeline(
                ctx, venue, translators[venue], retention, state_dir
            )
            feed = feeds[venue]
            segments = (
                [feed]
                if crash_index is None
                else [feed[:crash_index], feed[crash_index:]]
            )
            for position, segment in enumerate(segments):
                if position:
                    pipeline.crash_and_recover()
                stream = record_stream(iter(segment))
                while True:
                    window = pipeline.windows
                    with span("positioning.window_cut", window):
                        records = stream.take_window(window_seconds, None)
                    if not records:
                        break
                    pipeline.window(records, window)
                    ctx.counts["windows"] += 1
                    ctx.counts["records"] += len(records)
            finalized[venue] = pipeline.finalize()
            pipeline.close()
    return finalized


class _ShardStandIn:
    """What ``KnowledgeExchange.exchange`` reads off a shard service."""

    def __init__(self, translators, pipelines):
        self.dispatcher = layer("repro.live:VenueDispatcher")(translators)
        self._pipelines = pipelines

    def ensure_store(self, venue_id):
        return self._pipelines[venue_id].store


def redrive_sharded(
    ctx: Context, translators, feeds, window_seconds, max_window_records,
    shards, exchange_interval,
):
    """``ShardedIngestService.run_feeds`` then ``finalize()``, one shard
    after the other on this thread, paying the process backend's pickles."""
    span = ctx.tracer.span
    record_stream = layer("repro.positioning:RecordStream")
    shard_records = layer("repro.distributed.router:shard_records")
    router = layer("repro.distributed:DeviceHashRouter")()
    exchange = layer("repro.distributed:KnowledgeExchange")()
    batch_result = layer("repro.core.translator:BatchTranslationResult")

    def exchange_round():
        with span("distributed.exchange"):
            exchange.exchange(stand_ins)
        ctx.counts["exchange_rounds"] += 1

    with span("run"):
        pipelines = [
            {
                venue: VenuePipeline(ctx, venue, translators[venue], wire=True)
                for venue in translators
            }
            for _ in range(shards)
        ]
        stand_ins = [_ShardStandIn(translators, p) for p in pipelines]
        active = {v: record_stream(iter(feed)) for v, feed in feeds.items()}
        windows = since_exchange = 0
        while active:
            for venue in sorted(active):
                with span("positioning.window_cut", windows):
                    records = active[venue].take_window(
                        window_seconds, max_window_records
                    )
                if not records:
                    del active[venue]
                    continue
                with span("distributed.route", windows):
                    routed = shard_records(records, router, shards)
                ctx.skews.append(
                    max(len(batch) for batch in routed.values())
                    * shards / len(records)
                )
                for index, batch in routed.items():
                    pipelines[index][venue].window(batch, windows)
                ctx.counts["windows"] += 1
                ctx.counts["records"] += len(records)
                windows += 1
                since_exchange += 1
                if since_exchange >= exchange_interval:
                    exchange_round()
                    since_exchange = 0
        if windows and since_exchange:
            exchange_round()
        finalized = {}
        with span("distributed.finalize"):
            exchange_round()
            for venue in translators:
                results = [
                    result
                    for shard in pipelines
                    for result in shard[venue].finalize().results
                ]
                results.sort(
                    key=lambda r: (r.device_id, r.raw.records[0].timestamp)
                )
                finalized[venue] = batch_result(
                    results, exchange.merged_knowledge(venue), 0.0, None
                )
    return finalized
