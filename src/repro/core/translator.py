"""The Translator: three-layer pipeline orchestration.

"The Translator constructs a sequence of mobility semantics for each
individual positioning sequence" (paper §2) by chaining the Raw Data
Cleaner, the Annotator and the Complementor (Figure 3).  Batch translation
is two-phase: every sequence is cleaned and annotated first, the mobility
knowledge is built from *all* original semantics ("referring to other
generated mobility semantics sequences"), and only then is each sequence
complemented.

The two phases are exposed as module-level pure functions
(:func:`run_phase_one`, :func:`run_phase_two`, :func:`build_batch_knowledge`,
:func:`build_partial_knowledge`, :func:`gapless_complements`,
:func:`assemble_results`) so the parallel
batch engine in :mod:`repro.engine` can fan them out across worker pools
while reproducing ``Translator.translate_batch`` exactly.  Phase-one
workers can additionally emit a per-chunk
:class:`~repro.core.complementing.PartialKnowledge` shard
(``run_phase_one_chunk(..., emit_partial=True)``), turning the knowledge
barrier into a cheap shard merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..dsm import DigitalSpaceModel
from ..errors import AnnotationError
from ..positioning import PositioningSequence
from .annotation import (
    AnnotationResult,
    AnnotatorConfig,
    MobilitySemanticsAnnotator,
)
from .annotation.annotator import EventModel
from .cleaning import CleaningConfig, CleaningResult, RawDataCleaner
from .complementing import (
    ComplementorConfig,
    ComplementResult,
    MobilityKnowledge,
    MobilitySemanticsComplementor,
    PartialKnowledge,
)
from .semantics import MobilitySemanticsSequence, dumps_indented


@dataclass(frozen=True)
class TranslatorConfig:
    """End-to-end configuration of the three-layer framework.

    The enable flags exist for the ablation experiments (E-X2): disabling a
    layer passes its input through unchanged.
    """

    cleaning: CleaningConfig = CleaningConfig()
    annotation: AnnotatorConfig = AnnotatorConfig()
    complementing: ComplementorConfig = ComplementorConfig()
    knowledge_smoothing: float = 1.0
    enable_cleaning: bool = True
    enable_complementing: bool = True


@dataclass(frozen=True)
class TranslationResult:
    """Everything the translation of one sequence produced.

    All intermediate artifacts are kept because the Viewer must "trace the
    input, output and intermediate data involved in the translation".
    """

    device_id: str
    raw: PositioningSequence
    cleaning: CleaningResult
    annotation: AnnotationResult
    complement: ComplementResult | None

    @property
    def cleaned(self) -> PositioningSequence:
        """The cleaned positioning sequence."""
        return self.cleaning.cleaned

    @property
    def original_semantics(self) -> MobilitySemanticsSequence:
        """Annotator output, before complementing."""
        return self.annotation.sequence

    @property
    def semantics(self) -> MobilitySemanticsSequence:
        """The final mobility semantics sequence."""
        if self.complement is not None:
            return self.complement.sequence
        return self.annotation.sequence

    def export(self, path: str | Path) -> None:
        """Write the translation-result file of workflow step (4)."""
        payload = {
            "device_id": self.device_id,
            "raw_record_count": len(self.raw),
            "cleaned_record_count": len(self.cleaned),
            "cleaning_report": {
                "invalid": self.cleaning.report.invalid_count,
                "floor_corrected": len(self.cleaning.report.floor_corrected),
                "interpolated": len(self.cleaning.report.interpolated),
            },
            "semantics": self.semantics.to_dict()["semantics"],
        }
        Path(path).write_text(dumps_indented(payload), encoding="utf-8")


@dataclass(frozen=True)
class PhaseStats:
    """Timing of one batch-translation phase."""

    name: str
    seconds: float
    items: int

    @property
    def items_per_second(self) -> float:
        """Phase throughput in items (sequences) per second."""
        if self.seconds <= 0:
            return 0.0
        return self.items / self.seconds


@dataclass(frozen=True)
class BatchStats:
    """Execution profile of one batch translation.

    Filled by both the serial :meth:`Translator.translate_batch` path
    (``backend="inline"``) and the parallel :class:`repro.engine.Engine`,
    so serial-vs-parallel comparisons read off the same structure.
    """

    backend: str
    workers: int
    chunk_size: int
    chunk_count: int
    phases: tuple[PhaseStats, ...] = ()

    def phase(self, name: str) -> PhaseStats:
        """The stats of the named phase."""
        for stats in self.phases:
            if stats.name == name:
                return stats
        raise KeyError(f"no phase named {name!r} in batch stats")

    @property
    def total_seconds(self) -> float:
        """Wall time summed across phases."""
        return sum(stats.seconds for stats in self.phases)

    def format_table(self) -> str:
        """Small fixed-width rendering for CLI / bench output."""
        lines = [
            f"backend={self.backend} workers={self.workers} "
            f"chunk_size={self.chunk_size} chunks={self.chunk_count}"
        ]
        for stats in self.phases:
            lines.append(
                f"  {stats.name:<16} {stats.seconds:8.3f}s  "
                f"{stats.items:6d} items  {stats.items_per_second:10.1f} items/s"
            )
        return "\n".join(lines)


@dataclass
class BatchTranslationResult:
    """Results for a batch plus the shared mobility knowledge."""

    results: list[TranslationResult] = field(default_factory=list)
    knowledge: MobilityKnowledge | None = None
    elapsed_seconds: float = 0.0
    stats: BatchStats | None = None
    _device_index: dict[str, TranslationResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _indexed_count: int = field(
        default=-1, init=False, repr=False, compare=False
    )

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def by_device(self, device_id: str) -> TranslationResult:
        """The first result for one device (O(1) via a lazily built index).

        A device id can legitimately appear more than once — streaming
        translation yields one result per device per window — so the
        index keeps the *first* occurrence, matching iteration order.
        The index is rebuilt when ``results`` grows or shrinks; replacing
        an element in place is not tracked.
        """
        if self._indexed_count != len(self.results):
            index: dict[str, TranslationResult] = {}
            for result in self.results:
                index.setdefault(result.device_id, result)
            self._device_index = index
            self._indexed_count = len(self.results)
        try:
            return self._device_index[device_id]
        except KeyError:
            raise AnnotationError(
                f"no translation result for device {device_id!r}"
            ) from None

    @property
    def total_records(self) -> int:
        """Raw records across the batch."""
        return sum(len(r.raw) for r in self.results)

    @property
    def total_semantics(self) -> int:
        """Final semantics triplets across the batch."""
        return sum(len(r.semantics) for r in self.results)

    @property
    def records_per_second(self) -> float:
        """Batch translation throughput."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_records / self.elapsed_seconds


# ----------------------------------------------------------------------
# Phase functions
#
# Pure per-sequence / per-chunk units of work: all state comes in through
# the arguments, so the batch engine can run them on any worker (including
# a forked process, where ``translator`` is the worker's own copy).
# ----------------------------------------------------------------------
def run_phase_one(
    translator: "Translator", sequence: PositioningSequence
) -> tuple[CleaningResult, AnnotationResult]:
    """Phase one (clean + annotate) for one sequence."""
    return translator.clean_and_annotate(sequence)


@dataclass(frozen=True)
class PhaseOneChunk:
    """One chunk's phase-one output.

    ``pairs`` holds the per-sequence (cleaning, annotation) results in
    chunk order; ``partial`` is the chunk's pre-aggregated knowledge shard
    when the caller asked for one (the engine's sharded barrier), else
    ``None``.
    """

    pairs: list[tuple[CleaningResult, AnnotationResult]]
    partial: PartialKnowledge | None = None
    #: Worker-side wall time for the chunk (monotonic clock), measured
    #: where the chunk ran: workers share no registry, so the engine
    #: observes per-chunk telemetry from this field (on the
    #: ``processes`` backend the seconds cross beside the encoded pairs
    #: and land here on decode).  Excluded from equality: two runs of the
    #: same chunk are the *same* phase-one output regardless of how long
    #: they took.
    seconds: float | None = field(default=None, compare=False)

    @property
    def annotated(self) -> list[MobilitySemanticsSequence]:
        """The chunk's annotator outputs, in chunk order."""
        return [annotation.sequence for _, annotation in self.pairs]


def run_phase_one_chunk(
    translator: "Translator",
    sequences: list[PositioningSequence],
    emit_partial: bool = False,
) -> PhaseOneChunk:
    """Phase one for a chunk of sequences, preserving chunk order.

    With ``emit_partial=True`` the worker also aggregates its chunk's
    :class:`~repro.core.complementing.PartialKnowledge` shard, so the
    caller's knowledge barrier becomes an O(#regions + #edges) merge per
    chunk instead of re-observing every annotated sequence.
    """
    pairs = [run_phase_one(translator, sequence) for sequence in sequences]
    partial = None
    if emit_partial:
        partial = build_partial_knowledge(
            translator, [annotation.sequence for _, annotation in pairs]
        )
    return PhaseOneChunk(pairs, partial)


def build_partial_knowledge(
    translator: "Translator",
    annotated: list[MobilitySemanticsSequence],
) -> PartialKnowledge | None:
    """One chunk's additive knowledge shard.

    ``None`` under the same conditions :func:`build_batch_knowledge`
    returns ``None`` (complementing disabled, or no semantic regions) —
    both read the gate from :meth:`Translator.knowledge_regions`.
    """
    regions = translator.knowledge_regions()
    if regions is None:
        return None
    return PartialKnowledge.from_sequences(annotated, regions)


def build_batch_knowledge(
    translator: "Translator",
    annotated: list[MobilitySemanticsSequence] | None = None,
    partials: list[PartialKnowledge] | None = None,
) -> MobilityKnowledge | None:
    """The barrier phase: global knowledge for the whole batch.

    Two paths produce identical knowledge:

    - **rebuild** — pass ``annotated``: re-observe every annotated
      sequence on the caller (the serial reference behaviour);
    - **merge** — pass ``partials``: fold pre-aggregated per-chunk shards,
      O(#regions + #edges) per shard regardless of batch size.

    Returns ``None`` when the complementing layer is disabled or the model
    has no semantic regions — exactly the conditions under which
    ``translate_batch`` skips phase two.
    """
    regions = translator.knowledge_regions()
    if regions is None:
        return None
    if partials is not None:
        return MobilityKnowledge.from_partials(
            partials,
            regions=regions,
            smoothing=translator.config.knowledge_smoothing,
        )
    if annotated is None:
        raise AnnotationError(
            "build_batch_knowledge needs annotated sequences or partial "
            "knowledge shards"
        )
    return MobilityKnowledge.from_sequences(
        annotated,
        regions,
        smoothing=translator.config.knowledge_smoothing,
    )


def run_phase_two(
    translator: "Translator",
    knowledge: MobilityKnowledge,
    sequence: MobilitySemanticsSequence,
) -> ComplementResult:
    """Phase two (complementing) for one annotated sequence."""
    return run_phase_two_chunk(translator, (knowledge, [sequence]))[0]


def gapless_complements(
    translator: "Translator", sequences: list[MobilitySemanticsSequence]
) -> list[ComplementResult | None]:
    """Phase two's gate: each gapless sequence's complement, else ``None``.

    A sequence with no gap over the threshold complements to itself (the
    first branch of ``MobilitySemanticsComplementor.complement``), so
    only the ``None`` slots need knowledge, a table or a worker.
    """
    threshold = translator.config.complementing.gap_threshold
    return [
        None if sequence.gaps(threshold) else ComplementResult(sequence, 0, 0, 0)
        for sequence in sequences
    ]


def run_phase_two_chunk(
    translator: "Translator",
    payload: tuple[MobilityKnowledge, list[MobilitySemanticsSequence]],
) -> list[ComplementResult]:
    """Phase two for a chunk of annotated sequences, preserving order.

    When the chunk holds a gap, primes the compiled transition model
    once up front — the compile (or attach-cache hit) lands per chunk
    rather than inside the first gap's inference, and the compile/hit
    telemetry ticks exactly once per chunk; a gapless chunk never asks
    for the table.  The memo hit/miss counters accumulated during the
    sequence loop are flushed in one registry interaction at the end.
    """
    knowledge, sequences = payload
    complementor = MobilitySemanticsComplementor(
        knowledge, translator.model.topology, translator.config.complementing
    )
    threshold = translator.config.complementing.gap_threshold
    gaps = [sequence.gaps(threshold) for sequence in sequences]
    if any(gaps):
        complementor.prime()
    try:
        return [
            complementor.complement(sequence, found)
            for sequence, found in zip(sequences, gaps)
        ]
    finally:
        complementor.flush_telemetry()


def assemble_results(
    sequences: list[PositioningSequence],
    phase_one: list[tuple[CleaningResult, AnnotationResult]],
    complements: list[ComplementResult] | None,
) -> list[TranslationResult]:
    """Zip the phases back into per-device results, in input order."""
    if len(phase_one) != len(sequences):
        raise AnnotationError(
            f"phase one produced {len(phase_one)} results for "
            f"{len(sequences)} sequences"
        )
    if complements is not None and len(complements) != len(sequences):
        raise AnnotationError(
            f"phase two produced {len(complements)} results for "
            f"{len(sequences)} sequences"
        )
    results: list[TranslationResult] = []
    for index, (sequence, (cleaning, annotation)) in enumerate(
        zip(sequences, phase_one)
    ):
        results.append(
            TranslationResult(
                device_id=sequence.device_id,
                raw=sequence,
                cleaning=cleaning,
                annotation=annotation,
                complement=complements[index] if complements is not None else None,
            )
        )
    return results


class Translator:
    """The backend component of TRIPS (Figure 1, center)."""

    def __init__(
        self,
        model: DigitalSpaceModel,
        event_model: EventModel | None = None,
        config: TranslatorConfig | None = None,
    ):
        self.model = model
        self.config = config if config is not None else TranslatorConfig()
        self.cleaner = RawDataCleaner(model.topology, self.config.cleaning)
        self.annotator = MobilitySemanticsAnnotator(
            model, event_model, self.config.annotation
        )

    # ------------------------------------------------------------------
    # Single-sequence path
    # ------------------------------------------------------------------
    def clean_and_annotate(
        self, sequence: PositioningSequence
    ) -> tuple[CleaningResult, AnnotationResult]:
        """Layers 1+2 for one sequence (phase one of batch translation)."""
        if self.config.enable_cleaning:
            cleaning = self.cleaner.clean(sequence)
        else:
            from .cleaning import CleaningReport

            cleaning = CleaningResult(
                sequence, sequence, CleaningReport(total_records=len(sequence))
            )
        annotation = self.annotator.annotate(cleaning.cleaned)
        return cleaning, annotation

    def knowledge_regions(self) -> list[str] | None:
        """The knowledge vocabulary, or ``None`` when knowledge is off.

        The single source of truth for the gate every knowledge build
        shares (complementing enabled, at least one semantic region) and
        for the region-id vocabulary, so the sharded and rebuild paths
        cannot drift apart.
        """
        if not self.config.enable_complementing:
            return None
        if self.model.region_count == 0:
            return None
        return [region.region_id for region in self.model.regions()]

    def translate(
        self,
        sequence: PositioningSequence,
        knowledge: MobilityKnowledge | None = None,
    ) -> TranslationResult:
        """Full three-layer translation of one sequence.

        Without pre-built ``knowledge`` the complementing layer falls back
        to knowledge built from this sequence alone — batch translation is
        the intended mode, exactly as in the paper.
        """
        cleaning, annotation = self.clean_and_annotate(sequence)
        complement = None
        if self.knowledge_regions() is not None:
            if knowledge is None:
                knowledge = build_batch_knowledge(
                    self, [annotation.sequence]
                )
            complement = run_phase_two(self, knowledge, annotation.sequence)
        return TranslationResult(
            device_id=sequence.device_id,
            raw=sequence,
            cleaning=cleaning,
            annotation=annotation,
            complement=complement,
        )

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def translate_batch(
        self, sequences: list[PositioningSequence]
    ) -> BatchTranslationResult:
        """Two-phase batch translation with shared mobility knowledge."""
        started = time.perf_counter()
        sequences = list(sequences)
        phase_one = run_phase_one_chunk(self, sequences).pairs
        phase_one_done = time.perf_counter()

        knowledge = build_batch_knowledge(
            self, [annotation.sequence for _, annotation in phase_one]
        )
        knowledge_done = time.perf_counter()

        complements: list[ComplementResult] | None = None
        if knowledge is not None:
            complements = run_phase_two_chunk(
                self,
                (knowledge, [annotation.sequence for _, annotation in phase_one]),
            )
        finished = time.perf_counter()

        results = assemble_results(sequences, phase_one, complements)
        count = len(sequences)
        stats = BatchStats(
            backend="inline",
            workers=1,
            chunk_size=max(count, 1),
            chunk_count=1 if count else 0,
            phases=(
                PhaseStats("clean+annotate", phase_one_done - started, count),
                PhaseStats("knowledge", knowledge_done - phase_one_done, count),
                PhaseStats("complement", finished - knowledge_done, count),
            ),
        )
        return BatchTranslationResult(
            results, knowledge, finished - started, stats
        )
