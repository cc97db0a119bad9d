"""Columnar phase one: the chunk pipeline assembling the kernels.

:func:`run_phase_one_chunk_columnar` is the drop-in counterpart of
:func:`repro.core.translator.run_phase_one_chunk`: same signature, same
:class:`~repro.core.translator.PhaseOneChunk` result, proven bit-for-bit
equal by ``tests/test_columnar_equivalence.py``.  This one is what the
engine runs; the object-model runner is the reference it is checked
against.

Per chunk it columnarizes the sequences into one
:class:`~repro.columnar.batch.RecordBatch` (or takes the one a process
task shipped, :func:`run_phase_one_batch`), bulk-primes a
:class:`~repro.columnar.locate.LocatorSession` over the batch (vectorized
for batches past ``_VECTOR_PRIME_MIN_ROWS``), and runs the
cleaning/annotation kernels of :mod:`repro.columnar.kernels` against the
shared session.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

from ..core.annotation import MobilitySemanticsAnnotator
from ..core.translator import PhaseOneChunk, Translator
from ..dsm import DigitalSpaceModel
from ..positioning import PositioningSequence
from .batch import RecordBatch
from .kernels import (
    ColumnarCleaner,
    ColumnarSpatialMatcher,
    ColumnarSpeedValidator,
    ColumnarSplitter,
    accumulate_partial,
)
from .locate import PointLocator

#: One prepared locator per model; sessions (and their memos) are per
#: chunk, the flat geometry tables are shared and staleness-checked.
#: Keyed by ``id(model)`` (models are unhashable) and LRU-bounded so a
#: long-lived process caps how many venues' geometry it pins; the cached
#: locator holds its model alive, so an id cannot be reused while its
#: entry exists — the identity guard below is pure belt and braces.
_locators: "OrderedDict[int, PointLocator]" = OrderedDict()
_MAX_LOCATORS = 8
#: No caller in the package is concurrent; for a library user's threads,
#: lookup, insert and evict are one critical section, so an eviction
#: cannot land between another thread's ``get`` and ``move_to_end``,
#: and a model gets exactly one locator however many threads ask for it
#: first.
_locators_lock = threading.Lock()


def _locator_for(model: DigitalSpaceModel) -> PointLocator:
    key = id(model)
    with _locators_lock:
        locator = _locators.get(key)
        if locator is not None and locator.model is model:
            _locators.move_to_end(key)
            return locator
        locator = PointLocator(model)
        _locators[key] = locator
        while len(_locators) > _MAX_LOCATORS:
            _locators.popitem(last=False)
        return locator


def run_phase_one_chunk_columnar(
    translator: Translator,
    sequences: list[PositioningSequence],
    emit_partial: bool = False,
) -> PhaseOneChunk:
    """Phase one for a chunk of sequences on the columnar kernels.

    Exactly equivalent to ``run_phase_one_chunk``: identical
    cleaning/annotation results pair for pair, identical knowledge shard.
    """
    batch, _spans = RecordBatch.from_sequences(sequences)
    return run_phase_one_batch(translator, batch, sequences, emit_partial)


def run_phase_one_batch(
    translator: Translator,
    batch: RecordBatch,
    sequences: list[PositioningSequence],
    emit_partial: bool = False,
) -> PhaseOneChunk:
    """:func:`run_phase_one_chunk_columnar` on a chunk already columnarized.

    ``batch`` holds the rows of ``sequences`` in order (what
    ``RecordBatch.from_sequences(sequences)`` builds): a process worker
    receives the chunk as that batch and runs it here without
    re-columnarizing it.
    """
    session = _locator_for(translator.model).session()
    session.prime(batch)

    config = translator.config
    topology = translator.model.topology
    validator = ColumnarSpeedValidator(
        topology, config.cleaning.max_speed, session
    )
    annotator = MobilitySemanticsAnnotator(
        translator.model, translator.annotator.event_model, config.annotation
    )
    annotator.splitter = ColumnarSplitter(config.annotation.splitter)
    annotator.matcher = ColumnarSpatialMatcher(translator.model, session)

    # The per-sequence step stays ``clean_and_annotate``, on a copy of the
    # caller's translator — same class, model and config — whose two layer
    # objects are this chunk's session-backed ones.  A subclass that wraps
    # the step (the ledger's traced translator times cleaning and
    # annotation apart there) therefore wraps the columnar layers, exactly
    # as it wraps the object ones under ``run_phase_one_chunk``; calling
    # the step on the caller's own translator would instead put its
    # object-model cleaner back under this runner.
    chunk_translator = copy.copy(translator)
    chunk_translator.cleaner = ColumnarCleaner(
        topology, config.cleaning, validator
    )
    chunk_translator.annotator = annotator
    pairs = [
        chunk_translator.clean_and_annotate(sequence) for sequence in sequences
    ]

    partial = None
    if emit_partial:
        regions = translator.knowledge_regions()
        if regions is not None:
            partial = accumulate_partial(
                [annotation.sequence for _, annotation in pairs], regions
            )
    return PhaseOneChunk(pairs, partial)
