"""Columnar phase one: the chunk pipeline assembling the kernels.

:func:`run_phase_one_chunk_columnar` is the drop-in counterpart of
:func:`repro.core.translator.run_phase_one_chunk`: same signature, same
:class:`~repro.core.translator.PhaseOneChunk` result, proven bit-for-bit
equal by ``tests/test_columnar_equivalence.py``.  The engine dispatches
between the two on ``EngineConfig.record_layout``; this one is the
default, and the object-model runner is the reference it is checked
against.

Per chunk it columnarizes the sequences into one
:class:`~repro.columnar.batch.RecordBatch`, bulk-primes a
:class:`~repro.columnar.locate.LocatorSession` over the batch (the numpy
fast path when available), and runs the cleaning/annotation kernels of
:mod:`repro.columnar.kernels` against the shared session.

:data:`CHUNKS_RUN` counts executed columnar chunks and :func:`selftest`
asserts end-to-end equality on an inline micro-venue — CI's guard, run on
every matrix leg, that the default pipeline cannot silently fall back to
the object path (for example through an import guard swallowing numpy).
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

from ..core.annotation import MobilitySemanticsAnnotator
from ..core.translator import PhaseOneChunk, Translator
from ..dsm import DigitalSpaceModel
from ..positioning import PositioningSequence
from . import locate as _locate
from .batch import RecordBatch
from .kernels import (
    ColumnarCleaner,
    ColumnarSpatialMatcher,
    ColumnarSpeedValidator,
    ColumnarSplitter,
    accumulate_partial,
)
from .locate import PointLocator

#: Columnar chunks executed in this process; the CI selftest checks it
#: advances, so the default pipeline cannot silently run the object path.
CHUNKS_RUN = 0

#: One prepared locator per model; sessions (and their memos) are per
#: chunk, the flat geometry tables are shared and staleness-checked.
#: Keyed by ``id(model)`` (models are unhashable) and LRU-bounded so a
#: long-lived process caps how many venues' geometry it pins; the cached
#: locator holds its model alive, so an id cannot be reused while its
#: entry exists — the identity guard below is pure belt and braces.
_locators: "OrderedDict[int, PointLocator]" = OrderedDict()
_MAX_LOCATORS = 8
#: Chunks of several venues run concurrently on the ``threads`` backend:
#: lookup, insert and evict are one critical section, so an eviction cannot
#: land between another thread's ``get`` and ``move_to_end``, and a model
#: gets exactly one locator however many threads ask for it first.
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
    global CHUNKS_RUN
    CHUNKS_RUN += 1
    batch, _spans = RecordBatch.from_sequences(sequences)
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


def _micro_venue() -> DigitalSpaceModel:
    """A tiny inline hall+shop venue for the selftest (no test imports)."""
    from ..dsm import EntityKind, IndoorEntity, SemanticRegion, SemanticTag
    from ..geometry import Point, Polygon

    model = DigitalSpaceModel(name="columnar-selftest")
    model.add_entity(
        IndoorEntity("hall", EntityKind.HALLWAY, Polygon.rectangle(0, 0, 20, 10))
    )
    model.add_entity(
        IndoorEntity("shop", EntityKind.ROOM, Polygon.rectangle(0, 10, 10, 20))
    )
    model.add_entity(IndoorEntity("door-shop", EntityKind.DOOR, Point(5, 9.7)))
    model.add_entity(
        IndoorEntity(
            "door-main", EntityKind.DOOR, Point(0, 5),
            properties={"entrance": True},
        )
    )
    tag = SemanticTag("shop", "shop")
    model.add_region(SemanticRegion("r-shop", "Shop", tag, entity_ids=("shop",)))
    model.add_region(
        SemanticRegion(
            "r-hall", "Hall", SemanticTag("hall", "hallway"),
            entity_ids=("hall",),
        )
    )
    return model


def _micro_feed() -> list[PositioningSequence]:
    """Deterministic sequences: a dwell, a walk, and a dirty one (a floor
    flap and a teleport)."""
    from ..geometry import Point
    from ..positioning import RawPositioningRecord

    def sequence(device_id, points, interval=5.0):
        return PositioningSequence(
            device_id,
            [
                RawPositioningRecord(i * interval, device_id, Point(*point))
                for i, point in enumerate(points)
            ],
        )

    # Long enough that the chunk clears the vectorized prime's row floor.
    dwell = sequence(
        "dev-dwell",
        [(5.0 + 0.1 * (i % 3), 15.0 - 0.1 * (i % 2)) for i in range(40)],
    )
    walk = sequence(
        "dev-walk",
        [(1.0 + i, 5.0) for i in range(10)]
        + [(5.0, 9.0), (5.0, 12.0)]
        + [(5.0 + 0.1 * (i % 3), 15.0) for i in range(12)],
    )
    dirty = sequence(
        "dev-dirty",
        [(1.0 + i, 5.0) for i in range(3)]
        + [(4.0, 5.0, 2)]  # floor flap: right spot, a floor that isn't there
        + [(5.0, 5.0)]
        + [(19.0, 19.0)]  # infeasible teleport into the shop corner
        + [(7.0 + i, 5.0) for i in range(5)],
    )
    return [dwell, walk, dirty]


def selftest() -> dict:
    """Prove the columnar path runs and matches the object path.

    Runs both layouts over an inline micro-venue and asserts:

    1. cleaning and annotation results are equal pair for pair, and the
       emitted knowledge shards are equal (dwell totals bit for bit), on a
       feed whose dirty sequence needs both repair steps — a floor
       correction and an interpolation — so the session-backed corrector
       and interpolator run;
    2. :data:`CHUNKS_RUN` advanced — the columnar code actually executed;
    3. when numpy is importable and not disabled via
       ``TRIPS_COLUMNAR_NUMPY=0``, the vectorized prime path ran — an
       import guard cannot silently swallow the fast path.

    Returns a summary dict (CI prints it); raises ``AssertionError`` on
    any violation.
    """
    from ..core.translator import run_phase_one_chunk

    model = _micro_venue()
    translator = Translator(model)
    feed = _micro_feed()

    chunks_before = CHUNKS_RUN
    numpy_before = _locate.NUMPY_PRIME_COUNT
    objects = run_phase_one_chunk(translator, feed, emit_partial=True)
    columnar = run_phase_one_chunk_columnar(translator, feed, emit_partial=True)

    assert CHUNKS_RUN == chunks_before + 1, "columnar chunk did not execute"
    assert len(objects.pairs) == len(columnar.pairs)
    for index, (obj_pair, col_pair) in enumerate(
        zip(objects.pairs, columnar.pairs)
    ):
        assert obj_pair[0] == col_pair[0], f"cleaning differs at {index}"
        assert obj_pair[1] == col_pair[1], f"annotation differs at {index}"
    assert objects.partial == columnar.partial, "knowledge shards differ"

    numpy_ran = _locate.NUMPY_PRIME_COUNT > numpy_before
    if _locate._NUMPY_ENABLED:
        assert numpy_ran, (
            "numpy is available and enabled but the vectorized prime path "
            "did not run — the columnar fast path was silently skipped"
        )
    for step in ("floor_corrected", "interpolated"):
        assert any(
            getattr(cleaning.report, step) for cleaning, _ in columnar.pairs
        ), f"selftest feed no longer exercises the {step} repair"
    return {
        "sequences": len(feed),
        "pairs_equal": True,
        "partial_equal": True,
        "numpy_prime_ran": numpy_ran,
        "chunks_run": CHUNKS_RUN,
    }
