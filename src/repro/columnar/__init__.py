"""Columnar phase one, the default pipeline: record batches and exact kernels.

The reference implementation of phase one (clean + annotate,
``repro.core.translator.run_phase_one_chunk``) walks per-record
``RawPositioningRecord`` objects.  This package is what the engine runs
instead: :class:`RecordBatch` holds one window of records as
parallel arrays (stdlib ``array`` columns, zero-copy numpy views when
numpy is available), and the kernels in :mod:`repro.columnar.kernels`
run the profiled hot loops — speed-constraint cleaning, point-in-region
annotation lookups, dwell/edge knowledge accumulation — over flat columns
with memoized, bulk-primed point location
(:mod:`repro.columnar.locate`).

Invariant: the columnar layout is **bit-for-bit** equivalent to the
object layout.  Every cleaning result, annotation, and knowledge shard
produced by :func:`run_phase_one_chunk_columnar` is identical — float
bits included — to ``run_phase_one_chunk``'s output, across buildings,
engine backends, knowledge-build modes and retention policies.  The
kernels achieve this by replicating the object model's arithmetic
expression for expression (``math.hypot`` distances, tolerance checks,
tie-break scan orders) and using vectorization only for comparisons —
bounding-box masks, and the rectangle identity that lets a mask *be* the
containment answer — never for float arithmetic that reaches a decision.
``tests/test_columnar_equivalence.py`` proves the claim with a
differential hypothesis suite; ``selftest`` guards CI against the fast
path being silently skipped.

``EngineConfig.record_layout`` defaults to ``"columnar"``; ``"objects"``
selects the reference oracle (also via the ``TRIPS_RECORD_LAYOUT``
environment variable or the CLI's ``--record-layout`` flag), and
``Translator.translate_batch`` always runs it.
"""

from .batch import NUMPY_AVAILABLE, RecordBatch
from .kernels import (
    ColumnarCleaner,
    ColumnarSpatialMatcher,
    ColumnarSpeedValidator,
    ColumnarSplitter,
    accumulate_partial,
)
from .locate import LocatorSession, PointLocator
from .pipeline import run_phase_one_chunk_columnar, selftest

__all__ = [
    "NUMPY_AVAILABLE",
    "RecordBatch",
    "ColumnarCleaner",
    "ColumnarSpatialMatcher",
    "ColumnarSpeedValidator",
    "ColumnarSplitter",
    "LocatorSession",
    "PointLocator",
    "accumulate_partial",
    "run_phase_one_chunk_columnar",
    "selftest",
]
