"""Columnar phase one, the engine's pipeline: record batches and exact kernels.

The reference implementation of phase one (clean + annotate,
``repro.core.translator.run_phase_one_chunk``) walks per-record
``RawPositioningRecord`` objects.  This package is what the engine runs
instead: :class:`RecordBatch` holds one window of records as
parallel arrays (stdlib ``array`` columns with zero-copy numpy views),
and the kernels in :mod:`repro.columnar.kernels`
run the profiled hot loops — speed-constraint cleaning, point-in-region
annotation lookups, dwell/edge knowledge accumulation — over flat columns
with memoized, bulk-primed point location
(:mod:`repro.columnar.locate`).

Invariant: the columnar layout is **bit-for-bit** equivalent to the
object layout.  Every cleaning result, annotation, and knowledge shard
produced by :func:`run_phase_one_chunk_columnar` is identical — float
bits included — to ``run_phase_one_chunk``'s output, across buildings,
engine backends and retention policies.  The
kernels achieve this by replicating the object model's arithmetic
expression for expression (``math.hypot`` distances, tolerance checks,
tie-break scan orders) and using vectorization only for comparisons —
bounding-box masks, and the rectangle identity that lets a mask *be* the
containment answer — never for float arithmetic that reaches a decision.
``tests/test_columnar_equivalence.py`` proves the claim with a
differential hypothesis suite.

There is no selector: :class:`~repro.engine.Engine` always runs this
package, and the object model stays in ``repro.core`` as the
single-sequence API and the reference — ``Translator.translate`` /
``Translator.translate_batch`` / ``run_phase_one_chunk`` — that the
differential suites and the ledger's ``reference`` mode compare against.
"""

from .batch import RecordBatch
from .kernels import (
    ColumnarCleaner,
    ColumnarSpatialMatcher,
    ColumnarSpeedValidator,
    ColumnarSplitter,
    accumulate_partial,
)
from .locate import LocatorSession, PointLocator
from .pipeline import run_phase_one_batch, run_phase_one_chunk_columnar

__all__ = [
    "RecordBatch",
    "ColumnarCleaner",
    "ColumnarSpatialMatcher",
    "ColumnarSpeedValidator",
    "ColumnarSplitter",
    "LocatorSession",
    "PointLocator",
    "accumulate_partial",
    "run_phase_one_batch",
    "run_phase_one_chunk_columnar",
]
