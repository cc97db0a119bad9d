"""Parallel batch-translation engine (scale-out layer over the Translator).

Partitions a batch of positioning sequences into chunks, fans the
per-sequence phases out across a pluggable worker pool, runs the global
mobility-knowledge build as the barrier phase, and merges results
deterministically in input order — semantically identical results and
knowledge to the serial ``Translator.translate_batch`` (only the timing
stats differ), but bounded by the hardware instead of a single core.

The barrier itself is sharded too: phase-one workers emit per-chunk
``PartialKnowledge`` aggregates and the caller only merges them (see
"The sharded barrier" in :mod:`repro.engine.engine`).
"""

from .backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SharedValue,
    create_backend,
    default_worker_count,
    resolve_shared,
)
from .chunking import iter_chunks, partition
from .engine import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_CONTEXT_KEY,
    Engine,
    EngineConfig,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CONTEXT_KEY",
    "Engine",
    "EngineConfig",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SharedValue",
    "create_backend",
    "default_worker_count",
    "iter_chunks",
    "partition",
    "resolve_shared",
]
