"""Pluggable execution backends for the batch engine.

A backend owns the worker pool and exposes one operation: submit a pure
worker function ``fn(context, payload) -> result`` over an iterable of
payloads, its results read back **in submission order**.  The context is
the shared read-only state (the :class:`~repro.core.Translator`); how it
reaches each worker is the backend's business:

- ``serial``     — no pool; runs inline on the caller's thread.
- ``processes``  — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  the context is pickled once and installed per worker process via the
  pool initializer, so per-task payloads stay small.  The phases are
  pure-Python work holding the GIL, so a pool of processes is the only
  pool that runs them in parallel.

Every payload goes to the pool at once, and the caller can work while
the pool runs (the live window driver begins window k+1's phase one
before it finishes window k); :meth:`~ExecutionBackend.map` is a submit
read back straight away.  In process nothing runs until it is read.

Results come back unchanged: whatever the worker function returns is
yielded to the caller as is.  :attr:`ExecutionBackend.remote` tells the
caller whether payloads and results cross a process boundary: the serial
backend shares objects by reference, while across processes the engine
ships a phase-one chunk as ``RecordBatch`` columns and gets its output
back in the phase-one codec plus its ``PartialKnowledge`` shard, never a
record object.  On the ``processes`` backend both the submitted callable
(a module-level function, possibly wrapped in ``functools.partial``) and
the returned values must be picklable.

Warm pools and shared per-phase values
--------------------------------------

Pools stay warm across phases: the context installed by :meth:`open`
(the translator, or a venue map of translators) is shipped to each worker
exactly once, at pool startup.  Phase-specific state that only exists
*after* a barrier — the batch's mobility knowledge — travels through
:meth:`ExecutionBackend.share` instead: the caller publishes the value
and embeds the returned :class:`SharedValue` token in its task payloads;
workers resolve it with :func:`resolve_shared`.  On the serial backend
the token is a registry key (nothing is copied); on the process backend
the value is pickled **once**, keyed by a generation id, and each worker
unpickles it at most once per generation (a small per-process cache).
This replaces the old ``rebind`` protocol, which restarted the process
pool at the phase-two barrier and re-pickled the translator the
discarded workers already held.
"""

from __future__ import annotations

import itertools
import os
import pickle
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar, Iterable, Iterator, TypeVar

from ..errors import ConfigError

P = TypeVar("P")
R = TypeVar("R")


# -- shared per-phase values -------------------------------------------
#: Generation ids for shared values; allocated caller-side, unique for
#: the process lifetime so a worker's cache can never confuse two values.
_SHARE_KEYS = itertools.count(1)

#: In-process registry backing "inproc" tokens (the serial backend).
_INPROC_SHARED: dict[int, Any] = {}

#: Worker-side cache of unpickled "pickled" tokens, keyed by generation.
#: Bounded so interleaved phases (e.g. several venues complementing on
#: one shared pool) at most re-unpickle, never grow without limit.
_PICKLED_CACHE: "OrderedDict[int, Any]" = OrderedDict()
_PICKLED_CACHE_LIMIT = 16


@dataclass(frozen=True)
class SharedValue:
    """A handle to a value published to every worker for one phase.

    Embed the token in task payloads and call :func:`resolve_shared` in
    the worker function.  ``inproc`` tokens reference the caller's own
    registry (the serial backend); ``pickled`` tokens carry the
    pickled bytes, produced once, which each worker process unpickles at
    most once per generation ``key``.
    """

    kind: str  # "inproc" | "pickled"
    key: int
    blob: bytes | None = field(default=None, repr=False)


def resolve_shared(token: SharedValue) -> Any:
    """Worker-side lookup of a value published via ``backend.share``."""
    if token.kind == "inproc":
        try:
            return _INPROC_SHARED[token.key]
        except KeyError:
            raise ConfigError(
                f"shared value {token.key} was released before use"
            ) from None
    try:
        value = _PICKLED_CACHE[token.key]
        _PICKLED_CACHE.move_to_end(token.key)
    except KeyError:
        value = pickle.loads(token.blob)
        _PICKLED_CACHE[token.key] = value
        while len(_PICKLED_CACHE) > _PICKLED_CACHE_LIMIT:
            _PICKLED_CACHE.popitem(last=False)
    return value


class Submitted:
    """Tasks handed to a backend ahead of reading their results: iterate
    once for them, in order, or :meth:`cancel` — queued tasks never
    start, and running ones are waited out, so none outlives the call."""

    def __init__(self, results: Iterator, futures: "list[Future]" = ()):
        self._results, self._futures = results, list(futures)

    def __iter__(self) -> Iterator:
        return self._results

    def cancel(self) -> None:
        for future in self._futures:
            future.cancel()
        wait(self._futures)


def default_worker_count() -> int:
    """One worker per available CPU (at least one)."""
    return max(os.cpu_count() or 1, 1)


class ExecutionBackend(ABC):
    """A bounded pool that maps worker functions over payloads in order."""

    name: str = "abstract"
    #: Whether tasks and results cross a process boundary (and so are
    #: pickled).  A property of the backend class, not an option.
    remote: ClassVar[bool] = False

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_worker_count()
        self._context: Any = None
        self._issued_tokens: set[int] = set()

    # -- lifecycle ------------------------------------------------------
    def open(self, context: Any) -> None:
        """Bind the shared context and start the pool."""
        self._context = context

    def close(self) -> None:
        """Shut the pool down; the backend may be re-opened afterwards."""
        for key in self._issued_tokens:
            _INPROC_SHARED.pop(key, None)
        self._issued_tokens.clear()
        self._context = None

    # -- shared per-phase values ---------------------------------------
    def share(self, value: Any) -> SharedValue:
        """Publish a per-phase value without restarting the pool.

        The returned token travels inside task payloads; the worker
        function resolves it with :func:`resolve_shared`.  Release the
        token after the phase (``close`` releases any stragglers).
        """
        token = SharedValue("inproc", next(_SHARE_KEYS))
        _INPROC_SHARED[token.key] = value
        self._issued_tokens.add(token.key)
        return token

    def release(self, token: SharedValue) -> None:
        """Drop a shared value once its phase is done."""
        _INPROC_SHARED.pop(token.key, None)
        self._issued_tokens.discard(token.key)

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- mapping --------------------------------------------------------
    @abstractmethod
    def submit(
        self, fn: Callable[[Any, P], R], payloads: Iterable[P]
    ) -> Submitted:
        """Hand ``fn(context, payload)`` for every payload to the pool
        now; the :class:`Submitted` yields the results in order."""

    def map(
        self, fn: Callable[[Any, P], R], payloads: Iterable[P]
    ) -> Iterator[R]:
        """Apply ``fn(context, payload)`` to every payload, in order."""
        submitted = self.submit(fn, payloads)
        try:
            yield from submitted
        finally:
            submitted.cancel()


class SerialBackend(ExecutionBackend):
    """Inline execution — the reference backend, zero dispatch overhead.

    Always one worker: a requested pool size is validated but ignored,
    and the reported ``workers`` stays 1 so stats never misattribute
    serial timings to a pool.
    """

    name = "serial"

    def __init__(self, workers: int | None = None):
        super().__init__(workers=workers)
        self.workers = 1

    def submit(
        self, fn: Callable[[Any, P], R], payloads: Iterable[P]
    ) -> Submitted:
        return Submitted(fn(self._context, payload) for payload in payloads)


# -- process backend plumbing ------------------------------------------
# The submitted callable must be picklable, so it is a module-level
# function; the context travels once per worker through the initializer
# and lands in this per-process global.
_PROCESS_CONTEXT: Any = None


def _install_process_context(blob: bytes) -> None:
    global _PROCESS_CONTEXT
    _PROCESS_CONTEXT = pickle.loads(blob)


def _call_in_process(fn: Callable[[Any, P], R], payload: P) -> R:
    return fn(_PROCESS_CONTEXT, payload)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution; sidesteps the GIL for CPU-bound phases.

    ``remote``: every task and result is pickled, so the engine sends
    phase-one chunks as columns and takes results back in the phase-one
    codec — the calling process already holds the records.
    """

    name = "processes"
    remote = True
    _pool: ProcessPoolExecutor | None = None

    def open(self, context: Any) -> None:
        super().open(context)
        if self._pool is not None:
            return
        try:
            blob = pickle.dumps(context)
        except Exception as exc:  # pragma: no cover - context-dependent
            raise ConfigError(
                "the 'processes' backend requires a picklable translator "
                f"(model + event model + config): {exc}"
            ) from exc
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_install_process_context,
            initargs=(blob,),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    def submit(
        self, fn: Callable[[Any, P], R], payloads: Iterable[P]
    ) -> Submitted:
        if self._pool is None:
            raise ConfigError(
                f"backend {self.name!r} is not open; call open() first"
            )
        call = partial(_call_in_process, fn)
        futures = [self._pool.submit(call, payload) for payload in payloads]
        return Submitted((future.result() for future in futures), futures)

    def share(self, value: Any) -> SharedValue:
        """Pickle the value once; workers unpickle it once per generation.

        The pool keeps running — the static context installed at
        :meth:`open` (the expensive part) is never re-shipped.  The blob
        rides along inside each task payload, but pickling happened
        exactly once here and each worker caches the unpickled value by
        generation key, so per-task cost is a bytes copy.

        The per-task transfer is a deliberate trade-off:
        ``ProcessPoolExecutor`` offers no way to target each worker once
        (the old protocol managed it only by restarting the pool, paying
        a full pool spin-up plus a translator re-pickle at every
        barrier), and shared values are small per-phase state — count
        aggregates, not the model-laden translator — so copying the
        bytes per chunk is far cheaper than either restart or rebuild.
        """
        try:
            blob = pickle.dumps(value)
        except Exception as exc:  # pragma: no cover - context-dependent
            raise ConfigError(
                f"the 'processes' backend requires picklable shared "
                f"values: {exc}"
            ) from exc
        return SharedValue("pickled", next(_SHARE_KEYS), blob)

    def release(self, token: SharedValue) -> None:
        """Nothing held caller-side; worker caches evict by generation."""


BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def create_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by registry name."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ConfigError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return backend_cls(workers=workers)
