"""Pluggable retention policies for the epoch-based knowledge lifecycle.

A :class:`~repro.knowledge.KnowledgeStore` closes one *epoch* — one
:class:`~repro.core.complementing.PartialKnowledge` snapshot of recently
folded mobility — per roll (the live service rolls once per ingestion
window) and hands the store to its retention policy.  The policy decides
what the live knowledge remembers:

- :class:`Unbounded` — remember everything, forever; today's behaviour
  and the default.  No epoch ring is materialized, so a store under
  unbounded retention is exactly a bare
  :class:`~repro.core.complementing.MobilityKnowledge` plus bookkeeping.
- :class:`SlidingWindow` — remember the last ``max_epochs`` epochs and/or
  the epochs younger than ``ttl_seconds`` of *data time*.  Expired epochs
  are retired by **subtracting** their shard
  (:meth:`~repro.core.complementing.MobilityKnowledge.unfold`) — an exact
  inverse, so the surviving knowledge is bit-for-bit what it would have
  been had the expired epochs never been folded.
- :class:`ExponentialDecay` — remember everything, but discount it:
  every roll multiplies the aggregates by ``0.5 ** (1 / half_life)``, so
  an epoch's evidence halves after ``half_life`` rolls and the prior
  tracks recent mobility without storing any epoch ring at all.

Policies are addressable by spec string — ``"unbounded"``,
``"window:N"`` (count), ``"window:Ns"`` (data-time TTL seconds),
``"decay:H"`` (half-life in rolls) — parsed by :func:`parse_retention`,
which is what the live service's ``retention``, the task-config
``knowledge_retention`` field and ``trips serve --retention`` validate
against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .store import Epoch, KnowledgeStore

#: Decayed entries below this weight are pruned from the aggregates so an
#: eternally-decaying venue's memory stays bounded by recent support.
DECAY_PRUNE_BELOW = 1e-9


@runtime_checkable
class RetentionPolicy(Protocol):
    """What a :class:`~repro.knowledge.KnowledgeStore` asks of retention.

    ``keeps_epochs`` tells the store whether to materialize the closed
    epochs' shards in its ring (subtractive policies need them; unbounded
    and decay do not, keeping per-epoch memory at zero).  ``on_roll``
    runs after every epoch roll and may retire epochs
    (:meth:`KnowledgeStore.retire`) or rescale the live knowledge; it
    returns the epochs it retired, oldest first.
    """

    #: Short spec-style name, e.g. ``"window:4"``; used in stats/CLI echo.
    name: str
    #: Whether the store must keep closed epochs' shards in its ring.
    keeps_epochs: bool

    def on_roll(
        self, store: "KnowledgeStore", now: float | None
    ) -> "list[Epoch]":
        """Apply retention after one epoch roll; returns retired epochs."""
        ...  # pragma: no cover


class Unbounded:
    """Fold forever — the default, and the pre-lifecycle behaviour.

    The store keeps no epoch ring and never retires anything, so its live
    knowledge is bit-for-bit the plain cumulative fold: the PR 3
    invariant (``finalize()`` == one-shot ``Engine.translate_batch``)
    holds unchanged under this policy.
    """

    name = "unbounded"
    keeps_epochs = False

    def on_roll(
        self, store: "KnowledgeStore", now: float | None
    ) -> "list[Epoch]":
        return []

    def __repr__(self) -> str:
        return "Unbounded()"


class SlidingWindow:
    """Keep the newest epochs; retire the rest by exact subtraction.

    ``max_epochs`` bounds the ring by count; ``ttl_seconds`` bounds it by
    *data time* — an epoch whose newest folded record is older than
    ``now - ttl_seconds`` at roll time expires.  Either bound may be used
    alone or both together (whichever expires an epoch first wins).
    Retiring is :meth:`MobilityKnowledge.unfold`, the exact inverse of
    the fold, so the surviving prior equals one built from only the
    retained epochs — not an approximation of it.
    """

    keeps_epochs = True

    def __init__(
        self,
        max_epochs: int | None = None,
        ttl_seconds: float | None = None,
    ):
        if max_epochs is None and ttl_seconds is None:
            raise ConfigError(
                "sliding-window retention needs max_epochs and/or "
                "ttl_seconds"
            )
        if max_epochs is not None and max_epochs < 1:
            raise ConfigError(
                f"max_epochs must be >= 1, got {max_epochs}"
            )
        if ttl_seconds is not None and not (
            math.isfinite(ttl_seconds) and ttl_seconds > 0
        ):
            raise ConfigError(
                f"ttl_seconds must be finite and positive, got {ttl_seconds}"
            )
        self.max_epochs = max_epochs
        self.ttl_seconds = ttl_seconds
        if max_epochs is not None and ttl_seconds is not None:
            self.name = f"window:{max_epochs}+{ttl_seconds:g}s"
        elif max_epochs is not None:
            self.name = f"window:{max_epochs}"
        else:
            self.name = f"window:{ttl_seconds:g}s"

    def on_roll(
        self, store: "KnowledgeStore", now: float | None
    ) -> "list[Epoch]":
        retired = []
        if self.max_epochs is not None:
            while len(store.epochs) > self.max_epochs:
                retired.append(store.retire(store.epochs[0]))
        if self.ttl_seconds is not None and now is not None:
            horizon = now - self.ttl_seconds
            while store.epochs and (
                store.epochs[0].end is None or store.epochs[0].end < horizon
            ):
                retired.append(store.retire(store.epochs[0]))
        return retired

    def __repr__(self) -> str:
        return (
            f"SlidingWindow(max_epochs={self.max_epochs}, "
            f"ttl_seconds={self.ttl_seconds})"
        )


class ExponentialDecay:
    """Discount old mobility instead of forgetting it outright.

    Every epoch roll multiplies the live knowledge's aggregates by
    ``0.5 ** (1 / half_life)``; after ``half_life`` rolls an epoch's
    evidence weighs half, after ``2 * half_life`` a quarter, and so on —
    the counts become a recency-weighted sum over all history.  No epoch
    ring is kept; decayed weights below :data:`DECAY_PRUNE_BELOW` are
    pruned so memory stays bounded by recent support.
    """

    keeps_epochs = False

    def __init__(self, half_life: float):
        if not (math.isfinite(half_life) and half_life > 0):
            raise ConfigError(
                f"decay half-life must be finite and positive, got "
                f"{half_life}"
            )
        self.half_life = half_life
        self.factor = 0.5 ** (1.0 / half_life)
        self.name = f"decay:{half_life:g}"

    def on_roll(
        self, store: "KnowledgeStore", now: float | None
    ) -> "list[Epoch]":
        if store.knowledge is not None:
            store.knowledge.scale(self.factor, prune_below=DECAY_PRUNE_BELOW)
        return []

    def __repr__(self) -> str:
        return f"ExponentialDecay(half_life={self.half_life!r})"


def parse_retention(
    spec: "str | RetentionPolicy | None",
) -> RetentionPolicy:
    """Materialize a retention policy from its spec string.

    Accepts an already-built policy (returned as-is), ``None``
    (unbounded), or one of::

        unbounded          fold forever (default)
        window:N           keep the newest N epochs
        window:Ns          keep epochs newer than N seconds of data time
        decay:H            halve old evidence every H epoch rolls

    Anything else raises :class:`~repro.errors.ConfigError` — this is the
    single validation point shared by the live service's ``retention``,
    the task-config ``knowledge_retention`` field and ``trips serve
    --retention``.
    """
    if spec is None:
        return Unbounded()
    if isinstance(spec, RetentionPolicy) and not isinstance(spec, str):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(
            f"retention must be a spec string or RetentionPolicy, got "
            f"{type(spec).__name__}"
        )
    text = spec.strip().lower()
    if text in ("", "unbounded", "none"):
        return Unbounded()
    kind, separator, argument = text.partition(":")
    if not separator or not argument:
        raise ConfigError(
            f"unknown retention spec {spec!r} (expected 'unbounded', "
            "'window:N', 'window:Ns' or 'decay:H')"
        )
    # ``int``/``float`` accept Python numeric-literal syntax ("1_0"
    # parses as 10, " 10" parses too) — a config surface must not:
    # only canonical digit strings round-trip through policy names and
    # the durable wire format.
    if "_" in argument or argument != argument.strip():
        raise ConfigError(
            f"malformed retention spec {spec!r}: {argument!r} is not a "
            "canonical number (underscores and whitespace are not "
            "accepted)"
        )
    if kind == "window":
        try:
            if argument.endswith("s"):
                return SlidingWindow(ttl_seconds=float(argument[:-1]))
            return SlidingWindow(max_epochs=int(argument))
        except ValueError as exc:
            raise ConfigError(
                f"malformed window retention {spec!r}: {exc}"
            ) from exc
    if kind == "decay":
        try:
            return ExponentialDecay(half_life=float(argument))
        except ValueError as exc:
            raise ConfigError(
                f"malformed decay retention {spec!r}: {exc}"
            ) from exc
    raise ConfigError(
        f"unknown retention spec {spec!r} (expected 'unbounded', "
        "'window:N', 'window:Ns' or 'decay:H')"
    )
