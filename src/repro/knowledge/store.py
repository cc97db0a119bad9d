"""The knowledge store: epoch-ringed ownership of mobility knowledge.

Before this subsystem existed, knowledge lifetime was implicit: the
engine's incremental path mutated a bare
:class:`~repro.core.complementing.MobilityKnowledge` and the live service
folded every window into it forever.  :class:`KnowledgeStore` makes the
lifecycle explicit and pluggable:

- **Folding** still goes through the exact shard algebra — every
  :meth:`fold` adds a :class:`~repro.core.complementing.PartialKnowledge`
  into the live knowledge, bit-for-bit identical to the pre-store path.
- **Epochs** group folds in time: :meth:`roll` closes the current epoch
  (the live service rolls once per ingestion window) and snapshots its
  shard onto a ring when the retention policy needs it.
- **Retention** (:mod:`repro.knowledge.retention`) decides what the live
  knowledge remembers: everything (:class:`~repro.knowledge.Unbounded`),
  the newest epochs with exact subtraction of the rest
  (:class:`~repro.knowledge.SlidingWindow`), or a recency-weighted decay
  (:class:`~repro.knowledge.ExponentialDecay`).

Stores speak the same algebra as shards, so two stores' retained state
can merge (:meth:`to_partial` + fold) with the bit-for-bit guarantees of
the engine's sharded barrier — the hook distributed ingestion needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.complementing import MobilityKnowledge, PartialKnowledge
from ..errors import InferenceError
from ..telemetry import get_registry
from .retention import RetentionPolicy, parse_retention


@dataclass
class Epoch:
    """One closed epoch: a shard of folds plus its data-time span.

    ``start``/``end`` are *data* timestamps (earliest / latest record in
    the folded windows), not wall clocks — TTL retention must behave the
    same on a replayed feed as on a live one.
    """

    index: int
    partial: PartialKnowledge
    start: float | None = None
    end: float | None = None

    @property
    def sequences(self) -> int:
        """Sequences folded during this epoch."""
        return self.partial.sequences_seen


class KnowledgeStore:
    """Owns one venue's live knowledge and its epoch lifecycle.

    Construct from a region vocabulary (plus smoothing and a retention
    policy or spec string), or adopt an existing knowledge object with
    ``knowledge=`` — folding through the store then mutates the very same
    :class:`~repro.core.complementing.MobilityKnowledge` the caller
    holds.  ``fold`` accumulates into the open epoch; ``roll`` closes it
    and lets the retention policy retire or discount old evidence.
    """

    def __init__(
        self,
        regions: list[str] | None = None,
        *,
        smoothing: float = 1.0,
        retention: "str | RetentionPolicy | None" = None,
        knowledge: MobilityKnowledge | None = None,
    ):
        if knowledge is None:
            if regions is None:
                raise InferenceError(
                    "a knowledge store needs a region vocabulary or an "
                    "existing knowledge object"
                )
            knowledge = MobilityKnowledge(
                regions=list(regions), smoothing=smoothing
            )
        self.knowledge = knowledge
        self.retention = parse_retention(retention)
        #: Closed, still-retained epochs, oldest first (subtractive
        #: policies only; unbounded/decay stores keep this empty).
        self.epochs: "deque[Epoch]" = deque()
        self.epochs_rolled = 0
        self.epochs_retired = 0
        #: Accumulate the open epoch's shard even when the retention
        #: policy keeps no ring, so :attr:`last_epoch` always carries the
        #: window's exact delta — the durability layer's WAL payload.
        self.track_deltas = False
        #: The most recently closed epoch (``None`` before the first
        #: roll; its ``partial`` is empty unless the ring or
        #: :attr:`track_deltas` accumulated the open epoch).
        self.last_epoch: "Epoch | None" = None
        self._current: PartialKnowledge | None = None
        self._current_start: float | None = None
        self._current_end: float | None = None
        # Monotone data-time watermark: the newest timestamp ever folded.
        # Deliberately not derived from the ring — retention may retire
        # the newest timestamped epoch (e.g. the count bound of a
        # combined window:N+Ts policy), and the TTL "present" must never
        # move backwards because evidence aged out.
        self._newest_folded: float | None = None

    # ------------------------------------------------------------------
    # Folding and rolling
    # ------------------------------------------------------------------
    def fold(
        self,
        partial: PartialKnowledge,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Fold one shard into the live knowledge and the open epoch.

        ``start``/``end`` bound the folded records in data time; the open
        epoch's span widens to cover them (TTL retention reads the span
        at roll time).  The shard itself is never mutated or retained —
        subtractive policies accumulate a store-owned copy.
        """
        self.knowledge.fold(partial)
        if self.retention.keeps_epochs or self.track_deltas:
            if self._current is None:
                self._current = PartialKnowledge(
                    regions=list(self.knowledge.regions)
                )
            self._current.add(partial)
        if start is not None and (
            self._current_start is None or start < self._current_start
        ):
            self._current_start = start
        if end is not None and (
            self._current_end is None or end > self._current_end
        ):
            self._current_end = end
        if end is not None and (
            self._newest_folded is None or end > self._newest_folded
        ):
            self._newest_folded = end

    def roll(self, now: float | None = None) -> list[Epoch]:
        """Close the open epoch and apply retention; returns retirals.

        ``now`` is the data-time "present" the TTL bound measures
        against; it defaults to the newest timestamp this store has
        folded, so replaying a recorded feed retires exactly what a live
        run would have.  Rolling with nothing folded still closes a
        (zero-count) epoch: ``window:N`` deterministically means "the
        last N rolls", whether or not every roll carried evidence.
        """
        current = self._current
        if current is None:
            current = PartialKnowledge(
                regions=list(self.knowledge.regions)
            )
        closed = Epoch(
            index=self.epochs_rolled,
            partial=current,
            start=self._current_start,
            end=self._current_end,
        )
        if self.retention.keeps_epochs:
            self.epochs.append(closed)
        self.last_epoch = closed
        self.epochs_rolled += 1
        self._current = None
        self._current_start = None
        self._current_end = None
        if now is None:
            now = self.newest_timestamp
        retired = list(self.retention.on_roll(self, now))
        self.epochs_retired += len(retired)
        registry = get_registry()
        if registry.enabled:
            registry.counter("trips_knowledge_rolls_total").inc()
            if retired:
                registry.counter("trips_knowledge_retired_total").inc(
                    len(retired)
                )
        return retired

    def retire(self, epoch: Epoch) -> Epoch:
        """Unfold one retained epoch out of the live knowledge.

        Exact: the post-retire knowledge equals — bit for bit — knowledge
        that never folded the epoch.  Normally driven by the retention
        policy from :meth:`roll`, but callable directly.
        """
        if epoch not in self.epochs:
            raise InferenceError("epoch is not retained by this store")
        self.knowledge.unfold(epoch.partial)
        self.epochs.remove(epoch)
        return epoch

    # ------------------------------------------------------------------
    # Introspection and merging
    # ------------------------------------------------------------------
    @property
    def retained_epochs(self) -> int:
        """Closed epochs still contributing to the live knowledge.

        For subtractive policies this is the ring length; unbounded and
        decay stores retain (at full or decayed weight) every epoch ever
        rolled.
        """
        if self.retention.keeps_epochs:
            return len(self.epochs)
        return self.epochs_rolled

    @property
    def newest_timestamp(self) -> float | None:
        """The newest data timestamp *ever* folded (open epoch included).

        A monotone watermark, not a scan of the retained ring: under a
        combined ``window:N+Ts`` policy the count bound can retire the
        newest timestamped epoch, and the data-time "present" that
        :meth:`roll` measures TTL against must not regress (or vanish
        once only quiet epochs remain) just because evidence aged out.
        """
        return self._newest_folded

    def to_partial(self) -> PartialKnowledge:
        """The retained counts as one independent shard (deep copy).

        Two stores' exports merge through the ordinary shard algebra —
        the basis for merging per-instance knowledge under distributed
        ingestion.
        """
        return self.knowledge.to_partial()

    def export_delta(
        self, baseline: PartialKnowledge | None = None
    ) -> PartialKnowledge:
        """The counts folded since ``baseline``, as one shard.

        ``baseline`` is knowledge this store holds — a previous
        :meth:`to_partial` snapshot, or the merged aggregate the
        distributed exchange (:mod:`repro.distributed`) rebased every
        shard to — and is subtracted through the exact inverse; with no
        baseline the delta is the full export.  A store that *retired or
        rescaled* evidence since cannot express the change additively:
        the subtraction raises :class:`~repro.errors.InferenceError`,
        which is why the exchange requires unbounded retention.
        """
        delta = self.to_partial()
        if baseline is not None:
            delta.subtract(baseline)
        return delta

    def __str__(self) -> str:
        return (
            f"KnowledgeStore({self.retention.name}, "
            f"{self.retained_epochs} retained epochs, {self.knowledge})"
        )
