"""Mobility knowledge: aggregated transition statistics between regions.

"A knowledge construction aggregates the mobility semantics already
annotated to build the prior mobility knowledge that captures the
transition probabilities between semantic regions" (paper §3).  The
knowledge is a Laplace-smoothed first-order Markov model over the DSM's
region vocabulary, plus per-region dwell-duration and event statistics the
inference step uses to allocate time and pick event annotations.

The aggregation side is factored into :class:`PartialKnowledge`, a purely
additive shard of raw counts with a commutative, associative
:meth:`~PartialKnowledge.merge`.  Independent workers can each observe a
slice of the batch and the shards merge in O(#regions + #edges) — the
basis of the engine's sharded knowledge build — while
:class:`MobilityKnowledge` keeps the smoothed-query layer
(:meth:`~MobilityKnowledge.transition_probability` and friends) on top of
the same aggregates.  Dwell seconds accumulate through :class:`ExactSum`,
so merged totals are bit-for-bit identical no matter how the batch was
sharded.

The algebra is a group, not just a monoid: every additive operation has
an exact inverse (:meth:`ExactSum.subtract`,
:meth:`PartialKnowledge.subtract`, :meth:`MobilityKnowledge.unfold`), so
a shard folded earlier can later be retired and the result equals — bit
for bit — the state that never folded it.  That inverse is what the
epoch-based knowledge lifecycle in :mod:`repro.knowledge`
(:class:`~repro.knowledge.KnowledgeStore` plus its pluggable retention
policies) is built on: sliding-window retention subtracts expired epochs'
shards instead of rebuilding, and exponential decay uses
:meth:`MobilityKnowledge.scale` to discount old mobility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from ...errors import InferenceError
from ..semantics import EVENT_STAY, MobilitySemanticsSequence

#: Transitions across gaps longer than this are not counted — the device
#: plausibly visited unobserved regions in between, so the pair is not
#: evidence of a direct transition.
DEFAULT_TRANSITION_GAP = 600.0


class ExactSum:
    """Exact, order-independent float accumulator (Shewchuk expansions).

    Keeps the running total as a list of non-overlapping partials whose
    mathematical sum is *exactly* the sum of everything added — the same
    representation :func:`math.fsum` uses internally.  :attr:`value` is
    therefore the correctly-rounded true sum regardless of how the
    additions were grouped or ordered, which is what makes knowledge-shard
    merges associative bit for bit (plain float ``+=`` is not).
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Iterable[float] = ()):
        self._partials: list[float] = []
        for value in values:
            self.add(value)

    def add(self, value: float) -> None:
        """Add one float exactly."""
        partials = self._partials
        x = float(value)
        count = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[count] = low
                count += 1
            x = high
        partials[count:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in; exact, so grouping never matters."""
        for partial in other._partials:
            self.add(partial)

    def subtract(self, other: "ExactSum") -> None:
        """The exact inverse of :meth:`merge`.

        Adds the negation of every one of ``other``'s partials; since each
        addition is exact, the mathematical total returns to precisely the
        pre-merge sum, so ``a.merge(b); a.subtract(b)`` leaves ``a`` equal
        (and :attr:`value` bit-for-bit identical) to never having merged.
        """
        for partial in other._partials:
            self.add(-partial)

    def scale(self, factor: float) -> None:
        """Multiply the total by ``factor`` (correctly-rounded, in place).

        Scaling is *not* part of the exact group — it rounds once, to the
        nearest float of ``value * factor`` — which is all the exponential
        decay retention policy needs.
        """
        scaled = self.value * float(factor)
        self._partials = [scaled] if scaled else []

    def copy(self) -> "ExactSum":
        clone = ExactSum()
        clone._partials = list(self._partials)
        return clone

    def expansion(self) -> list[float]:
        """The canonical expansion of the exact total, smallest first.

        c₀ is :attr:`value`, c₁ the correctly-rounded exact remainder,
        and so on until zero (an exact zero is ``[]``): a function of
        the exact total alone, not of the order of the additions.  The
        durable wire format (:mod:`repro.durability`) persists it, and
        ``ExactSum(expansion)`` rebuilds the total.
        """
        partials = self._partials
        if len(partials) < 2:
            return partials[:] if partials and partials[0] else []
        terms = partials[:]
        canonical: list[float] = []
        while head := math.fsum(terms):  # the exact remainder, rounded
            canonical.append(head)
            terms.append(-head)
        return canonical[::-1]

    @property
    def value(self) -> float:
        """The correctly-rounded total."""
        return math.fsum(self._partials)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSum):
            return NotImplemented
        return self.value == other.value

    def __repr__(self) -> str:
        return f"ExactSum({self.value!r})"


class RegionStats:
    """Aggregates about one semantic region.

    Dwell seconds go through an :class:`ExactSum`, so two stats built from
    the same visits compare equal however the visits were sharded.
    """

    __slots__ = ("visits", "stay_count", "_dwell")

    def __init__(
        self, visits: int = 0, total_dwell: float = 0.0, stay_count: int = 0
    ):
        self.visits = visits
        self.stay_count = stay_count
        self._dwell = ExactSum()
        if total_dwell:
            self._dwell.add(total_dwell)

    @property
    def total_dwell(self) -> float:
        """Total seconds spent across all visits."""
        return self._dwell.value

    @property
    def mean_dwell(self) -> float:
        """Mean seconds spent per visit (0 when unvisited)."""
        if self.visits == 0:
            return 0.0
        return self.total_dwell / self.visits

    @property
    def stay_fraction(self) -> float:
        """Fraction of visits annotated as stays."""
        if self.visits == 0:
            return 0.0
        return self.stay_count / self.visits

    @property
    def is_empty(self) -> bool:
        """Nothing recorded: adding or subtracting it is the identity."""
        return not (self.visits or self.stay_count or self._dwell._partials)

    def add_visit(self, duration: float, stay: bool) -> None:
        """Record one visit."""
        self.visits += 1
        self._dwell.add(duration)
        if stay:
            self.stay_count += 1

    def add(self, other: "RegionStats") -> None:
        """Fold another region's aggregates in (additive, exact)."""
        self.visits += other.visits
        self.stay_count += other.stay_count
        self._dwell.merge(other._dwell)

    def subtract(self, other: "RegionStats") -> None:
        """The exact inverse of :meth:`add`.

        Only valid for stats previously folded in: going negative on the
        integer counters raises :class:`InferenceError` (the float dwell
        total cannot be validated the same way, but is exact whenever the
        counters are).
        """
        if other.visits > self.visits or other.stay_count > self.stay_count:
            raise InferenceError(
                "cannot subtract region stats that were never added "
                f"(visits {self.visits} - {other.visits}, stays "
                f"{self.stay_count} - {other.stay_count})"
            )
        self.visits -= other.visits
        self.stay_count -= other.stay_count
        self._dwell.subtract(other._dwell)

    def scale(self, factor: float) -> None:
        """Discount the aggregates by ``factor`` (decay retention).

        The integer counters become float weights; every derived quantity
        (:attr:`mean_dwell`, :attr:`stay_fraction`) is a ratio of
        uniformly scaled terms, so it is unchanged by the scaling itself
        and only shifts as newer, unscaled visits fold in on top.
        """
        self.visits = self.visits * factor
        self.stay_count = self.stay_count * factor
        self._dwell.scale(factor)

    def copy(self) -> "RegionStats":
        clone = RegionStats(visits=self.visits, stay_count=self.stay_count)
        clone._dwell = self._dwell.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionStats):
            return NotImplemented
        return (
            self.visits == other.visits
            and self.stay_count == other.stay_count
            and self.total_dwell == other.total_dwell
        )

    def __repr__(self) -> str:
        return (
            f"RegionStats(visits={self.visits}, "
            f"total_dwell={self.total_dwell!r}, stay_count={self.stay_count})"
        )


def region_entry(stats: dict[str, RegionStats], region: str) -> RegionStats:
    """``stats[region]``, created empty on first touch (sparse shards).

    Callers add into the fresh entry, never copy one in, so its
    :class:`ExactSum` walks the states a pre-allocated entry would."""
    entry = stats.get(region)
    if entry is None:
        entry = stats[region] = RegionStats()
    return entry


def _observe_sequence(
    sequence: MobilitySemanticsSequence,
    region_set: set[str],
    stats: dict[str, RegionStats],
    transitions: dict[str, dict[str, int]],
    outgoing_totals: dict[str, int],
    max_transition_gap: float,
) -> None:
    """Accumulate one annotated sequence into the raw aggregates.

    Shared by :meth:`PartialKnowledge.observe` and
    :meth:`MobilityKnowledge.observe`, so the sharded and rebuild paths
    count by exactly the same rules.
    """
    semantics = [s for s in sequence if s.region_id in region_set]
    for triplet in semantics:
        region_entry(stats, triplet.region_id).add_visit(
            triplet.duration, triplet.event == EVENT_STAY
        )
    for current, following in zip(semantics, semantics[1:]):
        gap = following.time_range.start - current.time_range.end
        if gap > max_transition_gap:
            continue
        if current.region_id == following.region_id:
            continue
        outgoing = transitions.setdefault(current.region_id, {})
        outgoing[following.region_id] = outgoing.get(following.region_id, 0) + 1
        outgoing_totals[current.region_id] = (
            outgoing_totals.get(current.region_id, 0) + 1
        )


def _add_counts(
    source: "PartialKnowledge",
    transitions: dict[str, dict[str, int]],
    outgoing_totals: dict[str, int],
    stats: dict[str, RegionStats],
) -> int:
    """Element-wise add a shard's raw counts into target aggregates.

    Shared by :meth:`PartialKnowledge.add` and
    :meth:`MobilityKnowledge.fold`, so shard-to-shard and
    shard-to-knowledge merges apply identical rules.  Returns the shard's
    ``sequences_seen`` for the caller to add.
    """
    for origin, outgoing in source.transitions.items():
        destinations = transitions.setdefault(origin, {})
        for destination, count in outgoing.items():
            destinations[destination] = destinations.get(destination, 0) + count
    for origin, total in source.outgoing_totals.items():
        outgoing_totals[origin] = outgoing_totals.get(origin, 0) + total
    for region, shard_stats in source.stats.items():
        if not shard_stats.is_empty:
            region_entry(stats, region).add(shard_stats)
    return source.sequences_seen


def _subtract_counts(
    source: "PartialKnowledge",
    transitions: dict[str, dict[str, int]],
    outgoing_totals: dict[str, int],
    stats: dict[str, RegionStats],
) -> int:
    """Element-wise remove a shard's raw counts from target aggregates.

    The exact inverse of :func:`_add_counts`: transition and outgoing
    entries that reach zero are pruned, so those dicts are *structurally*
    identical — not merely numerically — to aggregates that never folded
    the shard; region stats stay at zero, which equality reads as a
    missing entry.  Counts are validated up front (a visited region the
    target has no entry for included) and the target is untouched on
    failure, so a shard that was never folded cannot half-corrupt it.
    """
    for origin, outgoing in source.transitions.items():
        destinations = transitions.get(origin, {})
        for destination, count in outgoing.items():
            if destinations.get(destination, 0) < count:
                raise InferenceError(
                    "cannot subtract a knowledge shard that was never "
                    f"folded (transition {origin!r} -> {destination!r}: "
                    f"{destinations.get(destination, 0)} - {count})"
                )
    for origin, total in source.outgoing_totals.items():
        if outgoing_totals.get(origin, 0) < total:
            raise InferenceError(
                "cannot subtract a knowledge shard that was never folded "
                f"(outgoing total of {origin!r}: "
                f"{outgoing_totals.get(origin, 0)} - {total})"
            )
    visited = [
        (region, shard_stats)
        for region, shard_stats in source.stats.items()
        if not shard_stats.is_empty
    ]
    for region, shard_stats in visited:
        target = stats.get(region)
        if target is None:
            raise InferenceError(
                "cannot subtract a knowledge shard that was never folded "
                f"(region {region!r} has no stats to subtract from)"
            )
        if (
            shard_stats.visits > target.visits
            or shard_stats.stay_count > target.stay_count
        ):
            raise InferenceError(
                "cannot subtract a knowledge shard that was never folded "
                f"(region stats of {region!r})"
            )
    for origin, outgoing in source.transitions.items():
        destinations = transitions[origin]
        for destination, count in outgoing.items():
            remaining = destinations[destination] - count
            if remaining:
                destinations[destination] = remaining
            else:
                del destinations[destination]
        if not destinations:
            del transitions[origin]
    for origin, total in source.outgoing_totals.items():
        remaining = outgoing_totals[origin] - total
        if remaining:
            outgoing_totals[origin] = remaining
        else:
            del outgoing_totals[origin]
    for region, shard_stats in visited:
        stats[region].subtract(shard_stats)
    return source.sequences_seen


@dataclass
class PartialKnowledge:
    """One shard's additive slice of the mobility-knowledge aggregates.

    Raw counts only — no smoothing, no queries — so every field is
    additive: merging two shards is element-wise addition over transition
    counts, outgoing totals, per-region :class:`RegionStats` and
    ``sequences_seen``.  That makes :meth:`merge` commutative and
    associative, and :meth:`MobilityKnowledge.from_partials` over any
    sharding of a batch identical to
    :meth:`MobilityKnowledge.from_sequences` over the concatenation.

    The shard is a plain picklable dataclass, so the engine's process
    backend can build one per chunk in a worker and ship it back to the
    caller for the O(#regions + #edges) barrier merge.  ``stats`` is
    sparse: a region has an entry only once something touched it, so a
    window's shard costs what the window visited, not the vocabulary.
    """

    regions: list[str]
    transitions: dict[str, dict[str, int]] = field(default_factory=dict)
    outgoing_totals: dict[str, int] = field(default_factory=dict)
    stats: dict[str, RegionStats] = field(default_factory=dict)
    sequences_seen: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise InferenceError("partial knowledge needs a region vocabulary")
        self.regions = sorted(set(self.regions))
        self._region_set = set(self.regions)

    def __eq__(self, other: object) -> bool:
        """Field equality, reading a missing region entry as empty, so a
        sparse shard equals its dense twin (decoded, ``to_partial()``)."""
        if not isinstance(other, PartialKnowledge):
            return NotImplemented
        empty = RegionStats()
        return (
            self.regions == other.regions
            and self.transitions == other.transitions
            and self.outgoing_totals == other.outgoing_totals
            and self.sequences_seen == other.sequences_seen
            and all(
                self.stats.get(region, empty) == other.stats.get(region, empty)
                for region in self.regions
            )
        )

    @classmethod
    def from_sequences(
        cls,
        sequences: Iterable[MobilitySemanticsSequence],
        regions: list[str],
        max_transition_gap: float = DEFAULT_TRANSITION_GAP,
    ) -> "PartialKnowledge":
        """Build one shard by observing a slice of the batch."""
        partial = cls(regions=list(regions))
        for sequence in sequences:
            partial.observe(sequence, max_transition_gap)
        return partial

    def observe(
        self,
        sequence: MobilitySemanticsSequence,
        max_transition_gap: float = DEFAULT_TRANSITION_GAP,
    ) -> None:
        """Fold one annotated sequence into the shard."""
        self.sequences_seen += 1
        _observe_sequence(
            sequence,
            self._region_set,
            self.stats,
            self.transitions,
            self.outgoing_totals,
            max_transition_gap,
        )

    def merge(self, *others: "PartialKnowledge") -> "PartialKnowledge":
        """A new shard equal to this one plus ``others`` (non-mutating)."""
        merged = PartialKnowledge(regions=list(self.regions))
        for shard in (self, *others):
            merged.add(shard)
        return merged

    def add(self, other: "PartialKnowledge") -> None:
        """Fold another shard's counts into this one (in place)."""
        if other.regions != self.regions:
            raise InferenceError(
                "cannot merge partial knowledge over different region "
                f"vocabularies ({len(self.regions)} vs {len(other.regions)} "
                "regions)"
            )
        self.sequences_seen += _add_counts(
            other, self.transitions, self.outgoing_totals, self.stats
        )

    def subtract(self, other: "PartialKnowledge") -> None:
        """The exact inverse of :meth:`add` (in place).

        ``a.add(b); a.subtract(b)`` leaves ``a`` equal — field for field,
        dwell totals bit for bit — to never having added ``b``.  Only
        shards previously folded in can be subtracted; anything that
        would drive a count negative raises :class:`InferenceError`
        without touching this shard.
        """
        if other.regions != self.regions:
            raise InferenceError(
                "cannot subtract partial knowledge over different region "
                f"vocabularies ({len(self.regions)} vs {len(other.regions)} "
                "regions)"
            )
        if other.sequences_seen > self.sequences_seen:
            raise InferenceError(
                "cannot subtract a knowledge shard that was never folded "
                f"(sequences {self.sequences_seen} - {other.sequences_seen})"
            )
        self.sequences_seen -= _subtract_counts(
            other, self.transitions, self.outgoing_totals, self.stats
        )

    def __str__(self) -> str:
        observed = sum(self.outgoing_totals.values())
        return (
            f"PartialKnowledge({len(self.regions)} regions, "
            f"{observed} observed transitions, "
            f"{self.sequences_seen} sequences)"
        )


def merge_partials(*partials: PartialKnowledge) -> PartialKnowledge:
    """Merge any number of shards into one (at least one required)."""
    if not partials:
        raise InferenceError("merge_partials needs at least one shard")
    return partials[0].merge(*partials[1:])


@dataclass
class MobilityKnowledge:
    """The prior the complementing layer's MAP inference consults."""

    regions: list[str]
    smoothing: float = 1.0
    _transitions: dict[str, dict[str, int]] = field(default_factory=dict)
    _outgoing_totals: dict[str, int] = field(default_factory=dict)
    _stats: dict[str, RegionStats] = field(default_factory=dict)
    sequences_seen: int = 0

    def __post_init__(self) -> None:
        if self.smoothing <= 0:
            raise InferenceError(f"smoothing must be positive, got {self.smoothing}")
        if not self.regions:
            raise InferenceError("mobility knowledge needs a region vocabulary")
        self.regions = sorted(set(self.regions))
        self._region_set = set(self.regions)
        for region in self.regions:
            self._stats.setdefault(region, RegionStats())
        # Monotonic mutation counter plus the compiled-model cache it
        # invalidates.  Deliberately *not* dataclass fields: two
        # knowledge objects with the same counts are equal regardless of
        # how many mutations produced them, and the codec/pickle wire
        # formats must not carry a derived cache.
        self._generation = 0
        self._compiled = None

    # ------------------------------------------------------------------
    # Generations and the compiled-model cache
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic mutation counter.

        Bumped by every mutating operation (:meth:`observe`,
        :meth:`fold`, :meth:`unfold`, :meth:`scale` — and everything
        built on them, e.g. :meth:`repro.knowledge.KnowledgeStore.roll`
        retirals and decay rescales).  Anything derived from the
        aggregates — most importantly the
        :class:`~repro.core.complementing.compiled.CompiledTransitionModel`
        — records the generation it was computed at and is stale the
        moment the counters differ, so no mutation path can leave a
        cached answer live.
        """
        return self._generation

    def _mutated(self) -> None:
        """Record one mutation; invalidates every generation-keyed cache."""
        self._generation += 1

    def attach_compiled(self, compiled) -> None:
        """Attach a compiled transition model for the current generation.

        A plain attribute store (atomic under the GIL), so concurrent
        phase-two workers sharing this object may race: the last attach
        wins, and since both models were compiled from the same
        generation they are interchangeable.
        """
        self._compiled = compiled

    def compiled_model(self):
        """The attached compiled model, or ``None`` when absent/stale.

        Stale means another generation *or* another :attr:`smoothing` —
        a public field whose assignment bumps nothing.
        """
        compiled = self._compiled
        if (
            compiled is not None
            and compiled.generation == self._generation
            and compiled.smoothing == self.smoothing
        ):
            return compiled
        return None

    def __getstate__(self) -> dict:
        """Pickle without the compiled cache (it re-derives on demand).

        The generation counter *does* travel: a process-backend worker
        that caches the unpickled knowledge keys its compiled model off
        the same counter the coordinator bumped.
        """
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @classmethod
    def from_sequences(
        cls,
        sequences: list[MobilitySemanticsSequence],
        regions: list[str],
        smoothing: float = 1.0,
        max_transition_gap: float = DEFAULT_TRANSITION_GAP,
    ) -> "MobilityKnowledge":
        """Build knowledge by aggregating annotated sequences.

        Transitions across gaps longer than ``max_transition_gap`` are not
        counted — the device plausibly visited unobserved regions in
        between, so the pair is not evidence of a direct transition.
        """
        knowledge = cls(regions=regions, smoothing=smoothing)
        for sequence in sequences:
            knowledge.observe(sequence, max_transition_gap)
        return knowledge

    @classmethod
    def from_partials(
        cls,
        partials: Iterable[PartialKnowledge],
        regions: list[str] | None = None,
        smoothing: float = 1.0,
    ) -> "MobilityKnowledge":
        """Merge independently built shards into queryable knowledge.

        Equal to :meth:`from_sequences` over the concatenated shard inputs,
        but O(#regions + #edges) per shard instead of re-observing every
        sequence — the engine's sharded barrier.  ``regions`` defaults to
        the first shard's vocabulary; pass it explicitly when ``partials``
        may be empty.
        """
        partials = list(partials)
        if regions is None:
            if not partials:
                raise InferenceError(
                    "from_partials needs at least one shard or an explicit "
                    "region vocabulary"
                )
            regions = partials[0].regions
        knowledge = cls(regions=list(regions), smoothing=smoothing)
        for partial in partials:
            knowledge.fold(partial)
        return knowledge

    def observe(
        self,
        sequence: MobilitySemanticsSequence,
        max_transition_gap: float = DEFAULT_TRANSITION_GAP,
    ) -> None:
        """Fold one annotated sequence into the aggregates."""
        self._mutated()
        self.sequences_seen += 1
        _observe_sequence(
            sequence,
            self._region_set,
            self._stats,
            self._transitions,
            self._outgoing_totals,
            max_transition_gap,
        )

    def fold(self, partial: PartialKnowledge) -> None:
        """Fold one shard's counts into this knowledge, in place.

        This is the incremental path: a long-running engine builds a
        :class:`PartialKnowledge` per stream window and folds it into the
        existing knowledge without rebuilding from scratch — the barrier
        of :meth:`repro.engine.Engine.translate_increment`, which the
        live streaming service (:mod:`repro.live`) drives once per
        ingestion window per venue.  Folding is exact, so a finite
        stream's windows fold to the same knowledge, bit for bit, as a
        one-shot batch build over the concatenation.
        """
        if partial.regions != self.regions:
            raise InferenceError(
                "cannot fold partial knowledge over a different region "
                f"vocabulary ({len(self.regions)} vs {len(partial.regions)} "
                "regions)"
            )
        self._mutated()
        self.sequences_seen += _add_counts(
            partial, self._transitions, self._outgoing_totals, self._stats
        )

    def unfold(self, partial: PartialKnowledge) -> None:
        """The exact inverse of :meth:`fold`, in place.

        This is how the epoch-based knowledge lifecycle
        (:class:`repro.knowledge.KnowledgeStore` under sliding-window
        retention) retires stale mobility: the expired epoch's shard is
        subtracted, and the resulting knowledge is bit-for-bit identical
        to knowledge that never folded that epoch — counts, dwell totals
        and every smoothed query.  Subtracting a shard that was not
        previously folded raises :class:`InferenceError` and leaves the
        knowledge untouched.
        """
        if partial.regions != self.regions:
            raise InferenceError(
                "cannot unfold partial knowledge over a different region "
                f"vocabulary ({len(self.regions)} vs {len(partial.regions)} "
                "regions)"
            )
        if partial.sequences_seen > self.sequences_seen:
            raise InferenceError(
                "cannot unfold a knowledge shard that was never folded "
                f"(sequences {self.sequences_seen} - "
                f"{partial.sequences_seen})"
            )
        self._mutated()
        self.sequences_seen -= _subtract_counts(
            partial, self._transitions, self._outgoing_totals, self._stats
        )

    def scale(self, factor: float, prune_below: float = 0.0) -> None:
        """Discount every aggregate by ``factor`` (exponential decay).

        The decay retention policy calls this once per epoch roll with
        ``factor = 0.5 ** (1 / half_life)``, so an epoch's evidence halves
        after ``half_life`` rolls.  Counts become float weights; the
        smoothed queries are ratios and keep working unchanged.  Entries
        whose decayed weight drops below ``prune_below`` are dropped so a
        long-running venue's memory stays bounded by its *recent* support
        rather than by everything it ever saw.
        """
        if factor < 0.0:
            raise InferenceError(
                f"scale factor must be non-negative, got {factor}"
            )
        self._mutated()
        for origin in list(self._transitions):
            destinations = self._transitions[origin]
            for destination in list(destinations):
                scaled = destinations[destination] * factor
                if scaled <= prune_below:
                    del destinations[destination]
                else:
                    destinations[destination] = scaled
            if not destinations:
                del self._transitions[origin]
        for origin in list(self._outgoing_totals):
            scaled = self._outgoing_totals[origin] * factor
            if scaled <= prune_below:
                del self._outgoing_totals[origin]
            else:
                self._outgoing_totals[origin] = scaled
        for stats in self._stats.values():
            stats.scale(factor)
        self.sequences_seen = self.sequences_seen * factor

    def to_partial(self) -> PartialKnowledge:
        """Export the raw counts as an independent shard (deep copy)."""
        partial = PartialKnowledge(
            regions=list(self.regions),
            transitions={
                origin: dict(outgoing)
                for origin, outgoing in self._transitions.items()
            },
            outgoing_totals=dict(self._outgoing_totals),
            stats={
                region: stats.copy() for region, stats in self._stats.items()
            },
            sequences_seen=self.sequences_seen,
        )
        return partial

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def transition_probability(self, origin: str, destination: str) -> float:
        """Laplace-smoothed P(destination | origin) over the vocabulary.

        Served from the attached compiled table when one is current —
        the table entries are computed by this very expression, so both
        routes return bit-for-bit the same float.  The live computation
        avoids allocating a throwaway row dict for unseen origins by
        fetching the row once and branching on ``None``.
        """
        self._check_region(origin)
        self._check_region(destination)
        if origin == destination:
            return 0.0  # self-transitions were merged away during annotation
        compiled = self.compiled_model()
        if compiled is not None:
            return compiled.probability(origin, destination)
        outgoing = self._transitions.get(origin)
        count = outgoing.get(destination, 0) if outgoing is not None else 0
        total = self._outgoing_totals.get(origin, 0)
        vocabulary = len(self.regions) - 1  # all possible destinations
        return (count + self.smoothing) / (total + self.smoothing * vocabulary)

    def log_transition(self, origin: str, destination: str) -> float:
        """log P(destination | origin); -inf never occurs thanks to smoothing."""
        compiled = self.compiled_model()
        if compiled is not None and origin != destination:
            self._check_region(origin)
            self._check_region(destination)
            return compiled.log_probability(origin, destination)
        return math.log(self.transition_probability(origin, destination))

    def transition_count(self, origin: str, destination: str) -> int:
        """Raw observed transition count."""
        return self._transitions.get(origin, {}).get(destination, 0)

    def region_stats(self, region_id: str) -> RegionStats:
        """Dwell/event aggregates for one region."""
        self._check_region(region_id)
        return self._stats[region_id]

    def mean_dwell(self, region_id: str, default: float = 60.0) -> float:
        """Mean visit duration, with a default for unvisited regions."""
        stats = self.region_stats(region_id)
        return stats.mean_dwell if stats.visits > 0 else default

    def most_likely_next(self, origin: str, top_k: int = 3) -> list[tuple[str, float]]:
        """The ``top_k`` most probable successor regions of ``origin``.

        One smoothed distribution, not ``len(regions)`` independent
        recomputations: the denominator is hoisted (or the whole row is
        read off the attached compiled table), and since both evaluate
        exactly the per-call expression, the ranking — probabilities
        included — is bit-for-bit what per-destination
        :meth:`transition_probability` calls would produce.
        """
        self._check_region(origin)
        compiled = self.compiled_model()
        if compiled is not None:
            row = compiled.probability_row(origin)
            pairs = (
                (destination, row[position])
                for position, destination in enumerate(self.regions)
                if destination != origin
            )
        else:
            outgoing = self._transitions.get(origin)
            if outgoing is None:
                outgoing = {}
            denominator = self._outgoing_totals.get(origin, 0) + (
                self.smoothing * (len(self.regions) - 1)
            )
            pairs = (
                (
                    destination,
                    (outgoing.get(destination, 0) + self.smoothing)
                    / denominator,
                )
                for destination in self.regions
                if destination != origin
            )
        ranked = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        return ranked[:top_k]

    def _check_region(self, region_id: str) -> None:
        if region_id not in self._region_set:
            raise InferenceError(
                f"region {region_id!r} not in the knowledge vocabulary"
            )

    def __str__(self) -> str:
        observed = sum(self._outgoing_totals.values())
        return (
            f"MobilityKnowledge({len(self.regions)} regions, "
            f"{observed} observed transitions, "
            f"{self.sequences_seen} sequences)"
        )
