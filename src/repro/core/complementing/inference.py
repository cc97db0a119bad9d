"""MAP inference of missing mobility semantics.

"By a maximum a posteriori estimation, a mobility semantics inference
utilizes the mobility knowledge to infer the most-likely mobility semantics
between two semantic regions involved in the intermediate result" (paper
§3).  The inference is a Viterbi-style dynamic program over the DSM's
region graph: for each candidate intermediate-hop count ``k`` it finds the
maximum-log-probability region path from the gap's start region to its end
region, scores each ``k`` by how well the path's expected dwell+travel time
explains the gap duration, and emits the winner as inferred triplets.

Two interchangeable execution paths implement the same semantics:

- the **object path** walks the networkx region graph and recomputes the
  smoothed ``log P(dest | origin)`` per DP step — the readable reference
  implementation;
- the **compiled path** (default, ``InferenceConfig.compiled``) runs the
  identical DP over integer states with table lookups from a
  :class:`~repro.core.complementing.compiled.CompiledTransitionModel`,
  plus a bounded per-inference memo of :meth:`SemanticsInference.best_path`
  answers — the tables keyed by the knowledge's mutation ``generation``
  and ``smoothing``, the memo by the table it was answered from.

The paths are bit-for-bit equivalent — same candidate paths, same
floats, same first-seen/strict-``>`` tie-breaks — proven by the
differential suite in ``tests/test_compiled_inference.py``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from ...dsm import Topology
from ...errors import InferenceError
from ...timeutil import TimeRange
from ..semantics import EVENT_PASS_BY, EVENT_STAY, MobilitySemantic
from .compiled import CompiledTransitionModel, ensure_compiled
from .knowledge import MobilityKnowledge

#: Nominal indoor walking speed used to estimate travel time between regions.
NOMINAL_WALK_SPEED = 1.2


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs of the MAP inference."""

    max_hops: int = 4
    #: Weight of the duration-fit term against the path log-probability.
    #: Each extra leg costs roughly ``-log P(transition)`` (about 2-3 nats
    #: under smoothing), so the likelihood term needs comparable scale or
    #: the direct-transition explanation always wins regardless of how
    #: badly it explains the gap duration.
    duration_weight: float = 4.0
    #: Dwell assumed for regions never observed in the knowledge (seconds).
    default_dwell: float = 60.0
    #: Below this allocated time an inferred visit is a pass-by, not a stay.
    pass_by_threshold: float = 45.0
    #: Run the integer-indexed compiled DP (bit-for-bit identical to the
    #: object path; ``False`` forces the reference implementation — the
    #: lever the differential harness flips).
    compiled: bool = True
    #: Bound of the per-inference ``best_path`` memo (0 disables it).
    path_memo: int = 4096

    def __post_init__(self) -> None:
        if self.max_hops < 0:
            raise InferenceError(f"max_hops must be >= 0, got {self.max_hops}")
        if self.duration_weight < 0:
            raise InferenceError("duration_weight must be >= 0")
        if self.path_memo < 0:
            raise InferenceError(
                f"path_memo must be >= 0, got {self.path_memo}"
            )


@dataclass(frozen=True)
class InferredPath:
    """A scored candidate: intermediate regions plus diagnostic terms."""

    regions: tuple[str, ...]
    log_probability: float
    duration_penalty: float

    @property
    def score(self) -> float:
        """Combined MAP objective (higher is better).

        The transition term is *length-normalized* (geometric-mean leg
        probability): raw sums punish every extra leg by ~|log P| nats,
        which would make the direct-transition hypothesis unbeatable no
        matter how badly it explains the gap duration.  With the mean, the
        prior ranks paths by how typical their legs are and the duration
        likelihood arbitrates how many legs the gap can hold.
        """
        legs = len(self.regions) + 1
        return self.log_probability / legs - self.duration_penalty


class SemanticsInference:
    """Infers the most likely region path across one semantics gap."""

    def __init__(
        self,
        knowledge: MobilityKnowledge,
        topology: Topology,
        config: InferenceConfig | None = None,
    ):
        self.knowledge = knowledge
        self.topology = topology
        self.config = config if config is not None else InferenceConfig()
        # Bounded LRU of best_path answers, valid for one compiled model;
        # cleared the moment another model answers (a new generation, or
        # a recompile after ``smoothing`` was assigned).  Per-inference
        # (not shared through the knowledge object) so concurrent
        # phase-two workers never contend on it and the entries
        # implicitly carry this inference's config.
        self._path_memo: "OrderedDict[tuple, InferredPath | None]" = (
            OrderedDict()
        )
        self._memo_model: CompiledTransitionModel | None = None
        # Plain-int telemetry accumulators; flushed in one registry
        # interaction per phase-two chunk (see ``flush_telemetry``) so
        # the DP hot path never touches the registry.
        self.memo_hits = 0
        self.memo_misses = 0

    def prime(self) -> CompiledTransitionModel | None:
        """Ensure a current compiled model is attached (compiled path).

        Called once per phase-two chunk so the compile cost lands before
        the per-sequence loop and the compile/hit telemetry ticks once
        per chunk; returns ``None`` when the object path is configured.
        """
        if not self.config.compiled:
            return None
        return ensure_compiled(self.knowledge, self.topology)

    def flush_telemetry(self) -> None:
        """Push the accumulated memo hit/miss counts to the registry."""
        hits, misses = self.memo_hits, self.memo_misses
        if not hits and not misses:
            return
        # Lazy import: repro.telemetry imports this package for ExactSum.
        from ...telemetry import get_registry

        registry = get_registry()
        if registry.enabled:
            if hits:
                registry.counter("trips_inference_memo_hits_total").inc(hits)
            if misses:
                registry.counter("trips_inference_memo_misses_total").inc(
                    misses
                )
        self.memo_hits = 0
        self.memo_misses = 0

    def infer_gap(
        self,
        origin_region: str,
        destination_region: str,
        gap: TimeRange,
    ) -> list[MobilitySemantic]:
        """Inferred triplets filling ``gap`` between the two known regions.

        Returns an empty list when the best explanation is a direct
        transition (no intermediate visit fits the gap).
        """
        path = self.best_path(origin_region, destination_region, gap.duration)
        if path is None or not path.regions:
            return []
        return self._allocate_time(path, gap)

    def infer_between(
        self,
        before: MobilitySemantic,
        after: MobilitySemantic,
        gap: TimeRange,
    ) -> list[MobilitySemantic]:
        """Gap filling aware of the flanking triplets' dwell statistics.

        A positioning dropout usually truncates the visits on either side
        of it, so the most likely explanation of the first and last parts
        of the gap is *more of the same visit*: each flank is extended by
        its region's dwell deficit (mean dwell minus observed duration),
        capped to keep room for travel, and only the remaining middle
        window goes to intermediate-path inference.
        """
        extend_before = self._dwell_deficit(before)
        extend_after = self._dwell_deficit(after)
        budget = 0.8 * gap.duration
        if extend_before + extend_after > budget and (
            extend_before + extend_after
        ) > 0:
            scale = budget / (extend_before + extend_after)
            extend_before *= scale
            extend_after *= scale
        semantics: list[MobilitySemantic] = []
        middle_start = gap.start
        middle_end = gap.end
        if extend_before >= 20.0:
            middle_start = gap.start + extend_before
            semantics.append(
                MobilitySemantic(
                    event=before.event,
                    region_id=before.region_id,
                    region_name=before.region_name,
                    time_range=TimeRange(gap.start, middle_start),
                    confidence=0.6,
                    inferred=True,
                )
            )
        if extend_after >= 20.0:
            middle_end = gap.end - extend_after
            semantics.append(
                MobilitySemantic(
                    event=after.event,
                    region_id=after.region_id,
                    region_name=after.region_name,
                    time_range=TimeRange(middle_end, gap.end),
                    confidence=0.6,
                    inferred=True,
                )
            )
        middle = TimeRange(middle_start, middle_end)
        if middle.duration >= self.config.pass_by_threshold:
            semantics.extend(
                self.infer_gap(before.region_id, after.region_id, middle)
            )
        return sorted(semantics, key=lambda s: s.time_range)

    def _dwell_deficit(self, triplet: MobilitySemantic) -> float:
        """How much shorter than typical this visit was observed to be.

        Unknown-region contract: a flanking triplet whose region is
        outside the knowledge vocabulary yields a deficit of **0.0** —
        silently, by design.  Flank extension is opportunistic polish
        ("more of the same visit"), so a region the knowledge cannot
        speak about simply contributes no extension, and the gap still
        gets its middle-path inference.  Contrast :meth:`best_path`,
        where an unknown *endpoint* makes the whole inference unanswerable
        and raises :class:`~repro.errors.InferenceError` loudly.
        """
        if triplet.region_id not in self.knowledge._region_set:
            return 0.0
        stats = self.knowledge.region_stats(triplet.region_id)
        if stats.visits == 0:
            return 0.0
        return max(0.0, stats.mean_dwell - triplet.duration)

    def best_path(
        self, origin: str, destination: str, gap_duration: float
    ) -> InferredPath | None:
        """The MAP intermediate-region path for a gap of ``gap_duration``.

        Runs the hop-bounded Viterbi DP and scores each hop count by
        path log-probability minus a duration-mismatch penalty.

        Unknown-region contract: unlike :meth:`_dwell_deficit` (which
        silently skips flank extension), a path *endpoint* outside the
        knowledge vocabulary raises :class:`~repro.errors.InferenceError`
        — there is no prior to reason with, so answering would be a
        fabrication.  Callers that may hold unknown endpoints gate on
        the vocabulary first (as the complementor does).

        On the compiled path, answers are memoized per
        ``(origin, destination, gap_duration)`` in a bounded LRU keyed
        to the compiled model: any mutation of the knowledge (or
        assignment of its ``smoothing``) brings a new model and
        invalidates the memo wholesale, so a stale answer can never
        outlive the evidence it was computed from.
        """
        if origin not in self.knowledge._region_set:
            raise InferenceError(f"unknown origin region {origin!r}")
        if destination not in self.knowledge._region_set:
            raise InferenceError(f"unknown destination region {destination!r}")
        if not self.config.compiled:
            return self._best_path_objects(origin, destination, gap_duration)
        # Fast revalidation: a current attached model is one attribute
        # read plus a generation compare; ensure_compiled (which also
        # ticks the compile/hit telemetry) only runs when the cache is
        # absent, stale, or bound to a different topology — so the
        # counters measure chunk-level cache behaviour, not call volume.
        compiled = self.knowledge.compiled_model()
        if compiled is None or compiled.topology is not self.topology:
            compiled = ensure_compiled(self.knowledge, self.topology)
        memo_limit = self.config.path_memo
        memo = self._path_memo
        if memo_limit:
            if self._memo_model is not compiled:
                memo.clear()
                self._memo_model = compiled
            key = (origin, destination, gap_duration)
            try:
                hit = memo[key]
            except KeyError:
                self.memo_misses += 1
            else:
                memo.move_to_end(key)
                self.memo_hits += 1
                return hit
        path = self._best_path_compiled(
            compiled, origin, destination, gap_duration
        )
        if memo_limit:
            memo[key] = path
            if len(memo) > memo_limit:
                memo.popitem(last=False)
        return path

    # ------------------------------------------------------------------
    # Compiled path: integer-indexed Viterbi over precompiled tables
    # ------------------------------------------------------------------
    def _best_path_compiled(
        self,
        compiled: CompiledTransitionModel,
        origin: str,
        destination: str,
        gap_duration: float,
    ) -> InferredPath | None:
        """The object path's exact DP, over integer states and tables.

        Every float it produces — leg logs, their running sums, duration
        penalties — comes from table entries computed by the identical
        expressions, combined in the identical order, so candidate
        scores and tie-breaks match the object path bit for bit.
        """
        origin_index = compiled.index[origin]
        destination_index = compiled.index[destination]
        candidates: list[InferredPath] = []
        direct = InferredPath(
            regions=(),
            log_probability=(
                compiled.log_rows[origin_index][destination_index]
                if origin != destination
                else 0.0
            ),
            duration_penalty=self._duration_penalty_compiled(
                compiled, (), origin_index, destination_index, gap_duration
            ),
        )
        candidates.append(direct)
        if compiled.in_graph[origin_index] and compiled.in_graph[
            destination_index
        ]:
            for hops in range(1, self.config.max_hops + 1):
                best = self._viterbi_fixed_hops_compiled(
                    compiled, origin_index, destination_index, hops
                )
                if best is None:
                    continue
                path_indices, log_probability = best
                candidates.append(
                    InferredPath(
                        regions=tuple(
                            compiled.regions[i] for i in path_indices
                        ),
                        log_probability=log_probability,
                        duration_penalty=self._duration_penalty_compiled(
                            compiled,
                            path_indices,
                            origin_index,
                            destination_index,
                            gap_duration,
                        ),
                    )
                )
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.score)

    def _viterbi_fixed_hops_compiled(
        self,
        compiled: CompiledTransitionModel,
        origin: int,
        destination: int,
        hops: int,
    ) -> tuple[tuple[int, ...], float] | None:
        """Integer-state Viterbi: table lookups, no networkx, no logs.

        State dicts are keyed by region *index*; insertion order follows
        the frozen adjacency (lifted in graph iteration order), so the
        first-seen ordering and strict-``>`` improvements resolve ties
        exactly as the object implementation does.
        """
        neighbors = compiled.neighbors
        neighbor_sets = compiled.neighbor_sets
        log_rows = compiled.log_rows
        # scores[index] = (best log-prob reaching index, back-pointer path)
        scores: dict[int, tuple[float, tuple[int, ...]]] = {}
        origin_row = log_rows[origin]
        for neighbor in neighbors[origin]:
            scores[neighbor] = (origin_row[neighbor], (neighbor,))
        for _ in range(hops - 1):
            next_scores: dict[int, tuple[float, tuple[int, ...]]] = {}
            for region, (log_probability, path) in scores.items():
                row = log_rows[region]
                for neighbor in neighbors[region]:
                    if neighbor == origin or neighbor in path:
                        continue  # no revisits inside one inferred excursion
                    candidate = log_probability + row[neighbor]
                    held = next_scores.get(neighbor)
                    if held is None or candidate > held[0]:
                        next_scores[neighbor] = (candidate, path + (neighbor,))
            scores = next_scores
            if not scores:
                return None
        best: tuple[tuple[int, ...], float] | None = None
        for region, (log_probability, path) in scores.items():
            if destination not in neighbor_sets[region]:
                continue
            if destination in path:
                continue
            total = log_probability + log_rows[region][destination]
            if best is None or total > best[1]:
                best = (path, total)
        return best

    def _duration_penalty_compiled(
        self,
        compiled: CompiledTransitionModel,
        intermediates: tuple[int, ...],
        origin: int,
        destination: int,
        gap_duration: float,
    ) -> float:
        """:meth:`_duration_penalty` over indexed states.

        Same legs, same defaulted distances and mean dwells, accumulated
        in the same order — identical floats.
        """
        expected = 0.0
        legs = (origin, *intermediates, destination)
        previous = legs[0]
        for leg in legs[1:]:
            expected += compiled.leg_distance(previous, leg) / (
                NOMINAL_WALK_SPEED
            )
            previous = leg
        default_dwell = self.config.default_dwell
        for region in intermediates:
            expected += compiled.mean_dwell(region, default_dwell)
        if gap_duration <= 0:
            return self.config.duration_weight * (1.0 if intermediates else 0.0)
        relative_error = (expected - gap_duration) / gap_duration
        return self.config.duration_weight * relative_error * relative_error

    # ------------------------------------------------------------------
    # Object path: the reference implementation over the live graph
    # ------------------------------------------------------------------
    def _best_path_objects(
        self, origin: str, destination: str, gap_duration: float
    ) -> InferredPath | None:
        """Reference DP over networkx adjacency and live smoothed queries."""
        candidates: list[InferredPath] = []
        direct = InferredPath(
            regions=(),
            log_probability=self.knowledge.log_transition(origin, destination)
            if origin != destination
            else 0.0,
            duration_penalty=self._duration_penalty((), origin, destination, gap_duration),
        )
        candidates.append(direct)
        for hops in range(1, self.config.max_hops + 1):
            best = self._viterbi_fixed_hops(origin, destination, hops)
            if best is None:
                continue
            regions, log_probability = best
            candidates.append(
                InferredPath(
                    regions=regions,
                    log_probability=log_probability,
                    duration_penalty=self._duration_penalty(
                        regions, origin, destination, gap_duration
                    ),
                )
            )
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.score)

    def _viterbi_fixed_hops(
        self, origin: str, destination: str, hops: int
    ) -> tuple[tuple[str, ...], float] | None:
        """Best log-probability path with exactly ``hops`` intermediates.

        States are region-graph nodes; moves are restricted to region-graph
        edges so the inference never proposes physically impossible visits.
        """
        graph = self.topology.region_graph
        if origin not in graph or destination not in graph:
            return None
        # scores[region] = (best log-prob reaching region, back-pointer path)
        scores: dict[str, tuple[float, tuple[str, ...]]] = {}
        for neighbor in graph.neighbors(origin):
            log_probability = self.knowledge.log_transition(origin, neighbor)
            scores[neighbor] = (log_probability, (neighbor,))
        for _ in range(hops - 1):
            next_scores: dict[str, tuple[float, tuple[str, ...]]] = {}
            for region, (log_probability, path) in scores.items():
                for neighbor in graph.neighbors(region):
                    if neighbor == origin or neighbor in path:
                        continue  # no revisits inside one inferred excursion
                    candidate = log_probability + self.knowledge.log_transition(
                        region, neighbor
                    )
                    held = next_scores.get(neighbor)
                    if held is None or candidate > held[0]:
                        next_scores[neighbor] = (candidate, path + (neighbor,))
            scores = next_scores
            if not scores:
                return None
        best: tuple[tuple[str, ...], float] | None = None
        for region, (log_probability, path) in scores.items():
            if destination not in graph.neighbors(region):
                continue
            if destination in path:
                continue
            total = log_probability + self.knowledge.log_transition(
                region, destination
            )
            if best is None or total > best[1]:
                best = (path, total)
        return best

    # ------------------------------------------------------------------
    # Duration model
    # ------------------------------------------------------------------
    def _duration_penalty(
        self,
        intermediates: tuple[str, ...],
        origin: str,
        destination: str,
        gap_duration: float,
    ) -> float:
        """Penalty for how badly the path's expected time explains the gap.

        Expected time = sum of mean dwells at intermediates + walking time
        across all legs at nominal speed.  The penalty is the squared
        relative mismatch, weighted by ``duration_weight``.
        """
        expected = 0.0
        legs = [origin, *intermediates, destination]
        for a, b in zip(legs, legs[1:]):
            distance = self.topology.region_graph.get_edge_data(a, b, {}).get(
                "weight"
            )
            if distance is None or not math.isfinite(distance):
                distance = 25.0  # conservative unknown-leg estimate
            expected += distance / NOMINAL_WALK_SPEED
        for region in intermediates:
            expected += self.knowledge.mean_dwell(
                region, self.config.default_dwell
            )
        if gap_duration <= 0:
            return self.config.duration_weight * (1.0 if intermediates else 0.0)
        relative_error = (expected - gap_duration) / gap_duration
        return self.config.duration_weight * relative_error * relative_error

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _allocate_time(
        self, path: InferredPath, gap: TimeRange
    ) -> list[MobilitySemantic]:
        """Split the gap across inferred visits proportional to mean dwell."""
        dwells = [
            max(self.knowledge.mean_dwell(region, self.config.default_dwell), 1.0)
            for region in path.regions
        ]
        total_dwell = sum(dwells)
        confidence = self._confidence(path)
        semantics: list[MobilitySemantic] = []
        cursor = gap.start
        for region, dwell in zip(path.regions, dwells):
            share = dwell / total_dwell
            duration = gap.duration * share
            window = TimeRange(cursor, min(gap.end, cursor + duration))
            cursor = window.end
            stats = self.knowledge.region_stats(region)
            if duration < self.config.pass_by_threshold or (
                stats.visits > 0 and stats.stay_fraction < 0.5
            ):
                event = EVENT_PASS_BY
            else:
                event = EVENT_STAY
            region_name = self._region_name(region)
            semantics.append(
                MobilitySemantic(
                    event=event,
                    region_id=region,
                    region_name=region_name,
                    time_range=window,
                    confidence=confidence,
                    inferred=True,
                )
            )
        return semantics

    def _confidence(self, path: InferredPath) -> float:
        """Geometric-mean transition probability of the inferred legs."""
        leg_count = len(path.regions) + 1
        mean_log = path.log_probability / leg_count
        return max(0.0, min(1.0, math.exp(mean_log)))

    def _region_name(self, region_id: str) -> str:
        model = self.topology.model
        if model.has_region(region_id):
            return model.region(region_id).name
        return region_id
