"""Columnar phase-one kernels: exact drop-ins for the hot inner loops.

Each kernel subclasses (or wraps) its object-model counterpart and
overrides *only* the point-location / distance seam the profile
(``benchmarks/profiles/``) showed dominating phase one:

* :class:`ColumnarSpeedValidator` — ``SpeedValidator`` with memoized
  locates through a :class:`~repro.columnar.locate.LocatorSession`, an
  identity-keyed per-pair feasibility memo, the straight-move verdict
  decided inline, and the topology's own door search for the rest.  Every
  arithmetic expression on the decision path (``math.hypot`` planar
  distances, the speed quotient, the floor-cost subtraction) is the
  original's, evaluated in the original order, so every feasibility
  verdict is bit-for-bit identical.
* :class:`ColumnarCleaner` — ``RawDataCleaner`` rewired, not rewritten:
  the inherited detect-and-repair loop runs against the memoizing
  validator, and its floor corrector and interpolator locate and route
  through the same session (their ``locator=`` / ``router=`` seams), so
  re-checks and repair probes cost a dict hit.
* :class:`ColumnarSplitter` — ``DensitySplitter`` whose ``_core_flags``
  (the O(n·k) density loop) runs over flat timestamp/x/y/floor lists
  with the identical near-before-gap condition order, and stops scanning
  a record once it is core.
* :class:`ColumnarSpatialMatcher` — ``SpatialMatcher`` whose single
  point-location hook resolves through the session's primary-region memo;
  voting, tie-breaks and coverage run in the inherited code.
* :func:`accumulate_partial` — dwell/edge accumulation into a sparse
  :class:`~repro.core.complementing.PartialKnowledge` over flattened
  triplet arrays, applying the same filter/visit/transition rules in the
  same order as ``PartialKnowledge.from_sequences`` and creating a
  region's stats entry on first touch, as ``_observe_sequence`` does.

``tests/test_columnar_equivalence.py`` proves the equivalence claim
differentially for every kernel.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable

import networkx as nx

from ..core.cleaning import CleaningConfig, RawDataCleaner
from ..core.cleaning.floor import FloorCorrector
from ..core.cleaning.interpolation import LocationInterpolator
from ..core.cleaning.speed import SpeedValidator
from ..core.annotation.spatial import SpatialMatcher
from ..core.annotation.splitting import DensitySplitter
from ..core.complementing import PartialKnowledge
from ..core.complementing.knowledge import DEFAULT_TRANSITION_GAP, region_entry
from ..core.semantics import EVENT_STAY, MobilitySemanticsSequence
from ..dsm import DigitalSpaceModel, Topology
from ..geometry import Point
from ..positioning import RawPositioningRecord
from .locate import LocatorSession

_hypot = math.hypot


class ColumnarSpeedValidator(SpeedValidator):
    """Speed validation with memoized point location.

    Overrides ``indoor_distance`` (the only geometry-touching method) to
    resolve partitions through the locator session, and memoizes
    ``transition_feasible`` per record pair — the cleaner legitimately
    re-checks pairs (leading-outlier probe, lookahead anchors), and the
    verdict is a pure function of the two records.  :meth:`walking_path`
    makes the validator the interpolator's ``router``, so repair routes
    locate their endpoints through the same session.
    """

    def __init__(
        self, topology: Topology, max_speed: float, session: LocatorSession
    ):
        super().__init__(topology, max_speed)
        self.session = session
        # Keyed on object identity: hashing two frozen records per lookup
        # cost more than the lookup saved.  The value pins both records, so
        # an id cannot be recycled for a different fix while its entry
        # lives, and records are immutable — same objects, same verdict.
        # Equal-but-distinct records merely recompute.
        self._feasible_memo: dict[
            tuple[int, int],
            tuple[bool, RawPositioningRecord, RawPositioningRecord],
        ] = {}
        self._node_paths: dict[tuple[str, str], list[str]] = {}

    def transition_feasible(
        self, previous: RawPositioningRecord, current: RawPositioningRecord
    ) -> bool:
        key = (id(previous), id(current))
        memo = self._feasible_memo
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        a, b = previous.location, current.location
        if a.floor == b.floor and self._straight_allowed(a, b):
            # SpeedValidator.transition_feasible over indoor_distance's
            # straight move: one floor, so no floor cost comes off, and a
            # non-finite hypot fails both comparisons as it fails isfinite.
            distance = _hypot(a.x - b.x, a.y - b.y)
            elapsed = current.timestamp - previous.timestamp
            if elapsed <= 0.0:
                verdict = distance <= 1e-6
            else:
                verdict = distance / elapsed <= self.max_speed
        else:
            verdict = super().transition_feasible(previous, current)
        memo[key] = (verdict, previous, current)
        return verdict

    def indoor_distance(
        self, previous: RawPositioningRecord, current: RawPositioningRecord
    ) -> float:
        a, b = previous.location, current.location
        if a.floor == b.floor and self._straight_allowed(a, b):
            return a.planar_distance_to(b)
        return self._route(a, b)[0]

    def _straight_allowed(self, a: Point, b: Point) -> bool:
        # Topology.straight_move_allowed with memoized partition_at calls.
        # The identity comparison carries over because the session returns
        # the model's own entity objects.
        session = self.session
        part_a = session.partition_entity(a.x, a.y, a.floor)
        part_b = session.partition_entity(b.x, b.y, b.floor)
        if part_a is None or part_b is None or part_a is not part_b:
            return False
        # Point.midpoint keeps a's floor; both endpoints share it here.
        mid_x = (a.x + b.x) / 2.0
        mid_y = (a.y + b.y) / 2.0
        return session.entity_contains(part_a, mid_x, mid_y)

    def _route(
        self, a: Point, b: Point
    ) -> tuple[float, tuple[str, str] | None]:
        """``Topology._route`` located through the session: the distance
        and the nav-node pair that realizes it (``None`` when the route is
        direct or absent)."""
        part_a = self._locate_id(a)
        part_b = self._locate_id(b)
        if part_a is None or part_b is None:
            return math.inf, None
        if part_a == part_b:
            return (
                a.planar_distance_to(b)
                + (0.0 if a.floor == b.floor else math.inf),
                None,
            )
        return self.topology._door_route(part_a, part_b, a, b)

    def walking_path(self, start: Point, goal: Point) -> list[Point]:
        """``Topology.walking_path`` over the session-located route."""
        distance, pair = self._route(start, goal)
        if not math.isfinite(distance):
            return []
        if pair is None:
            return [start, goal]
        topology = self.topology
        node_path = self._node_paths.get(pair)
        if node_path is None:
            node_path = nx.dijkstra_path(topology.nav_graph, *pair)
            self._node_paths[pair] = node_path
        anchors = topology._nav_anchor
        return [start] + [anchors[node] for node in node_path] + [goal]

    def _locate_id(self, point: Point) -> str | None:
        # Topology._locate through the session: containment first, then
        # the (rare) 5 m snap.
        session = self.session
        entity = session.partition_entity(point.x, point.y, point.floor)
        if entity is not None:
            return entity.entity_id
        snapped = session.nearest_partition(point, 5.0)
        return None if snapped is None else snapped[0].entity_id


class ColumnarCleaner(RawDataCleaner):
    """``RawDataCleaner`` with every geometry question on one session.

    Detection, repair order and bookkeeping are the inherited loop's; only
    the collaborators change: the memoizing validator, and a floor
    corrector and interpolator that locate (``locator=``) and route
    (``router=``) through the chunk's session instead of the model, so a
    repair's ``partition_at`` / ``nearest_partition`` probes share the memo
    the prime filled.
    """

    def __init__(
        self,
        topology: Topology,
        config: CleaningConfig,
        validator: ColumnarSpeedValidator,
    ):
        super().__init__(topology, config)
        session = validator.session
        self.validator = validator
        self._floor_corrector = FloorCorrector(validator, session)
        self._interpolator = LocationInterpolator(
            topology, locator=session, router=validator
        )


class ColumnarSplitter(DensitySplitter):
    """``DensitySplitter`` with the core-flag loop on flat columns.

    Only ``_core_flags`` is overridden: it is the quadratic-in-the-dense-
    neighborhood loop, and flattening the records removes per-comparison
    attribute chains and method dispatch.  The near-check-before-gap-check
    condition order and every float expression are the original's.
    """

    def _core_flags(self, records) -> list[bool]:
        cfg = self.config
        n = len(records)
        timestamps: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        floors: list[int] = []
        for record in records:
            location = record.location
            timestamps.append(record.timestamp)
            xs.append(location.x)
            ys.append(location.y)
            floors.append(location.floor)
        eps_space = cfg.eps_space
        eps_time = cfg.eps_time
        min_pts = cfg.min_pts
        core_span = cfg.core_span
        flags = [False] * n
        for i in range(n):
            # The scan stops as soon as the record is core.  That is exact:
            # a sequence's records are time-sorted, so count and
            # last - first only grow as either expansion goes on.
            count = 1  # the record itself
            first = last = timestamps[i]
            xi = xs[i]
            yi = ys[i]
            floor_i = floors[i]
            core = False
            j = i + 1
            while (
                j < n
                and floors[j] == floor_i
                and _hypot(xi - xs[j], yi - ys[j]) <= eps_space
                and timestamps[j] - timestamps[j - 1] <= eps_time
            ):
                last = timestamps[j]
                count += 1
                if count >= min_pts and last - first >= core_span:
                    core = True
                    break
                j += 1
            j = i - 1
            while (
                not core
                and j >= 0
                and floors[j] == floor_i
                and _hypot(xi - xs[j], yi - ys[j]) <= eps_space
                and timestamps[j + 1] - timestamps[j] <= eps_time
            ):
                first = timestamps[j]
                count += 1
                core = count >= min_pts and last - first >= core_span
                j -= 1
            flags[i] = core
        return flags


class ColumnarSpatialMatcher(SpatialMatcher):
    """``SpatialMatcher`` voting through the session's region memo."""

    def __init__(
        self,
        model: DigitalSpaceModel,
        session: LocatorSession,
        snap_distance: float = 4.0,
    ):
        super().__init__(model, snap_distance)
        self.session = session

    def _primary_region_at(self, record: RawPositioningRecord):
        location = record.location
        return self.session.primary_region(
            location.x, location.y, location.floor
        )


def accumulate_partial(
    annotated: Iterable[MobilitySemanticsSequence],
    regions: list[str],
    max_transition_gap: float = DEFAULT_TRANSITION_GAP,
) -> PartialKnowledge:
    """Columnar ``PartialKnowledge.from_sequences``.

    Flattens each sequence's in-vocabulary triplets into parallel arrays
    (region ids, start/end seconds, stay flags), then applies the exact
    visit and transition rules of ``_observe_sequence`` over the columns —
    same per-sequence order, same ``ExactSum`` additions, same
    setdefault/get counting — so the shard it returns is equal, dwell
    totals bit for bit, to the object-path shard.
    """
    partial = PartialKnowledge(regions=list(regions))
    region_set = partial._region_set
    stats = partial.stats
    transitions = partial.transitions
    outgoing_totals = partial.outgoing_totals
    for sequence in annotated:
        partial.sequences_seen += 1
        region_ids: list[str] = []
        starts = array("d")
        ends = array("d")
        stays: list[bool] = []
        for triplet in sequence:
            if triplet.region_id in region_set:
                region_ids.append(triplet.region_id)
                time_range = triplet.time_range
                starts.append(time_range.start)
                ends.append(time_range.end)
                stays.append(triplet.event == EVENT_STAY)
        for k in range(len(region_ids)):
            region_entry(stats, region_ids[k]).add_visit(
                ends[k] - starts[k], stays[k]
            )
        for k in range(len(region_ids) - 1):
            gap = starts[k + 1] - ends[k]
            if gap > max_transition_gap:
                continue
            origin = region_ids[k]
            destination = region_ids[k + 1]
            if origin == destination:
                continue
            outgoing = transitions.setdefault(origin, {})
            outgoing[destination] = outgoing.get(destination, 0) + 1
            outgoing_totals[origin] = outgoing_totals.get(origin, 0) + 1
    return partial
