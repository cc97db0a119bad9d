"""Batch point location against the DSM, bit-for-bit equal to the model.

Profiling phase one (``benchmarks/profile_phase_one.py``) shows the
pipeline's cost is dominated by point location: every record is located
~3.6 times on average (speed validation locates both endpoints of every
transition and the midpoint of every straight-move check; spatial matching
locates every record again), and each
:meth:`~repro.dsm.DigitalSpaceModel.partition_at` call re-dispatches
through shape objects that rebuild their edge lists per containment test.

:class:`PointLocator` removes that cost without changing a single result:

* geometry is **prepared once** per model into flat coordinate tuples, and
  the containment kernels (:func:`_polygon_contains`,
  :func:`_circle_contains`) replicate ``Polygon.contains_point`` /
  ``Circle.contains_point`` arithmetic *operation for operation* — same
  expressions, same evaluation order, same ``1e-9`` tolerances (the
  segment epsilon is imported from :mod:`repro.geometry.segment`, not
  duplicated) — so every boolean they produce is identical to the shape
  objects';
* candidate sets come from the model's own per-floor
  :class:`~repro.dsm.GridIndex` (scalar path) or from a vectorized
  bounding-box mask over the same insertion-ordered entity lists (numpy
  prime path).  Both produce the same candidates in the same order — any
  bounding box containing a point also covers that point's grid cell, and
  grid buckets preserve insertion order — which pins the model's
  first-minimal-area tie-break exactly;
* results are **memoized per session** keyed on the raw coordinates, so
  the ~3.6 locates per record collapse to one.  (``0.0`` and ``-0.0``
  share a key; every downstream decision — comparisons, subtractions,
  ``math.hypot`` — is sign-of-zero-insensitive, so the collapse cannot
  change results.)
* **axis-aligned rectangles answer from comparisons alone**
  (:func:`_is_bbox_rectangle`): for a rectangle whose vertices are its
  bounding-box corners, ``Polygon.contains_point`` is True everywhere in
  ``[min_x, max_x) x [min_y, max_y)`` and only the two max edges still
  need the edge walk, so the numpy prime resolves whole floors from bbox
  masks and never enters the scalar kernel for them;
* the session also answers ``partition_at`` / ``nearest_partition`` with
  the model's own signatures, so the cleaning layer's floor corrector and
  interpolator (``locator=`` hooks) share the chunk's memo;
  ``nearest_partition`` skips an entity only when a conservative
  bounding-box lower bound already exceeds the best distance, and measures
  every survivor with ``shape_distance_to_point`` itself.

The locator returns the *model's own* entity and region objects, never
copies: ``Topology.straight_move_allowed`` compares partitions by
identity (``part_a is not part_b``), so object identity is part of the
equivalence contract.
"""

from __future__ import annotations

import math
from itertools import compress, repeat

import numpy as _np

from ..dsm import DigitalSpaceModel
from ..dsm.entities import IndoorEntity
from ..dsm.regions import SemanticRegion
from ..geometry import (
    Circle,
    Point,
    Polygon,
    shape_area,
    shape_contains,
    shape_distance_to_point,
)
from ..geometry.segment import _EPS as _SEGMENT_EPS
from .batch import RecordBatch

#: Boundary tolerance of ``Polygon.contains_point`` / ``Circle.contains_point``.
_BOUNDARY_EPS = 1e-9
_SEGMENT_EPS_SQ = _SEGMENT_EPS * _SEGMENT_EPS

#: Counts numpy-vectorized prime sweeps; the tests read it to pin which
#: side of the :data:`_VECTOR_PRIME_MIN_ROWS` crossover a batch took.
NUMPY_PRIME_COUNT = 0

#: Batches below this many rows are primed point by point: a vectorized
#: floor sweep costs ~100 us before its first row and ~1 us per row, the
#: scalar path ~5 us per row, and a live window's chunk holds a handful of
#: rows spread over several floors (measured crossover: 32-64 rows).
_VECTOR_PRIME_MIN_ROWS = 64

#: Relative slack of ``nearest_partition``'s bounding-box skip.  Both the
#: lower bound and the exact distance are a handful of roundings (~1e-15
#: relative to the coordinates involved) from their true values.
_NEAREST_GUARD = 1e-9

_hypot = math.hypot


def _polygon_contains(
    vxs: tuple[float, ...],
    vys: tuple[float, ...],
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    px: float,
    py: float,
) -> bool:
    """``Polygon.contains_point`` on flat vertex arrays (same-floor caller).

    Replicates the original exactly: closed-bbox reject, boundary
    proximity against every edge (``Segment.closest_point_to`` arithmetic,
    boundary included), then the same ray cast.
    """
    if not (min_x <= px <= max_x and min_y <= py <= max_y):
        return False
    n = len(vxs)
    for i in range(n):
        ax = vxs[i]
        ay = vys[i]
        j = i + 1
        if j == n:
            j = 0
        dx = vxs[j] - ax
        dy = vys[j] - ay
        norm_sq = dx * dx + dy * dy
        if norm_sq <= _SEGMENT_EPS_SQ:
            cx = ax
            cy = ay
        else:
            t = ((px - ax) * dx + (py - ay) * dy) / norm_sq
            t = max(0.0, min(1.0, t))
            cx = ax + t * dx
            cy = ay + t * dy
        if _hypot(px - cx, py - cy) <= _BOUNDARY_EPS:
            return True  # on the boundary; containment includes it
    inside = False
    j = n - 1
    for i in range(n):
        viy = vys[i]
        vjy = vys[j]
        if (viy > py) != (vjy > py):
            x_cross = vxs[j] + (py - vjy) * (vxs[i] - vxs[j]) / (viy - vjy)
            if px < x_cross:
                inside = not inside
        j = i
    return inside


def _is_bbox_rectangle(
    vxs: tuple[float, ...],
    vys: tuple[float, ...],
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
) -> bool:
    """True for an axis-aligned rectangle drawn through its bbox corners.

    Four distinct vertices, each a corner of the (non-degenerate, finite)
    bounding box, consecutive ones sharing exactly one coordinate — either
    winding, any starting corner.  For such a ring and a point of the
    closed bbox with ``px < max_x and py < max_y``, ``contains_point`` is
    True without arithmetic: either the boundary rule accepts it, or the
    ray cast crosses exactly one edge.  Only the vertical edges straddle
    ``py`` (both do, as ``min_y <= py < max_y``); a vertical edge has
    ``vxs[i] - vxs[j] == 0``, so its ``x_cross`` is its own ``x`` exactly,
    and ``px < x_cross`` holds for the right edge and never for the left.
    """
    if len(vxs) != 4 or not (min_x < max_x and min_y < max_y):
        return False
    if not (math.isfinite(max_x - min_x) and math.isfinite(max_y - min_y)):
        return False  # an overflowing extent would turn x_cross into NaN
    if len(set(zip(vxs, vys))) != 4:
        return False
    for i in range(4):
        x, y = vxs[i], vys[i]
        if not ((x == min_x or x == max_x) and (y == min_y or y == max_y)):
            return False
        if (x == vxs[i - 1]) == (y == vys[i - 1]):
            return False  # a diagonal (bow-tie) or repeated step
    return True


def _circle_contains(
    cx: float, cy: float, radius_plus_eps: float, px: float, py: float
) -> bool:
    """``Circle.contains_point`` (boundary included, same-floor caller)."""
    return _hypot(cx - px, cy - py) <= radius_plus_eps


class _ShapeEntry:
    """One prepared shape: flat geometry plus the owning model object."""

    __slots__ = (
        "key",
        "owner",
        "floor",
        "area",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "vxs",
        "vys",
        "circle",
        "rect",
        "extent",
    )

    def __init__(self, key: str, owner, shape) -> None:
        self.key = key
        self.owner = owner
        if isinstance(shape, Polygon):
            self.floor = shape.floor
            bbox = shape.bounds
            self.vxs: tuple[float, ...] | None = tuple(v.x for v in shape.vertices)
            self.vys: tuple[float, ...] | None = tuple(v.y for v in shape.vertices)
            self.circle = None
        elif isinstance(shape, Circle):
            self.floor = shape.floor
            bbox = shape.bounds
            self.vxs = self.vys = None
            self.circle = (
                shape.center.x,
                shape.center.y,
                shape.radius + _BOUNDARY_EPS,
            )
        else:  # pragma: no cover - partitions/regions are area shapes
            raise TypeError(f"unsupported area shape {type(shape).__name__}")
        self.area = shape_area(shape)
        bounds = (bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y)
        self.min_x, self.min_y, self.max_x, self.max_y = bounds
        #: Whether bbox comparisons alone decide containment below the max
        #: edges.  A non-finite area is excluded so the vectorized
        #: smallest-area pick never compares one.
        self.rect = (
            self.vxs is not None
            and math.isfinite(self.area)
            and _is_bbox_rectangle(self.vxs, self.vys, *bounds)
        )
        #: Largest coordinate magnitude, scaling the nearest-scan guard.
        self.extent = max(abs(value) for value in bounds)

    def contains(self, px: float, py: float) -> bool:
        """Exact same-floor containment (callers check the floor)."""
        if (
            self.rect
            and self.min_x <= px < self.max_x
            and self.min_y <= py < self.max_y
        ):
            return True
        if self.vxs is not None:
            return _polygon_contains(
                self.vxs,
                self.vys,
                self.min_x,
                self.min_y,
                self.max_x,
                self.max_y,
                px,
                py,
            )
        cx, cy, radius_plus_eps = self.circle
        return _circle_contains(cx, cy, radius_plus_eps, px, py)


class _FloorTable:
    """Insertion-ordered shape entries of one floor, with bbox columns."""

    __slots__ = (
        "entries",
        "by_key",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "rect",
        "area",
    )

    def __init__(self, entries: list[_ShapeEntry]) -> None:
        self.entries = entries
        #: ``model.partitions(floor)`` order (by id), for the nearest scan.
        self.by_key = sorted(entries, key=lambda entry: entry.key)
        self.min_x = _np.array([e.min_x for e in entries])
        self.min_y = _np.array([e.min_y for e in entries])
        self.max_x = _np.array([e.max_x for e in entries])
        self.max_y = _np.array([e.max_y for e in entries])
        self.rect = _np.array([e.rect for e in entries], dtype=bool)
        self.area = _np.array([e.area for e in entries])

    def sweep(self, fxs, fys):
        """Containment as far as comparisons alone decide it.

        Returns ``(sure, open_rows)``.  ``sure[k, j]``: row ``k`` lies in
        rectangle ``j`` below its max edges, where ``contains`` is True
        without arithmetic (:func:`_is_bbox_rectangle`).  ``open_rows[k]``:
        some closed-bbox candidate of row ``k`` is not decided that way (a
        non-rectangle, or a point on a max edge) and needs the scalar
        kernel.  A shape whose closed bbox misses the point is no
        candidate at all — the grid index applies the same predicate — so
        a row that is not open is fully decided by ``sure``.
        """
        x = fxs[:, None]
        y = fys[:, None]
        closed = (
            (self.min_x <= x)
            & (x <= self.max_x)
            & (self.min_y <= y)
            & (y <= self.max_y)
        )
        sure = closed & self.rect & (x < self.max_x) & (y < self.max_y)
        return sure, (closed != sure).any(axis=1)


class PointLocator:
    """Prepared point-location over one model's partitions and regions."""

    def __init__(self, model: DigitalSpaceModel):
        self.model = model
        self._prepare()

    def _prepare(self) -> None:
        model = self.model
        model._refresh_indexes()
        # Token for staleness detection: the model reassigns its index
        # dicts on every refresh, so object identity tracks mutations.
        self._index_token = model._partition_index

        partition_entries: dict[int, list[_ShapeEntry]] = {}
        self._entity_entries: dict[str, _ShapeEntry] = {}
        for entity in model._entities.values():  # insertion order, as indexed
            if not entity.is_partition:
                continue
            entry = _ShapeEntry(entity.entity_id, entity, entity.shape)
            partition_entries.setdefault(entity.floor, []).append(entry)
            self._entity_entries[entity.entity_id] = entry
        self._partitions = {
            floor: _FloorTable(entries)
            for floor, entries in partition_entries.items()
        }

        region_entries: dict[int, list[_ShapeEntry]] = {}
        self._region_entries: dict[str, _ShapeEntry] = {}
        self._mapped_regions: dict[str, list[str]] = {}
        self._regions: dict[str, SemanticRegion] = {}
        self._member_area: dict[str, float] = {}
        for region in model._regions.values():  # insertion order, as indexed
            self._regions[region.region_id] = region
            if region.shape is not None:
                entry = _ShapeEntry(region.region_id, region, region.shape)
                region_entries.setdefault(region.shape.floor, []).append(entry)
                self._region_entries[region.region_id] = entry
            # Same expression (and member order) as primary_region_at's
            # specificity fallback, so the precomputed sum is bit-identical.
            self._member_area[region.region_id] = sum(
                shape_area(model._entities[e].shape) for e in region.entity_ids
            )
            for entity_id in region.entity_ids:
                self._mapped_regions.setdefault(entity_id, []).append(
                    region.region_id
                )
        self._region_tables = {
            floor: _FloorTable(entries)
            for floor, entries in region_entries.items()
        }
        #: No region is both drawn and member-mapped: a mapped region then
        #: never takes the shape rank, and the primary region is a function
        #: of (located partition, containing region shapes) alone.
        self._regions_separable = not any(
            region.shape is not None and region.entity_ids
            for region in model._regions.values()
        )

    def _fresh(self) -> bool:
        model = self.model
        return model._indexes_fresh and (
            model._partition_index is self._index_token
        )

    def session(self) -> "LocatorSession":
        """A memoizing lookup session (one per phase-one chunk)."""
        if not self._fresh():
            self._prepare()
        return LocatorSession(self)

    def entity_entry(self, entity_id: str) -> _ShapeEntry:
        """The prepared shape entry of a partition entity."""
        return self._entity_entries[entity_id]


class LocatorSession:
    """Memoized partition / primary-region lookups over one chunk.

    The memo keys are the raw ``(x, y, floor)`` coordinates, so repeated
    locates of the same fix — by the cleaner, the splitter and the
    matcher — cost one dict hit after the first computation (or after
    :meth:`prime` swept the whole batch).  :meth:`partition_at` and
    :meth:`nearest_partition` carry the model's signatures, so the session
    stands in for the model wherever the cleaning layer takes a
    ``locator``.
    """

    __slots__ = ("locator", "model", "_partitions", "_regions", "_nearest")

    def __init__(self, locator: PointLocator) -> None:
        self.locator = locator
        self.model = locator.model
        self._partitions: dict[tuple, IndoorEntity | None] = {}
        self._regions: dict[tuple, SemanticRegion | None] = {}
        self._nearest: dict[tuple, tuple[IndoorEntity, float] | None] = {}

    # ------------------------------------------------------------------
    # Bulk prime
    # ------------------------------------------------------------------
    def prime(self, batch: RecordBatch) -> None:
        """Locate every batch row up front, filling both memos.

        Each floor of a large enough batch is swept with vectorized
        bounding-box comparisons (:meth:`_FloorTable.sweep`); rows they
        fully decide — on rectangle-only venues, all but points on a max
        edge — are resolved without a per-row kernel call, and the rest
        fall through to the scalar per-point path, as every row of a
        small batch does.
        """
        n = len(batch)
        if n < _VECTOR_PRIME_MIN_ROWS:
            for i in range(n):
                self.partition_entity(batch.xs[i], batch.ys[i], batch.floors[i])
                self.primary_region(batch.xs[i], batch.ys[i], batch.floors[i])
            return
        global NUMPY_PRIME_COUNT
        NUMPY_PRIME_COUNT += 1
        xs = batch.column("xs")
        ys = batch.column("ys")
        floors = batch.column("floors")
        # Not np.unique: its first call imports numpy.ma (~10 ms).
        for floor in sorted(set(batch.floors)):
            rows = _np.nonzero(floors == floor)[0]
            self._prime_floor(floor, xs[rows], ys[rows])

    def _prime_floor(self, floor: int, fxs, fys) -> None:
        locator = self.locator
        keys = list(zip(fxs.tolist(), fys.tolist(), repeat(floor)))
        open_rows = _np.zeros(len(keys), dtype=bool)

        # Partitions: per row, the index of the winning entry; the slot
        # past the last entry stands for "no partition".
        owners: list[IndoorEntity | None] = [None]
        winners = _np.zeros(len(keys), dtype=_np.intp)
        partitions = locator._partitions.get(floor)
        if partitions is not None:
            sure, open_rows = partitions.sweep(fxs, fys)
            # _locate_partition's scan keeps the first minimal area in
            # insertion order; argmin returns the first minimum too.
            winners = _np.where(sure, partitions.area, _np.inf).argmin(axis=1)
            winners[~sure.any(axis=1)] = len(partitions.entries)
            owners = [entry.owner for entry in partitions.entries] + [None]

        # Drawn regions: per row, which shapes contain it.
        combos = winners[:, None]
        shapes: list[_ShapeEntry] = []
        regions = locator._region_tables.get(floor)
        if regions is not None:
            hits, region_open = regions.sweep(fxs, fys)
            open_rows = open_rows | region_open
            combos = _np.column_stack([winners, hits])
            shapes = regions.entries

        decided = (~open_rows).tolist()
        self._partitions.update(
            zip(
                compress(keys, decided),
                [owners[i] for i in compress(winners.tolist(), decided)],
            )
        )
        if locator._regions_separable:
            # One ranking per distinct (partition, containing shapes) pair,
            # grouped by row bytes (faster than ``axis=0``; order is moot).
            combos = _np.ascontiguousarray(combos[~open_rows])
            row_bytes = combos.dtype.itemsize * combos.shape[1]
            _, first, inverse = _np.unique(
                combos.view(_np.dtype((_np.void, row_bytes))).ravel(),
                return_index=True,
                return_inverse=True,
            )
            distinct = combos[first]
            primaries = []
            for winner, *hit in distinct.tolist():
                found = {entry.key: True for entry in compress(shapes, hit)}
                self._add_mapped(found, owners[winner], None)
                primaries.append(self._most_specific(found))
            self._regions.update(
                zip(
                    compress(keys, decided),
                    [primaries[i] for i in inverse.reshape(-1).tolist()],
                )
            )
            keys = compress(keys, open_rows.tolist())
        # Whatever the masks left open takes the per-point path (which
        # finds the decided partitions already memoized).
        for x, y, _ in keys:
            self.partition_entity(x, y, floor)
            self.primary_region(x, y, floor)

    # ------------------------------------------------------------------
    # Scalar lookups
    # ------------------------------------------------------------------
    def partition_entity(
        self, x: float, y: float, floor: int
    ) -> IndoorEntity | None:
        """Memoized ``model.partition_at`` (same entity object or None)."""
        key = (x, y, floor)
        memo = self._partitions
        if key in memo:
            return memo[key]
        result = self._locate_partition(x, y, floor, self._candidates(x, y, floor))
        memo[key] = result
        return result

    def primary_region(
        self, x: float, y: float, floor: int
    ) -> SemanticRegion | None:
        """Memoized ``model.primary_region_at`` (same region object or None)."""
        key = (x, y, floor)
        memo = self._regions
        if key in memo:
            return memo[key]
        result = self._locate_region(
            x, y, floor, self._region_candidates(x, y, floor)
        )
        memo[key] = result
        return result

    def entity_contains(self, entity: IndoorEntity, x: float, y: float) -> bool:
        """Exact ``shape_contains(entity.shape, point)`` for a same-floor point."""
        return self.locator._entity_entries[entity.entity_id].contains(x, y)

    def partition_at(self, point: Point) -> IndoorEntity | None:
        """``model.partition_at`` through the memo."""
        return self.partition_entity(point.x, point.y, point.floor)

    def nearest_partition(
        self, point: Point, max_distance: float = 10.0
    ) -> tuple[IndoorEntity, float] | None:
        """Memoized ``model.nearest_partition``: same entity, same float.

        The model measures every partition of the floor in id order and
        keeps the last one within the running best (``<=``).  This scan
        keeps that order and measures with ``shape_distance_to_point``
        itself, but skips an entity whose bounding box is already farther
        than the best: the box's Chebyshev distance underestimates the true
        distance to anything inside it, and the guard — a million times the
        rounding error of either computation — keeps the skip strictly
        conservative, so a skipped entity could never have passed ``<=``.
        """
        key = (point.x, point.y, point.floor, max_distance)
        memo = self._nearest
        if key in memo:
            return memo[key]
        x, y, floor, _ = key
        inside = self.partition_entity(x, y, floor)
        table = self.locator._partitions.get(floor)
        if inside is not None:
            result = (inside, 0.0)
        elif table is None:
            result = None
        else:
            best = None
            best_dist = max_distance
            for entry in table.by_key:
                dx = max(entry.min_x - x, x - entry.max_x, 0.0)
                dy = max(entry.min_y - y, y - entry.max_y, 0.0)
                lower = dx if dx > dy else dy
                if lower > best_dist + _NEAREST_GUARD * (
                    1.0 + lower + entry.extent
                ):
                    continue
                dist = shape_distance_to_point(entry.owner.shape, point)
                if dist <= best_dist:
                    best, best_dist = entry.owner, dist
            result = None if best is None else (best, best_dist)
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # Candidate retrieval (scalar path: the model's own grid index)
    # ------------------------------------------------------------------
    def _candidates(self, x: float, y: float, floor: int) -> list[_ShapeEntry]:
        index = self.model._partition_index.get(floor)
        if index is None:
            return ()
        entries = self.locator._entity_entries
        return [entries[key] for key in index.candidates_at(Point(x, y, floor))]

    def _region_candidates(
        self, x: float, y: float, floor: int
    ) -> list[_ShapeEntry]:
        index = self.model._region_index.get(floor)
        if index is None:
            return ()
        entries = self.locator._region_entries
        return [entries[key] for key in index.candidates_at(Point(x, y, floor))]

    # ------------------------------------------------------------------
    # Exact location (replicates DigitalSpaceModel's tie-breaks verbatim)
    # ------------------------------------------------------------------
    @staticmethod
    def _locate_partition(
        x: float, y: float, floor: int, candidates
    ) -> IndoorEntity | None:
        # Same scan as partition_at: strict < keeps the first minimal-area
        # containing partition in candidate (= insertion) order.
        best: IndoorEntity | None = None
        best_area = math.inf
        for entry in candidates:
            if entry.contains(x, y):
                if entry.area < best_area:
                    best = entry.owner
                    best_area = entry.area
        return best

    def _locate_region(
        self, x: float, y: float, floor: int, shape_candidates
    ) -> SemanticRegion | None:
        # regions_at: explicit-shape hits plus the located partition's
        # mapped regions ...
        found = {
            entry.key: True
            for entry in shape_candidates
            if entry.contains(x, y)
        }
        self._add_mapped(found, self.partition_entity(x, y, floor), (x, y, floor))
        return self._most_specific(found)

    def _add_mapped(
        self, found: dict[str, bool], partition: IndoorEntity | None, at
    ) -> None:
        """Add the partition's mapped regions to ``found``.

        The value says whether the region's own shape contains the point.
        A mapped region is absent from the shape hits either because it
        has no shape on this floor or because the candidate index missed it
        (a circle reaches ``1e-9`` past its bbox), so a drawn one is
        re-tested at ``at = (x, y, floor)`` as ``primary_region_at`` does;
        callers that ruled drawn-and-mapped regions out pass ``None``.
        """
        if partition is None:
            return
        locator = self.locator
        for region_id in locator._mapped_regions.get(partition.entity_id, ()):
            if region_id not in found:
                entry = locator._region_entries.get(region_id)
                found[region_id] = (
                    entry is not None
                    and entry.floor == at[2]
                    and entry.contains(at[0], at[1])
                )

    def _most_specific(self, found: dict[str, bool]) -> SemanticRegion | None:
        # ... emitted in sorted region-id order, then primary_region_at:
        # min() over that order by the same (shape-contains, area)
        # specificity key, first minimum winning.
        locator = self.locator
        best: SemanticRegion | None = None
        best_rank: tuple[int, float] | None = None
        for region_id in sorted(found):
            if found[region_id]:
                rank = (0, locator._region_entries[region_id].area)
            else:
                rank = (1, locator._member_area[region_id])
            if best_rank is None or rank < best_rank:
                best = locator._regions[region_id]
                best_rank = rank
        return best


def reference_partition_at(model: DigitalSpaceModel, point: Point):
    """The object-model answer, for differential tests."""
    return model.partition_at(point)


def reference_region_at(model: DigitalSpaceModel, point: Point):
    """The object-model primary region, for differential tests."""
    return model.primary_region_at(point)


def kernel_shape_contains(entry: _ShapeEntry, point: Point) -> bool:
    """Exposed for tests: the kernel's verdict on one prepared shape."""
    if point.floor != entry.floor:
        return False
    return entry.contains(point.x, point.y)


def reference_shape_contains(shape, point: Point) -> bool:
    """Exposed for tests: the object model's verdict on the same shape."""
    return shape_contains(shape, point)
