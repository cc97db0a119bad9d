"""Derived indoor topology: door attachment, connectivity, walking distance.

This module turns the DSM's drawn geometry into the relational structures
the Translator needs:

* which partitions each door connects (derived geometrically);
* the partition connectivity graph (nodes = partitions, edges = doors);
* the navigation graph over door/staircase anchor points, whose shortest
  paths realize the paper's "minimum indoor walking distance" [13] used by
  the cleaning layer;
* the semantic-region adjacency graph used by the complementing layer's
  mobility-knowledge inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count

import networkx as nx

from ..errors import DSMError
from ..geometry import Point, shape_bounds, shape_contains, shape_distance_to_point
from .entities import EntityKind, IndoorEntity
from .model import DigitalSpaceModel

#: How far a door anchor may sit from a partition boundary and still attach.
DOOR_ATTACH_TOLERANCE = 0.75
#: Walking-cost (metres-equivalent) of moving one floor via stairs/elevator.
FLOOR_CHANGE_COST = 20.0


@dataclass
class Topology:
    """Connectivity derived from a :class:`DigitalSpaceModel`."""

    model: DigitalSpaceModel
    door_attach_tolerance: float = DOOR_ATTACH_TOLERANCE
    floor_change_cost: float = FLOOR_CHANGE_COST
    #: door id -> partition ids it connects (1 = entrance, 2 = interior door)
    door_connections: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: partition connectivity graph; edge attr ``doors`` lists door ids
    partition_graph: nx.Graph = field(default_factory=nx.Graph)
    #: navigation graph over door/stack anchors; edge attr ``weight`` metres
    nav_graph: nx.Graph = field(default_factory=nx.Graph)
    #: semantic-region adjacency; edge attr ``weight`` = anchor distance
    region_graph: nx.Graph = field(default_factory=nx.Graph)

    _nav_nodes_by_partition: dict[str, list[str]] = field(default_factory=dict)
    _nav_anchor: dict[str, Point] = field(default_factory=dict)
    _dijkstra_cache: dict[str, dict[str, float]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        model: DigitalSpaceModel,
        door_attach_tolerance: float = DOOR_ATTACH_TOLERANCE,
        floor_change_cost: float = FLOOR_CHANGE_COST,
    ) -> "Topology":
        """Compute the full topology of ``model``."""
        topology = cls(
            model=model,
            door_attach_tolerance=door_attach_tolerance,
            floor_change_cost=floor_change_cost,
        )
        topology._attach_doors()
        topology._build_partition_graph()
        topology._build_nav_graph()
        topology._build_region_graph()
        return topology

    # ------------------------------------------------------------------
    # Construction steps
    # ------------------------------------------------------------------
    def _attach_doors(self) -> None:
        tolerance = self.door_attach_tolerance
        partitions_by_floor: dict[int, list[IndoorEntity]] = {}
        for partition in self.model.partitions():
            partitions_by_floor.setdefault(partition.floor, []).append(partition)
        for door in self.model.doors():
            anchor = door.anchor
            candidates: list[tuple[float, str]] = []
            for partition in partitions_by_floor.get(door.floor, ()):
                # Farther than the tolerance on one axis cannot attach.
                box = shape_bounds(partition.shape)
                if (
                    box.min_x - anchor.x > tolerance
                    or anchor.x - box.max_x > tolerance
                    or box.min_y - anchor.y > tolerance
                    or anchor.y - box.max_y > tolerance
                ):
                    continue
                dist = shape_distance_to_point(partition.shape, anchor)
                if dist <= tolerance:
                    candidates.append((dist, partition.entity_id))
            candidates.sort()
            connected = tuple(pid for _, pid in candidates[:2])
            self.door_connections[door.entity_id] = connected

    def _build_partition_graph(self) -> None:
        for partition in self.model.partitions():
            self.partition_graph.add_node(partition.entity_id)
        for door_id, connected in self.door_connections.items():
            if len(connected) == 2:
                a, b = connected
                if self.partition_graph.has_edge(a, b):
                    self.partition_graph.edges[a, b]["doors"].append(door_id)
                else:
                    self.partition_graph.add_edge(a, b, doors=[door_id])
        # Vertical connectors join the partitions that contain their anchors
        # across floors, through the shared stack.
        for stack_id, entities in self._stacks().items():
            by_floor = sorted(entities, key=lambda e: e.floor)
            for lower, upper in zip(by_floor, by_floor[1:]):
                pa = self.model.partition_at(lower.anchor)
                pb = self.model.partition_at(upper.anchor)
                if pa is None or pb is None:
                    continue
                key = f"stack:{stack_id}:{lower.floor}-{upper.floor}"
                if self.partition_graph.has_edge(pa.entity_id, pb.entity_id):
                    self.partition_graph.edges[pa.entity_id, pb.entity_id][
                        "doors"
                    ].append(key)
                else:
                    self.partition_graph.add_edge(
                        pa.entity_id, pb.entity_id, doors=[key]
                    )

    def _build_nav_graph(self) -> None:
        # Door nodes.
        for door in self.model.doors():
            node = f"door:{door.entity_id}"
            self.nav_graph.add_node(node)
            self._nav_anchor[node] = door.anchor
            for partition_id in self.door_connections.get(door.entity_id, ()):
                self._nav_nodes_by_partition.setdefault(partition_id, []).append(
                    node
                )
        # Stack nodes (one per connector entity, i.e. per stack per floor).
        for stack_id, entities in self._stacks().items():
            nodes_by_floor: dict[int, str] = {}
            for entity in entities:
                node = f"stack:{stack_id}:{entity.floor}"
                self.nav_graph.add_node(node)
                self._nav_anchor[node] = entity.anchor
                nodes_by_floor[entity.floor] = node
                partition = self.model.partition_at(entity.anchor)
                if partition is not None:
                    self._nav_nodes_by_partition.setdefault(
                        partition.entity_id, []
                    ).append(node)
            floors = sorted(nodes_by_floor)
            for lower, upper in zip(floors, floors[1:]):
                cost = self.floor_change_cost * (upper - lower)
                self.nav_graph.add_edge(
                    nodes_by_floor[lower], nodes_by_floor[upper], weight=cost
                )
        # Intra-partition edges between every pair of its nav nodes.
        for nodes in self._nav_nodes_by_partition.values():
            for i, node_a in enumerate(nodes):
                for node_b in nodes[i + 1 :]:
                    weight = self._nav_anchor[node_a].planar_distance_to(
                        self._nav_anchor[node_b]
                    )
                    existing = self.nav_graph.get_edge_data(node_a, node_b)
                    if existing is None or existing["weight"] > weight:
                        self.nav_graph.add_edge(node_a, node_b, weight=weight)

    def _build_region_graph(self) -> None:
        region_ids = [r.region_id for r in self.model.regions()]
        self.region_graph.add_nodes_from(region_ids)
        partitions_by_region: dict[str, set[str]] = {rid: set() for rid in region_ids}
        for partition in self.model.partitions():
            for region in self.model.regions_of_partition(partition.entity_id):
                partitions_by_region[region.region_id].add(partition.entity_id)

        def link(a: str, b: str) -> None:
            if a == b or self.region_graph.has_edge(a, b):
                return
            weight = self.region_distance(a, b)
            if not math.isfinite(weight):
                anchor_a = self.model.region_anchor(a)
                anchor_b = self.model.region_anchor(b)
                weight = anchor_a.planar_distance_to(anchor_b) + abs(
                    anchor_a.floor - anchor_b.floor
                ) * self.floor_change_cost
            self.region_graph.add_edge(a, b, weight=weight)

        # Regions joined by a partition-graph edge (door or stack).
        for pa, pb in self.partition_graph.edges():
            for ra in self.model.regions_of_partition(pa):
                for rb in self.model.regions_of_partition(pb):
                    link(ra.region_id, rb.region_id)
        # Regions sharing a partition (two zones of one hallway).
        for rid_a in region_ids:
            for rid_b in region_ids:
                if rid_a < rid_b and partitions_by_region[rid_a] & partitions_by_region[
                    rid_b
                ]:
                    link(rid_a, rid_b)

    def _stacks(self) -> dict[str, list[IndoorEntity]]:
        stacks: dict[str, list[IndoorEntity]] = {}
        for entity in self.model.vertical_connectors():
            stack_id = entity.stack or entity.entity_id
            stacks.setdefault(stack_id, []).append(entity)
        return stacks

    # ------------------------------------------------------------------
    # Door / partition queries
    # ------------------------------------------------------------------
    def partitions_of_door(self, door_id: str) -> tuple[str, ...]:
        """Partition ids a door connects (empty if dangling)."""
        if door_id not in self.door_connections:
            raise DSMError(f"unknown door id: {door_id!r}")
        return self.door_connections[door_id]

    def doors_of_partition(self, partition_id: str) -> list[str]:
        """Door ids attached to a partition, in id order."""
        found = [
            door_id
            for door_id, connected in self.door_connections.items()
            if partition_id in connected
        ]
        return sorted(found)

    def partitions_connected(self, partition_a: str, partition_b: str) -> bool:
        """True when a walkable path exists between the two partitions."""
        if partition_a == partition_b:
            return True
        if partition_a not in self.partition_graph or (
            partition_b not in self.partition_graph
        ):
            return False
        return nx.has_path(self.partition_graph, partition_a, partition_b)

    # ------------------------------------------------------------------
    # Walking distance (minimum indoor walking distance, per [13])
    # ------------------------------------------------------------------
    def walking_distance(self, start: Point, goal: Point) -> float:
        """Shortest indoor walking distance between two points in metres.

        Same-partition pairs use the direct planar distance; anything else
        must detour through doors (and stairs for cross-floor pairs).
        Returns ``inf`` when no walkable route exists.
        """
        distance, _ = self._route(start, goal, want_path=False)
        return distance

    def walking_path(self, start: Point, goal: Point) -> list[Point]:
        """Waypoints of the shortest walking route, including endpoints.

        Returns an empty list when the goal is unreachable.
        """
        distance, path = self._route(start, goal, want_path=True)
        if not math.isfinite(distance):
            return []
        return path

    def reachable(self, start: Point, goal: Point) -> bool:
        """True when a walkable route between the points exists."""
        return math.isfinite(self.walking_distance(start, goal))

    def _route(
        self, start: Point, goal: Point, want_path: bool
    ) -> tuple[float, list[Point]]:
        part_a = self._locate(start)
        part_b = self._locate(goal)
        if part_a is None or part_b is None:
            return math.inf, []
        if part_a == part_b:
            # Same partition implies same floor in practice; guard anyway.
            floor_penalty = 0.0 if start.floor == goal.floor else math.inf
            return start.planar_distance_to(goal) + floor_penalty, [start, goal]
        best, best_pair = self._door_route(part_a, part_b, start, goal)
        if best_pair is None:
            return math.inf, []
        if not want_path:
            return best, []
        node_path = nx.dijkstra_path(self.nav_graph, best_pair[0], best_pair[1])
        waypoints = [start] + [self._nav_anchor[n] for n in node_path] + [goal]
        return best, waypoints

    def _lengths_from(self, node: str) -> dict[str, float]:
        cached = self._dijkstra_cache.get(node)
        if cached is None:
            cached = _dijkstra_lengths(self.nav_graph._adj, node)
            self._dijkstra_cache[node] = cached
        return cached

    def _door_route(
        self, part_a: str, part_b: str, start: Point, goal: Point
    ) -> tuple[float, tuple[str, str] | None]:
        """The shortest ``entry + through + exit_leg`` between two distinct
        partitions and its ``(node_a, node_b)`` pair (``None`` if none).
        Each exit leg is measured once per ``node_b``, not once per pair;
        the strict ``<`` keeps the first best pair in loop order."""
        nodes_b = self._nav_nodes_by_partition.get(part_b, [])
        anchors = self._nav_anchor
        # planar_distance_to's own hypot of the same differences.
        gx, gy, sx, sy = goal.x, goal.y, start.x, start.y
        exits = [math.hypot(anchors[n].x - gx, anchors[n].y - gy) for n in nodes_b]
        best = math.inf
        best_pair: tuple[str, str] | None = None
        for node_a in self._nav_nodes_by_partition.get(part_a, []) if nodes_b else ():
            lengths = self._lengths_from(node_a)
            anchor = anchors[node_a]
            entry = math.hypot(sx - anchor.x, sy - anchor.y)
            for node_b, exit_leg in zip(nodes_b, exits):
                through = lengths.get(node_b)
                if through is None:
                    continue
                total = entry + through + exit_leg
                if total < best:
                    best = total
                    best_pair = (node_a, node_b)
        return best, best_pair

    def _locate(self, point: Point, snap_distance: float = 5.0) -> str | None:
        partition = self.model.partition_at(point)
        if partition is not None:
            return partition.entity_id
        snapped = self.model.nearest_partition(point, snap_distance)
        if snapped is None:
            return None
        return snapped[0].entity_id

    # ------------------------------------------------------------------
    # Region queries (used by the complementing layer)
    # ------------------------------------------------------------------
    def regions_adjacent(self, region_a: str, region_b: str) -> bool:
        """True when the regions are neighbors in the region graph."""
        return self.region_graph.has_edge(region_a, region_b)

    def region_neighbors(self, region_id: str) -> list[str]:
        """Adjacent region ids, sorted."""
        if region_id not in self.region_graph:
            raise DSMError(f"region {region_id!r} not in region graph")
        return sorted(self.region_graph.neighbors(region_id))

    def region_distance(self, region_a: str, region_b: str) -> float:
        """Walking distance between region anchor points."""
        if region_a == region_b:
            return 0.0
        anchor_a = self.model.region_anchor(region_a)
        anchor_b = self.model.region_anchor(region_b)
        return self.walking_distance(anchor_a, anchor_b)

    def region_hops(self, region_a: str, region_b: str) -> int:
        """Number of region-graph edges on the shortest hop path (inf-free:
        raises DSMError when unreachable)."""
        if region_a == region_b:
            return 0
        try:
            return nx.shortest_path_length(self.region_graph, region_a, region_b)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise DSMError(
                f"regions {region_a!r} and {region_b!r} are not connected"
            ) from exc

    def region_path(self, region_a: str, region_b: str) -> list[str]:
        """Region ids along the shortest weighted region-graph path."""
        try:
            return nx.dijkstra_path(self.region_graph, region_a, region_b)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise DSMError(
                f"regions {region_a!r} and {region_b!r} are not connected"
            ) from exc

    # ------------------------------------------------------------------
    # Movement feasibility (cleaning layer support)
    # ------------------------------------------------------------------
    def straight_move_allowed(self, start: Point, goal: Point) -> bool:
        """True when the straight segment stays within one partition.

        The cleaning layer uses this to decide whether the direct distance
        or the door-detour distance bounds the feasible speed.
        """
        if start.floor != goal.floor:
            return False
        part_a = self.model.partition_at(start)
        part_b = self.model.partition_at(goal)
        if part_a is None or part_b is None or part_a is not part_b:
            return False
        midpoint = start.midpoint(goal)
        return shape_contains(part_a.shape, midpoint)

    def __str__(self) -> str:
        return (
            f"Topology({self.partition_graph.number_of_nodes()} partitions, "
            f"{len(self.door_connections)} doors, "
            f"{self.region_graph.number_of_nodes()} regions)"
        )


def _dijkstra_lengths(adjacency: dict, source: str) -> dict[str, float]:
    """``nx.single_source_dijkstra_path_length`` over a graph's ``_adj``:
    networkx's own loop (``(distance, counter, node)`` heap, adjacency
    order, strict ``<``, ``distance + weight``) without its per-edge
    callback, so the dict is equal key for key, in order, bit for bit.
    Weights are non-negative: a settled node is never improved."""
    dist: dict[str, float] = {}
    seen = {source: 0}
    tie = count()
    fringe = [(0, next(tie), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, data in adjacency[v].items():
            vu_dist = dist_v + data.get("weight", 1)
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(tie), u))
    return dist
