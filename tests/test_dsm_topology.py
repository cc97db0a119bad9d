"""Unit tests for the derived topology: doors, walking distance, regions."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildings import MallConfig, build_airport, build_mall, build_office
from repro.dsm import (
    DigitalSpaceModel,
    EntityKind,
    IndoorEntity,
    Topology,
)
from repro.dsm.topology import _dijkstra_lengths
from repro.errors import DSMError
from repro.geometry import Point, Polygon, shape_distance_to_point

from .conftest import make_two_shop_dsm


class TestDoorAttachment:
    def test_interior_door_connects_two(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert set(topology.partitions_of_door("door-adidas")) == {
            "hall", "shop-adidas",
        }

    def test_entrance_connects_one(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.partitions_of_door("door-main") == ("hall",)

    def test_unknown_door_raises(self, two_shop_shared):
        with pytest.raises(DSMError):
            two_shop_shared.topology.partitions_of_door("ghost")

    def test_doors_of_partition(self, two_shop_shared):
        doors = two_shop_shared.topology.doors_of_partition("hall")
        assert doors == ["door-adidas", "door-cashier", "door-main", "door-nike"]

    def test_partition_graph_connected(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.partitions_connected("shop-adidas", "shop-cashier")
        assert topology.partitions_connected("hall", "hall")


class TestWalkingDistance:
    def test_same_partition_is_euclidean(self, two_shop_shared):
        topology = two_shop_shared.topology
        d = topology.walking_distance(Point(1, 5), Point(29, 5))
        assert d == pytest.approx(28.0)

    def test_shop_to_shop_detours_through_doors(self, two_shop_shared):
        topology = two_shop_shared.topology
        direct = Point(5, 15).planar_distance_to(Point(15, 15))
        walked = topology.walking_distance(Point(5, 15), Point(15, 15))
        assert walked > direct  # must leave through the doors

    def test_symmetry(self, two_shop_shared):
        topology = two_shop_shared.topology
        a, b = Point(5, 15), Point(25, 15)
        assert topology.walking_distance(a, b) == pytest.approx(
            topology.walking_distance(b, a)
        )

    def test_walking_path_endpoints(self, two_shop_shared):
        topology = two_shop_shared.topology
        path = topology.walking_path(Point(5, 15), Point(25, 15))
        assert path[0] == Point(5, 15)
        assert path[-1] == Point(25, 15)
        assert len(path) >= 4  # via two door anchors

    def test_unreachable_point_is_inf(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.walking_distance(
            Point(5, 15), Point(500, 500)
        ) == math.inf
        assert topology.walking_path(Point(5, 15), Point(500, 500)) == []

    def test_reachable(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.reachable(Point(5, 15), Point(25, 15))
        assert not topology.reachable(Point(5, 15), Point(500, 500))

    def test_straight_move_allowed_within_hall(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.straight_move_allowed(Point(1, 5), Point(29, 5))
        assert not topology.straight_move_allowed(Point(5, 15), Point(15, 15))
        assert not topology.straight_move_allowed(
            Point(1, 5), Point(1, 5).with_floor(2)
        )


class TestCrossFloor:
    @pytest.fixture
    def tower(self):
        """Two stacked halls joined by one staircase."""
        model = DigitalSpaceModel(name="tower")
        for floor in (1, 2):
            model.add_entity(
                IndoorEntity(
                    f"hall-{floor}", EntityKind.HALLWAY,
                    Polygon.rectangle(0, 0, 20, 10, floor=floor),
                )
            )
            model.add_entity(
                IndoorEntity(
                    f"stair-{floor}", EntityKind.STAIRCASE,
                    Polygon.rectangle(9, 4, 11, 6, floor=floor),
                    properties={"stack": "A"},
                )
            )
        return model

    def test_cross_floor_distance_includes_stack_cost(self, tower):
        topology = tower.topology
        d = topology.walking_distance(Point(1, 5, 1), Point(1, 5, 2))
        # in: 1 -> stair (9m), stack cost 20, out: stair -> 1 (9m)
        assert d == pytest.approx(9 + 20 + 9, abs=1.5)

    def test_cross_floor_path_switches_floor(self, tower):
        path = tower.topology.walking_path(Point(1, 5, 1), Point(19, 5, 2))
        floors = [p.floor for p in path]
        assert floors[0] == 1 and floors[-1] == 2

    def test_partition_graph_links_floors(self, tower):
        assert tower.topology.partitions_connected("hall-1", "hall-2")

    def test_custom_floor_cost(self, tower):
        topology = Topology.build(tower, floor_change_cost=100.0)
        d = topology.walking_distance(Point(10, 5, 1), Point(10, 5, 2))
        assert d >= 100.0


class TestRegionGraph:
    def test_shop_adjacent_to_hall(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.regions_adjacent("r-adidas", "r-hall")
        assert topology.regions_adjacent("r-nike", "r-hall")

    def test_shops_not_directly_adjacent(self, two_shop_shared):
        assert not two_shop_shared.topology.regions_adjacent(
            "r-adidas", "r-nike"
        )

    def test_region_neighbors(self, two_shop_shared):
        neighbors = two_shop_shared.topology.region_neighbors("r-hall")
        assert neighbors == ["r-adidas", "r-cashier", "r-nike"]

    def test_region_neighbors_unknown_raises(self, two_shop_shared):
        with pytest.raises(DSMError):
            two_shop_shared.topology.region_neighbors("ghost")

    def test_region_hops(self, two_shop_shared):
        topology = two_shop_shared.topology
        assert topology.region_hops("r-adidas", "r-adidas") == 0
        assert topology.region_hops("r-adidas", "r-hall") == 1
        assert topology.region_hops("r-adidas", "r-nike") == 2

    def test_region_path(self, two_shop_shared):
        path = two_shop_shared.topology.region_path("r-adidas", "r-cashier")
        assert path[0] == "r-adidas" and path[-1] == "r-cashier"
        assert "r-hall" in path

    def test_region_distance_positive(self, two_shop_shared):
        d = two_shop_shared.topology.region_distance("r-adidas", "r-nike")
        assert 10 < d < 40

    def test_region_distance_self_zero(self, two_shop_shared):
        assert two_shop_shared.topology.region_distance("r-hall", "r-hall") == 0.0

    def test_mall_region_graph_connected(self, mall):
        import networkx as nx

        graph = mall.topology.region_graph
        assert nx.is_connected(graph)

    def test_mall_cross_floor_region_edges_exist(self, mall):
        # Corridors of adjacent floors must be adjacent via the stacks.
        corridors = [
            r.region_id for r in mall.regions() if r.name.startswith("Corridor")
        ]
        assert mall.topology.regions_adjacent(corridors[0], corridors[1])


class TestTopologyCaching:
    def test_topology_invalidated_on_mutation(self, two_shop):
        first = two_shop.topology
        two_shop.add_entity(
            IndoorEntity("door-extra", EntityKind.DOOR, Point(10, 15))
        )
        second = two_shop.topology
        assert first is not second
        assert "door-extra" in second.door_connections

    def test_topology_cached_between_reads(self, two_shop):
        assert two_shop.topology is two_shop.topology


def _typed_hex(lengths: dict) -> list:
    """Key, type and exact bits of every distance, in dict order."""
    return [(key, type(value), float(value).hex()) for key, value in lengths.items()]


class TestLeanDijkstra:
    """``Topology._lengths_from`` runs its own Dijkstra over the nav graph;
    networkx's is the oracle, compared key for key, in order, by bits."""

    @pytest.mark.parametrize(
        "build",
        [lambda: build_mall(MallConfig(floors=3)), build_office, build_airport],
        ids=["mall", "office", "airport"],
    )
    def test_equals_networkx_from_every_nav_node(self, build):
        topology = build().topology
        graph = topology.nav_graph
        assert graph.number_of_nodes() > 10
        for node in graph:
            expected = nx.single_source_dijkstra_path_length(graph, node)
            assert _typed_hex(topology._lengths_from(node)) == _typed_hex(expected)

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(0, 4)
            ),
            max_size=40,
        ),
        source=st.integers(0, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_networkx_on_tied_integer_weights(self, edges, source):
        """Small integer weights make equal-length paths common, so the
        counter tie-break and the strict ``<`` decide the order."""
        graph = nx.Graph()
        graph.add_nodes_from(f"n{i}" for i in range(10))
        for a, b, weight in edges:
            graph.add_edge(f"n{a}", f"n{b}", weight=weight)
        expected = nx.single_source_dijkstra_path_length(graph, f"n{source}")
        found = _dijkstra_lengths(graph._adj, f"n{source}")
        assert list(found.items()) == list(expected.items())
        assert [type(v) for v in found.values()] == [
            type(v) for v in expected.values()
        ]


def make_gapped_dsm() -> DigitalSpaceModel:
    """Two rooms a 1 m wall gap apart, with door anchors in the gap, off
    a corner and past a room's edge: each lies outside some room's box by
    less than the attach tolerance on one or both axes, or by more."""
    model = DigitalSpaceModel(name="gapped")
    for entity_id, x in (("west", 0.0), ("east", 11.0)):
        model.add_entity(
            IndoorEntity(entity_id, EntityKind.ROOM, Polygon.rectangle(x, 0, x + 10, 10))
        )
    for index, (x, y) in enumerate(
        [(10.5, 5), (10.9, 5), (10.1, 5), (5, 10.6), (5, 10.8), (10.4, 10.4),
         (-0.7, -0.7), (21.5, 3)]
    ):
        model.add_entity(IndoorEntity(f"door-{index}", EntityKind.DOOR, Point(x, y)))
    return model


class TestDoorAttachmentSkip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mall(MallConfig(floors=3)),
            build_office,
            build_airport,
            make_two_shop_dsm,
            make_gapped_dsm,
        ],
        ids=["mall", "office", "airport", "two-shop", "gapped"],
    )
    def test_bounding_box_skip_changes_no_door(self, build):
        """``door_connections`` equals a scan that measures every partition
        of the door's floor, as the build did before it skipped far boxes."""
        model = build()
        topology = model.topology
        tolerance = topology.door_attach_tolerance
        expected = {}
        for door in model.doors():
            candidates = sorted(
                (shape_distance_to_point(p.shape, door.anchor), p.entity_id)
                for p in model.partitions(door.floor)
                if shape_distance_to_point(p.shape, door.anchor) <= tolerance
            )
            expected[door.entity_id] = tuple(pid for _, pid in candidates[:2])
        assert topology.door_connections == expected
        assert list(topology.door_connections) == list(expected)
        assert any(len(connected) == 2 for connected in expected.values())
