"""Shared fixtures: a small hand-built DSM, buildings, simulated devices.

Expensive artifacts (mall DSM, simulated populations) are session-scoped;
tests must treat them as immutable.
"""

from __future__ import annotations

import pytest

from repro.buildings import MallConfig, build_mall
from repro.dsm import (
    DigitalSpaceModel,
    EntityKind,
    IndoorEntity,
    SemanticRegion,
    SemanticTag,
)
from repro.geometry import Point, Polygon
from repro.positioning import (
    PositioningSequence,
    RawPositioningRecord,
    inject_floor_errors,
    inject_outliers,
)
from repro.simulation import MobilitySimulator, SHOPPER


def make_two_shop_dsm() -> DigitalSpaceModel:
    """A hall with two shops (Adidas, Nike) and a cashier on floor 1.

    Layout (y up)::

        +-------+-------+-------+
        | Adidas| Nike  |Cashier|   y 10..20
        +--d----+--d----+--d----+
        |        hall           |   y 0..10
        +-----------------------+
          x 0..30, entrance at (0, 5)
    """
    model = DigitalSpaceModel(name="two-shop")
    model.add_entity(
        IndoorEntity("hall", EntityKind.HALLWAY, Polygon.rectangle(0, 0, 30, 10))
    )
    model.add_entity(
        IndoorEntity(
            "shop-adidas", EntityKind.ROOM, Polygon.rectangle(0, 10, 10, 20),
            name="Adidas",
        )
    )
    model.add_entity(
        IndoorEntity(
            "shop-nike", EntityKind.ROOM, Polygon.rectangle(10, 10, 20, 20),
            name="Nike",
        )
    )
    model.add_entity(
        IndoorEntity(
            "shop-cashier", EntityKind.ROOM, Polygon.rectangle(20, 10, 30, 20),
            name="Cashier",
        )
    )
    # Door anchors nudged into the hall so paths avoid boundary lines.
    model.add_entity(IndoorEntity("door-adidas", EntityKind.DOOR, Point(5, 9.7)))
    model.add_entity(IndoorEntity("door-nike", EntityKind.DOOR, Point(15, 9.7)))
    model.add_entity(IndoorEntity("door-cashier", EntityKind.DOOR, Point(25, 9.7)))
    model.add_entity(
        IndoorEntity(
            "door-main", EntityKind.DOOR, Point(0, 5),
            properties={"entrance": True},
        )
    )
    shop_tag = SemanticTag("shop", "shop")
    model.add_region(
        SemanticRegion("r-adidas", "Adidas", shop_tag, entity_ids=("shop-adidas",))
    )
    model.add_region(
        SemanticRegion("r-nike", "Nike", shop_tag, entity_ids=("shop-nike",))
    )
    model.add_region(
        SemanticRegion(
            "r-cashier", "Cashier", SemanticTag("cashier", "cashier"),
            entity_ids=("shop-cashier",),
        )
    )
    model.add_region(
        SemanticRegion(
            "r-hall", "Hall", SemanticTag("hall", "hallway"),
            entity_ids=("hall",),
        )
    )
    return model


@pytest.fixture
def two_shop() -> DigitalSpaceModel:
    """A fresh small DSM per test (mutable)."""
    return make_two_shop_dsm()


@pytest.fixture(scope="session")
def two_shop_shared() -> DigitalSpaceModel:
    """A shared small DSM for read-only tests."""
    return make_two_shop_dsm()


@pytest.fixture(scope="session")
def mall() -> DigitalSpaceModel:
    """A 2-floor mall (read-only)."""
    return build_mall(MallConfig(floors=2))


@pytest.fixture(scope="session")
def mall3() -> DigitalSpaceModel:
    """A 3-floor mall (read-only), for floor-error tests."""
    return build_mall(MallConfig(floors=3))


@pytest.fixture(scope="session")
def simulated(mall3):
    """One simulated shopper in the 3-floor mall (read-only)."""
    simulator = MobilitySimulator(mall3, seed=7)
    return simulator.simulate_device("3a.0001.14", SHOPPER, seed=42)


@pytest.fixture(scope="session")
def population(mall3):
    """Five simulated shoppers (read-only)."""
    simulator = MobilitySimulator(mall3, seed=9)
    return simulator.simulate_population(count=5, seed=9)


@pytest.fixture
def columnar_chunks(monkeypatch):
    """In-process runs of the columnar chunk runner (each one fetches its
    venue's locator); worker processes count in their own copy."""
    from repro.columnar import pipeline

    runs = []
    locator_for = pipeline._locator_for

    def counting(model):
        runs.append(model)
        return locator_for(model)

    monkeypatch.setattr(pipeline, "_locator_for", counting)
    return runs


def walk_sequence(
    device_id: str = "dev",
    points: list[tuple[float, float, int]] | None = None,
    start: float = 0.0,
    interval: float = 5.0,
) -> PositioningSequence:
    """A positioning sequence visiting the given (x, y, floor) points."""
    if points is None:
        points = [(1 + i, 5, 1) for i in range(10)]
    records = [
        RawPositioningRecord(start + i * interval, device_id, Point(x, y, f))
        for i, (x, y, f) in enumerate(points)
    ]
    return PositioningSequence(device_id, records)


def stationary_sequence(
    device_id: str = "dev",
    at: tuple[float, float, int] = (5.0, 15.0, 1),
    count: int = 30,
    interval: float = 5.0,
    jitter: float = 0.3,
    start: float = 0.0,
    seed: int = 0,
) -> PositioningSequence:
    """A noisy dwell at one location."""
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        dx, dy = rng.normal(0.0, jitter, size=2)
        records.append(
            RawPositioningRecord(
                start + i * interval,
                device_id,
                Point(at[0] + dx, at[1] + dy, at[2]),
            )
        )
    return PositioningSequence(device_id, records)


def shop_records(prefix: str = "", start: float = 0.0):
    """A few shop dwellers and hall walkers, as one time-sorted feed."""
    sequences = []
    for i in range(3):
        sequences.append(
            stationary_sequence(
                f"{prefix}dwell-{i}",
                at=(5.0 if i % 2 == 0 else 15.0, 15.0, 1),
                seed=i,
                start=start + 120.0 * i,
            )
        )
    for i in range(2):
        sequences.append(
            walk_sequence(f"{prefix}walk-{i}", start=start + 60.0 * i)
        )
    records = [r for s in sequences for r in s.records]
    return sorted(records, key=lambda r: (r.timestamp, r.device_id))


def dirty_shop_records(
    prefix: str = "",
    seed: int = 0,
    outliers: float = 0.12,
    floor_errors: float = 0.1,
    leading: bool = True,
    singletons: int = 4,
):
    """The shop feed made dirty: teleport outliers (interpolated),
    wrong-floor fixes (floor-corrected), a leading outlier on every other
    device (record 0 repaired) and ``singletons`` one-record devices."""
    records = []
    for index, sequence in enumerate(
        PositioningSequence.group_records(shop_records(prefix))
    ):
        if outliers:
            sequence, _ = inject_outliers(
                sequence, outliers, magnitude=30.0, seed=seed + index
            )
        if floor_errors:
            sequence, _ = inject_floor_errors(
                sequence, floor_errors, [1, 2], seed=seed + index
            )
        first = sequence.records[0]
        if leading and index % 2:
            first = first.moved(
                Point(first.location.x + 28.0, first.location.y, first.floor)
            )
        records.append(first)
        records.extend(sequence.records[1:])
    for index in range(singletons):
        records.append(
            RawPositioningRecord(
                30.0 + 150.0 * index, f"{prefix}blip-{index}",
                Point(12.0, 5.0, 1),
            )
        )
    return sorted(records, key=lambda r: (r.timestamp, r.device_id))
