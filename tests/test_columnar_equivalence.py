"""The columnar layout's headline invariant: bit-for-bit equivalence.

The engine runs phase one over columnar record batches; the object model
(``Translator.translate_batch`` / ``run_phase_one_chunk``) is the
reference.  The contract is that the two are *indistinguishable by
output* — every cleaning result, every annotation, every knowledge shard
identical, float bits included.  This suite proves it differentially:

- property tests pin the ``RecordBatch`` boundary conversion (exact
  round-trips, empty windows, single-record devices, quality columns);
- hypothesis point-location tests run the flat containment kernels
  against the shape objects they replicate, with boundary-heavy inputs;
- a hypothesis feed differential drives random (dirty, floor-hopping,
  boundary-hugging) feeds through both phase-one implementations;
- an engine matrix replays deterministic feeds over all three buildings,
  every execution backend and several chunk sizes against both
  compositions of the reference (serial rebuild, per-chunk shard merge);
- an incremental matrix proves the same under every knowledge retention
  policy family: ``translate_increment`` against a reference composed
  from the object-model phase functions;
- one differential per seam closed when columnar became the pipeline:
  the rectangle identity, the mask-resolved prime, the session's
  ``nearest_partition``, the hoisted route search, and the session-backed
  floor corrector / interpolator on dirty feeds.
"""

from __future__ import annotations

import math
import struct

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.buildings import MallConfig, build_mall
from repro.columnar import RecordBatch, run_phase_one_chunk_columnar
from repro.columnar import locate as columnar_locate
from repro.columnar import pipeline as columnar_pipeline
from repro.columnar.kernels import (
    ColumnarCleaner,
    ColumnarSpeedValidator,
    ColumnarSplitter,
)
from repro.core import Translator
from repro.core.annotation import DensitySplitter, SplitterConfig
from repro.core.cleaning import CleaningConfig, RawDataCleaner, SpeedValidator
from repro.core.complementing import PartialKnowledge
from repro.core.translator import (
    assemble_results,
    build_batch_knowledge,
    build_partial_knowledge,
    run_phase_one_chunk,
    run_phase_two_chunk,
)
from repro.dsm import (
    DigitalSpaceModel,
    EntityKind,
    IndoorEntity,
    SemanticRegion,
    SemanticTag,
)
from repro.durability import encode
from repro.engine import BACKENDS, Engine, EngineConfig, partition
from repro.geometry import Circle, Point, Polygon
from repro.positioning import PositioningSequence, RawPositioningRecord
from repro.simulation import MobilitySimulator

from .conftest import make_two_shop_dsm, stationary_sequence, walk_sequence

ALL_BACKENDS = sorted(BACKENDS)

#: Retention specs covering every policy family the store parses.
RETENTIONS = ("unbounded", "window:2", "window:90s", "decay:4")


def bits(value: float) -> bytes:
    """The IEEE-754 bytes of a float — equality up to the sign of zero."""
    return struct.pack("<d", value)


# ----------------------------------------------------------------------
# Strategies: boundary-heavy coordinates on the two-shop venue
# ----------------------------------------------------------------------
# Wall lines of the two-shop DSM (x: 0/10/20/30, y: 0/10/20), grid-cell
# lines of the 8.0-cell index (8/16/24), and near-boundary offsets around
# the 1e-9 containment tolerance.
_EDGES = [0.0, 8.0, 10.0, 16.0, 20.0, 24.0, 30.0]
_COORD_SPECIALS = (
    [-0.0]
    + _EDGES
    + [e + d for e in (10.0, 20.0) for d in (-1e-9, 1e-9, -5e-10, 5e-10)]
    + [9.7, 15.0, 29.999999999]
)

coordinate = st.one_of(
    st.sampled_from(_COORD_SPECIALS),
    st.floats(min_value=-2.0, max_value=32.0, allow_nan=False, width=64),
)

floor_value = st.sampled_from([1, 1, 1, 2])  # mostly valid, sometimes wrong

time_gap = st.one_of(
    st.sampled_from([1.0, 5.0, 30.0, 121.0]),
    st.floats(min_value=0.25, max_value=150.0, allow_nan=False),
)


@st.composite
def device_feed(draw, device_id: str) -> PositioningSequence:
    """One device's sequence: dwell-ish runs with jumps and floor noise."""
    n = draw(st.integers(min_value=1, max_value=24))
    points = draw(
        st.lists(
            st.tuples(coordinate, coordinate, floor_value),
            min_size=n,
            max_size=n,
        )
    )
    gaps = draw(st.lists(time_gap, min_size=n, max_size=n))
    t = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    records = []
    for (x, y, floor), gap in zip(points, gaps):
        t += gap
        records.append(
            RawPositioningRecord(t, device_id, Point(x, y, floor))
        )
    return PositioningSequence(device_id, records)


@st.composite
def feeds(draw) -> list[PositioningSequence]:
    count = draw(st.integers(min_value=1, max_value=4))
    return [draw(device_feed(f"dev-{i}")) for i in range(count)]


# ----------------------------------------------------------------------
# Satellite 1: RecordBatch round-trips exactly
# ----------------------------------------------------------------------
record_strategy = st.builds(
    RawPositioningRecord,
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from(["dev-a", "dev-b", "dev-c"]),
    st.builds(
        Point,
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
)


class TestRecordBatchRoundTrip:
    @given(records=st.lists(record_strategy, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_from_records_to_records_is_exact(self, records):
        """Order preserved, every float bit-identical, floors exact."""
        back = RecordBatch.from_records(records).to_records()
        assert len(back) == len(records)
        for original, restored in zip(records, back):
            assert restored.device_id == original.device_id
            assert bits(restored.timestamp) == bits(original.timestamp)
            assert bits(restored.location.x) == bits(original.location.x)
            assert bits(restored.location.y) == bits(original.location.y)
            assert restored.location.floor == original.location.floor
            assert restored == original

    def test_empty_window_round_trips(self):
        batch = RecordBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch == RecordBatch.from_records([])

    def test_single_record_device(self):
        record = RawPositioningRecord(3.5, "solo", Point(-0.0, 1e-300, 7))
        batch = RecordBatch.from_records([record])
        (restored,) = batch.to_records()
        assert restored == record
        assert bits(restored.location.x) == bits(-0.0)  # signed zero kept

    @given(
        records=st.lists(record_strategy, min_size=1, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_quality_column_round_trips(self, records, data):
        qualities = data.draw(
            st.lists(
                st.floats(allow_nan=False, width=64),
                min_size=len(records),
                max_size=len(records),
            )
        )
        batch = RecordBatch.from_records(records, qualities=qualities)
        assert [bits(q) for q in batch.qualities] == [
            bits(q) for q in qualities
        ]
        # Equality is bitwise over every column, quality included.
        again = RecordBatch.from_records(records, qualities=qualities)
        assert batch == again
        assert batch != RecordBatch.from_records(records)

    def test_from_sequences_spans_are_half_open(self):
        walk = walk_sequence("w")
        dwell = stationary_sequence("d", count=5)
        solo = walk_sequence("s", points=[(1.0, 5.0, 1)])
        batch, spans = RecordBatch.from_sequences([walk, dwell, solo])
        assert spans == [(0, 10), (10, 15), (15, 16)]
        assert len(batch) == 16
        back = batch.to_records()
        assert back[:10] == list(walk.records)
        assert back[10:15] == list(dwell.records)
        assert back[15:] == list(solo.records)

    def test_misaligned_columns_rejected(self):
        from array import array

        with pytest.raises(ValueError):
            RecordBatch(
                array("d", [1.0]), array("d"), array("d"), array("q"), []
            )
        with pytest.raises(ValueError):
            RecordBatch.from_records(
                [RawPositioningRecord(0.0, "d", Point(0, 0, 1))],
                qualities=[1.0, 2.0],
            )

    def test_column_views_are_zero_copy(self):
        import numpy as np

        record = RawPositioningRecord(1.5, "d", Point(2.5, -3.5, 4))
        batch = RecordBatch.from_records([record])
        assert batch.column("xs").dtype == np.float64
        assert batch.column("floors").dtype == np.int64
        assert batch.column("xs")[0] == 2.5
        assert batch.column("floors")[0] == 4
        assert batch.column("device_ids") == ["d"]
        assert batch.column("qualities") is None


# ----------------------------------------------------------------------
# Point-location kernels vs the shape objects they replicate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shop_locator():
    model = make_two_shop_dsm()
    return columnar_locate.PointLocator(model)


class TestLocationKernels:
    @given(x=coordinate, y=coordinate, floor=st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_shape_containment_matches_objects(self, shop_locator, x, y, floor):
        point = Point(x, y, floor)
        model = shop_locator.model
        for entity in model._entities.values():
            if not entity.is_partition:
                continue
            entry = shop_locator.entity_entry(entity.entity_id)
            assert columnar_locate.kernel_shape_contains(
                entry, point
            ) == columnar_locate.reference_shape_contains(entity.shape, point)

    @given(x=coordinate, y=coordinate, floor=st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_partition_and_region_match_model(self, shop_locator, x, y, floor):
        point = Point(x, y, floor)
        model = shop_locator.model
        session = shop_locator.session()
        # Same *objects*, not merely equal ones: straight-move checks
        # compare partitions by identity.
        assert session.partition_entity(
            x, y, floor
        ) is columnar_locate.reference_partition_at(model, point)
        assert session.primary_region(
            x, y, floor
        ) is columnar_locate.reference_region_at(model, point)

    def test_primed_session_agrees_with_scalar_lookups(self, shop_locator):
        points = [
            (x, y, 1)
            for x in _COORD_SPECIALS
            for y in (0.0, 5.0, 10.0, 10.0 + 1e-9, 15.0, 20.0)
        ]
        records = [
            RawPositioningRecord(float(i), "probe", Point(x, y, f))
            for i, (x, y, f) in enumerate(points)
        ]
        batch = RecordBatch.from_records(records)
        primed = shop_locator.session()
        primed.prime(batch)
        cold = shop_locator.session()
        for x, y, f in points:
            assert primed.partition_entity(x, y, f) is cold.partition_entity(
                x, y, f
            )
            assert primed.primary_region(x, y, f) is cold.primary_region(
                x, y, f
            )

    def test_scalar_prime_path_matches_numpy_prime(
        self, shop_locator, monkeypatch
    ):
        """The point-by-point prime small batches take locates identically
        to the vectorized sweep (the row floor is the only selector)."""
        records = [
            RawPositioningRecord(float(i), "probe", Point(x, y, 1))
            for i, x in enumerate(_COORD_SPECIALS)
            for y in (0.0, 5.0, 10.0, 15.0)
        ]
        batch = RecordBatch.from_records(records)
        assert len(batch) >= columnar_locate._VECTOR_PRIME_MIN_ROWS
        vectorized = shop_locator.session()
        primes = columnar_locate.NUMPY_PRIME_COUNT
        vectorized.prime(batch)
        assert columnar_locate.NUMPY_PRIME_COUNT == primes + 1
        monkeypatch.setattr(
            columnar_locate, "_VECTOR_PRIME_MIN_ROWS", len(batch) + 1
        )
        scalar = shop_locator.session()
        scalar.prime(batch)
        assert columnar_locate.NUMPY_PRIME_COUNT == primes + 1
        assert scalar._partitions == vectorized._partitions
        assert scalar._regions == vectorized._regions

    def test_locator_refreshes_after_model_mutation(self):
        from repro.dsm import EntityKind, IndoorEntity
        from repro.geometry import Polygon

        model = make_two_shop_dsm()
        locator = columnar_locate.PointLocator(model)
        assert locator.session().partition_entity(5.0, 25.0, 1) is None
        model.add_entity(
            IndoorEntity(
                "annex", EntityKind.ROOM, Polygon.rectangle(0, 20, 10, 30)
            )
        )
        found = locator.session().partition_entity(5.0, 25.0, 1)
        assert found is model.entity("annex")


# ----------------------------------------------------------------------
# Hypothesis feed differential: phase one, objects vs columnar
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shop_translator():
    return Translator(make_two_shop_dsm())


def assert_chunks_equal(objects, columnar):
    assert len(objects.pairs) == len(columnar.pairs)
    for index, (obj, col) in enumerate(zip(objects.pairs, columnar.pairs)):
        assert obj[0] == col[0], f"cleaning differs for sequence {index}"
        assert obj[1] == col[1], f"annotation differs for sequence {index}"
    assert objects.partial == columnar.partial


class TestPhaseOneDifferential:
    @given(sequences=feeds())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_feeds_translate_identically(
        self, shop_translator, sequences
    ):
        objects = run_phase_one_chunk(
            shop_translator, sequences, emit_partial=True
        )
        columnar = run_phase_one_chunk_columnar(
            shop_translator, sequences, emit_partial=True
        )
        assert_chunks_equal(objects, columnar)

    def test_subclass_step_wraps_the_columnar_layers(self, two_shop):
        """``clean_and_annotate`` stays the per-sequence step: a subclass
        that wraps it (the ledger's traced translator does, to time the
        layers apart) sees the chunk's columnar cleaner, and the caller's
        own translator keeps its object-model one."""
        seen = []

        class Watching(Translator):
            def clean_and_annotate(self, sequence):
                seen.append((type(self.cleaner), sequence.device_id))
                return super().clean_and_annotate(sequence)

        translator = Watching(two_shop)
        sequences = [walk_sequence("w"), stationary_sequence("d", count=8)]
        columnar = run_phase_one_chunk_columnar(translator, sequences)
        assert seen == [(ColumnarCleaner, "w"), (ColumnarCleaner, "d")]
        assert type(translator.cleaner) is RawDataCleaner
        assert_chunks_equal(
            run_phase_one_chunk(Translator(two_shop), sequences), columnar
        )

    def test_cleaning_disabled_still_equivalent(self, two_shop):
        from repro.core.translator import TranslatorConfig

        translator = Translator(
            two_shop, config=TranslatorConfig(enable_cleaning=False)
        )
        sequences = [
            walk_sequence("w"),
            stationary_sequence("d", count=12, seed=3),
        ]
        assert_chunks_equal(
            run_phase_one_chunk(translator, sequences, emit_partial=True),
            run_phase_one_chunk_columnar(
                translator, sequences, emit_partial=True
            ),
        )


# ----------------------------------------------------------------------
# Engine matrix: buildings x backends x chunk sizes, against the reference
# ----------------------------------------------------------------------
def shop_feed():
    sequences = [
        stationary_sequence(
            f"dwell-{i}",
            at=(5.0 if i % 2 == 0 else 15.0, 15.0, 1),
            seed=i,
            start=120.0 * i,
        )
        for i in range(3)
    ]
    sequences += [walk_sequence(f"walk-{i}", start=60.0 * i) for i in range(2)]
    return sequences


#: One chunk per sequence, an uneven tail, and the engine's default (a
#: single chunk for these feeds).
CHUNK_SIZES = (1, 2, 8)


def reference_sharded_batch(translator, translated, chunk_size):
    """``Translator.translate_batch``'s own phase-one output recomposed in
    the engine's shape: one knowledge shard per chunk, merged at the
    barrier, complemented against the merged knowledge."""
    pairs = [(r.cleaning, r.annotation) for r in translated.results]
    knowledge = build_batch_knowledge(
        translator,
        partials=[
            build_partial_knowledge(
                translator, [annotation.sequence for _, annotation in chunk]
            )
            for chunk in partition(pairs, chunk_size)
        ],
    )
    complements = run_phase_two_chunk(
        translator, (knowledge, [annotation.sequence for _, annotation in pairs])
    )
    sequences = [r.raw for r in translated.results]
    return assemble_results(sequences, pairs, complements), knowledge


@pytest.fixture(scope="module")
def building_feeds():
    """(translator, sequences, ``Translator.translate_batch``) per building."""
    mall2 = build_mall(MallConfig(floors=2))
    mall3 = build_mall(MallConfig(floors=3))
    cases = {}
    for name, model, sequences in (
        ("two_shop", make_two_shop_dsm(), shop_feed()),
        (
            "mall",
            mall2,
            [
                d.raw
                for d in MobilitySimulator(mall2, seed=5).simulate_population(
                    count=3, seed=5
                )
            ],
        ),
        (
            "mall3",
            mall3,
            [
                d.raw
                for d in MobilitySimulator(mall3, seed=9).simulate_population(
                    count=3, seed=9
                )
            ],
        ),
    ):
        translator = Translator(model)
        cases[name] = (
            translator,
            sequences,
            translator.translate_batch(sequences),
        )
    return cases


@pytest.mark.parametrize("building", ["two_shop", "mall", "mall3"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("reference", ["rebuild", "sharded"])
def test_engine_columnar_matches_objects(
    building_feeds, columnar_chunks, building, backend, reference
):
    """The acceptance matrix: ``Engine.translate_batch`` equals the
    object-model reference — results and knowledge bits — for every
    building x backend x chunk size.  ``rebuild`` compares against
    ``Translator.translate_batch`` (one pass, knowledge re-observed
    serially at the barrier); ``sharded`` against that same object-model
    output recomposed chunk by chunk with a shard merge."""
    translator, sequences, translated = building_feeds[building]
    for chunk_size in CHUNK_SIZES:
        if reference == "rebuild":
            results, knowledge = translated.results, translated.knowledge
        else:
            results, knowledge = reference_sharded_batch(
                translator, translated, chunk_size
            )
        del columnar_chunks[:]
        batch = Engine(
            translator,
            EngineConfig(backend=backend, workers=2, chunk_size=chunk_size),
        ).translate_batch(sequences)
        assert batch.results == results
        assert batch.knowledge == knowledge
        assert encode(batch.knowledge) == encode(knowledge)
        if backend != "processes":
            assert len(columnar_chunks) == batch.stats.chunk_count


# ----------------------------------------------------------------------
# Incremental path: every retention policy family
# ----------------------------------------------------------------------
def reference_increment(translator, window, store, chunk_size):
    """One window through the object-model phase functions and ``store``:
    what ``Engine.translate_increment`` must reproduce."""
    regions = translator.knowledge_regions()
    start = min(s.records[0].timestamp for s in window)
    end = max(s.records[-1].timestamp for s in window)
    pairs = []
    for chunk in partition(window, chunk_size):
        phase_one = run_phase_one_chunk(translator, chunk)
        pairs.extend(phase_one.pairs)
        store.fold(
            PartialKnowledge.from_sequences(phase_one.annotated, regions),
            start=start,
            end=end,
        )
    complements = run_phase_two_chunk(
        translator,
        (store.knowledge, [annotation.sequence for _, annotation in pairs]),
    )
    return assemble_results(window, pairs, complements)


@pytest.mark.parametrize("retention", RETENTIONS)
def test_incremental_retention_matches_across_layouts(retention):
    """Windowed ``translate_increment`` through a retention-managed store
    evolves exactly as the object-model reference does — per-window
    results, knowledge bits and epoch lifecycle."""
    translator = Translator(make_two_shop_dsm())
    sequences = shop_feed()
    windows = [sequences[:2], sequences[2:4], sequences[4:]]
    engine = Engine(translator, EngineConfig(chunk_size=2))

    def run(translate):
        store = engine.make_store(retention)
        states = []
        for window in windows:
            results = translate(window, store)
            store.roll()
            states.append(
                (
                    results,
                    encode(store.knowledge),
                    store.to_partial(),
                    store.retained_epochs,
                    store.epochs_retired,
                )
            )
        return states

    objects = run(
        lambda window, store: reference_increment(translator, window, store, 2)
    )
    columnar = run(
        lambda window, store: engine.translate_increment(
            window, store=store
        ).results
    )
    for obj_state, col_state in zip(objects, columnar):
        assert obj_state == col_state


def test_increment_without_store_matches(two_shop, columnar_chunks):
    """``store=None`` is a venue that keeps no knowledge: nothing folds,
    phase two is skipped, and the window's results are the reference's
    phase one alone."""
    translator = Translator(two_shop)
    window = shop_feed()
    result = Engine(translator, EngineConfig(chunk_size=2)).translate_increment(
        window, store=None
    )
    assert result.knowledge is None
    assert result.results == assemble_results(
        window, run_phase_one_chunk(translator, window).pairs, None
    )
    assert len(columnar_chunks) == 3


# ----------------------------------------------------------------------
# Seams closed when columnar became the default pipeline
# ----------------------------------------------------------------------
def make_mixed_dsm(separable: bool = True) -> DigitalSpaceModel:
    """Two floors holding every shape family the locator prepares.

    Floor 1 is the two-shop layout plus a booth nested inside the Nike
    shop (overlapping rectangles: the smaller wins), a triangular annex
    and a round kiosk off the hall's east end; floor 2 is one landing
    joined by a staircase.  Regions come drawn (rectangle, triangle,
    circle), member-mapped, and — with ``separable=False`` — both at once,
    which takes the per-point region path.
    """
    model = make_two_shop_dsm()
    model.name = "mixed"
    model.add_entity(
        IndoorEntity("booth", EntityKind.ROOM, Polygon.rectangle(12, 12, 16, 16))
    )
    model.add_entity(
        IndoorEntity(
            "annex",
            EntityKind.ROOM,
            Polygon([Point(30, 0), Point(38, 0), Point(30, 8)]),
        )
    )
    model.add_entity(
        IndoorEntity("kiosk", EntityKind.ROOM, Circle(Point(34, 14), 3.0))
    )
    model.add_entity(IndoorEntity("door-annex", EntityKind.DOOR, Point(29.7, 3)))
    model.add_entity(
        IndoorEntity("landing", EntityKind.HALLWAY, Polygon.rectangle(0, 0, 30, 10, 2))
    )
    for floor in (1, 2):
        model.add_entity(
            IndoorEntity(
                f"stair-{floor}",
                EntityKind.STAIRCASE,
                Point(28, 5, floor),
                properties={"stack": "stair"},
            )
        )
    zone = SemanticTag("zone", "hallway")
    model.add_region(
        SemanticRegion(
            "z-center", "Center", zone, shape=Polygon.rectangle(10, 0, 20, 10)
        )
    )
    model.add_region(
        SemanticRegion(
            "z-corner",
            "Corner",
            zone,
            shape=Polygon([Point(0, 0), Point(6, 0), Point(0, 6)]),
        )
    )
    model.add_region(
        SemanticRegion("z-round", "Round", zone, shape=Circle(Point(25, 5), 2.0))
    )
    model.add_region(
        SemanticRegion("r-booth", "Booth", zone, entity_ids=("booth",))
    )
    model.add_region(
        SemanticRegion("r-landing", "Landing", zone, entity_ids=("landing",))
    )
    if not separable:
        model.add_region(
            SemanticRegion(
                "z-kiosk",
                "Kiosk",
                zone,
                shape=Circle(Point(34, 14), 3.0),
                entity_ids=("kiosk",),
            )
        )
    return model


@pytest.fixture(scope="module", params=[True, False], ids=["separable", "mixed"])
def mixed_locator(request):
    locator = columnar_locate.PointLocator(make_mixed_dsm(request.param))
    assert locator._regions_separable is request.param
    return locator


# Every wall line, grid-cell line and drawn-region edge of the mixed
# venue, with the same near-boundary offsets as above, and a margin wide
# enough to fall outside every snap radius.
_MIXED_EDGES = [0.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 30.0, 31.0, 37.0, 38.0]
wide_coordinate = st.one_of(
    st.sampled_from(
        [-0.0]
        + _MIXED_EDGES
        + [e + d for e in _MIXED_EDGES for d in (-1e-9, 1e-9, -5e-10, 5e-10)]
    ),
    st.floats(min_value=-14.0, max_value=52.0, allow_nan=False, width=64),
)

_RECT_LINES = st.sampled_from([-0.0, 0.0, 1e-9, 8.0, 10.0, 16.0, 1e6, -3.5])


@st.composite
def bbox_rectangles(draw) -> Polygon:
    """An axis-aligned rectangle through its bbox corners: either winding,
    any starting corner."""
    x0, x1 = sorted(draw(st.lists(_RECT_LINES, min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(_RECT_LINES, min_size=2, max_size=2)))
    if not (x0 < x1 and y0 < y1):
        x1, y1 = x0 + 4.0, y0 + 0.5
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if draw(st.booleans()):
        ring.reverse()
    shift = draw(st.integers(min_value=0, max_value=3))
    ring = ring[shift:] + ring[:shift]
    return Polygon([Point(x, y, 1) for x, y in ring])


def _entry(shape) -> columnar_locate._ShapeEntry:
    return columnar_locate._ShapeEntry("probe", None, shape)


class TestRectangleIdentity:
    @given(rectangle=bbox_rectangles(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rectangle_entry_matches_contains_point(self, rectangle, data):
        """A flagged rectangle answers from comparisons; the answer is
        ``Polygon.contains_point``'s — corners, edges, ±1e-9, ±0.0."""
        # (Polygon itself folds a ring whose ends nearly touch.)
        assume(len(rectangle.vertices) == 4)
        entry = _entry(rectangle)
        assert entry.rect
        bounds = rectangle.bounds
        near = [
            line + offset
            for line in (bounds.min_x, bounds.max_x, bounds.min_y, bounds.max_y)
            for offset in (0.0, -1e-9, 1e-9, -5e-10, 5e-10)
        ]
        probe = st.one_of(st.sampled_from(near + [-0.0]), coordinate)
        point = Point(data.draw(probe), data.draw(probe), 1)
        assert columnar_locate.kernel_shape_contains(
            entry, point
        ) == rectangle.contains_point(point)

    @pytest.mark.parametrize(
        "shape",
        [
            # rotated square
            Polygon([Point(5, 0), Point(10, 5), Point(5, 10), Point(0, 5)]),
            # trapezoid and parallelogram: four vertices, two on the bbox
            Polygon([Point(0, 0), Point(10, 0), Point(8, 5), Point(2, 5)]),
            Polygon([Point(0, 0), Point(8, 0), Point(10, 5), Point(2, 5)]),
            # the bbox corners in bow-tie order (self-intersecting)
            Polygon([Point(0, 0), Point(10, 5), Point(10, 0), Point(0, 5)]),
            # four corner vertices, two of them the same corner (two spikes)
            Polygon([Point(0, 0), Point(10, 0), Point(0, 0), Point(0, 5)]),
            # a rectangle with a fifth vertex on an edge
            Polygon(
                [Point(0, 0), Point(5, 0), Point(10, 0), Point(10, 5), Point(0, 5)]
            ),
            # a sliver whose height vanishes
            Polygon([Point(0, 0), Point(10, 0), Point(10, 0.0), Point(0, 1e-320)]),
            Polygon([Point(0, 0), Point(8, 0), Point(0, 8)]),
            Circle(Point(5, 5), 5.0),
        ],
        ids=[
            "rotated", "trapezoid", "parallelogram", "bow-tie", "spikes",
            "five-vertex", "sliver", "triangle", "circle",
        ],
    )
    def test_non_rectangles_are_not_flagged(self, shape):
        """Anything but a proper bbox rectangle keeps the scalar kernel —
        and the kernel still agrees with the shape on its own corners."""
        entry = _entry(shape)
        assert not entry.rect
        bounds = shape.bounds
        for x in (bounds.min_x, bounds.max_x, (bounds.min_x + bounds.max_x) / 2):
            for y in (bounds.min_y, bounds.max_y, (bounds.min_y + bounds.max_y) / 2):
                point = Point(x, y, 1)
                assert columnar_locate.kernel_shape_contains(
                    entry, point
                ) == columnar_locate.reference_shape_contains(shape, point)

    def test_overflowing_extent_is_not_flagged(self):
        huge = Polygon.rectangle(-1e308, -1e308, 1e308, 1e308)
        assert not _entry(huge).rect

    def test_bench_venues_are_rectangles(self, mixed_locator):
        """The flag is what the ledger's speed rests on: every shape of the
        benchmark mall qualifies, and exactly the rectangles of the mixed
        venue do."""
        mall = columnar_locate.PointLocator(build_mall(MallConfig(floors=3)))
        tables = list(mall._partitions.values()) + list(
            mall._region_tables.values()
        )
        assert all(entry.rect for table in tables for entry in table.entries)
        flagged = {
            key
            for key, entry in mixed_locator._entity_entries.items()
            if entry.rect
        }
        assert flagged == {
            "hall", "shop-adidas", "shop-nike", "shop-cashier", "booth",
            "landing",
        }


class TestMaskResolvedPrime:
    @pytest.fixture(autouse=True)
    def vectorize_every_batch(self, monkeypatch):
        """Small batches normally prime point by point; sweep them here."""
        monkeypatch.setattr(columnar_locate, "_VECTOR_PRIME_MIN_ROWS", 0)

    def test_small_batches_prime_point_by_point(self, mixed_locator, monkeypatch):
        """The row floor picks the path from the batch's size alone."""
        monkeypatch.undo()
        floor = columnar_locate._VECTOR_PRIME_MIN_ROWS
        records = [
            RawPositioningRecord(float(i), "probe", Point(i % 30, 5.0, 1))
            for i in range(floor)
        ]
        before = columnar_locate.NUMPY_PRIME_COUNT
        small, large = mixed_locator.session(), mixed_locator.session()
        small.prime(RecordBatch.from_records(records[:-1]))
        assert columnar_locate.NUMPY_PRIME_COUNT == before
        large.prime(RecordBatch.from_records(records))
        assert columnar_locate.NUMPY_PRIME_COUNT == before + 1
        assert small._partitions.items() <= large._partitions.items()
        assert small._regions.items() <= large._regions.items()

    @given(
        points=st.lists(
            st.tuples(wide_coordinate, wide_coordinate, st.sampled_from([1, 1, 2, 3])),
            min_size=1,
            max_size=40,
        )
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_primed_memos_match_the_model(self, mixed_locator, points):
        """Whatever the prime decides from masks alone — nested
        rectangles, drawn regions, max edges, empty floors — is the
        model's own entity and region object."""
        model = mixed_locator.model
        records = [
            RawPositioningRecord(float(i), "probe", Point(x, y, floor))
            for i, (x, y, floor) in enumerate(points)
        ]
        session = mixed_locator.session()
        session.prime(RecordBatch.from_records(records))
        for record in records:
            point = record.location
            key = (point.x, point.y, point.floor)
            assert session._partitions[key] is model.partition_at(point)
            assert session._regions[key] is model.primary_region_at(point)


class TestSessionNearestPartition:
    @given(
        x=wide_coordinate,
        y=wide_coordinate,
        floor=st.sampled_from([1, 1, 2, 3]),
        max_distance=st.sampled_from([0.0, 1e-9, 3.0, 5.0, 10.0, 40.0]),
    )
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_model(self, mixed_locator, x, y, floor, max_distance):
        """Same entity object, same distance bits, same None."""
        point = Point(x, y, floor)
        expected = mixed_locator.model.nearest_partition(point, max_distance)
        session = mixed_locator.session()
        for _ in range(2):  # computed, then memoized
            found = session.nearest_partition(point, max_distance)
            if expected is None:
                assert found is None
            else:
                assert found[0] is expected[0]
                assert found[1].hex() == expected[1].hex()

    def test_guard_never_skips_the_winner(self, mixed_locator):
        """A point exactly ``max_distance`` from a wall: the bounding-box
        bound equals the true distance, and ``<=`` must still accept."""
        model = mixed_locator.model
        session = mixed_locator.session()
        for point in (Point(-3.0, 5.0, 1), Point(15.0, 23.0, 1), Point(5.0, -5.0, 2)):
            distance = 3.0 if point.floor == 1 else 5.0
            expected = model.nearest_partition(point, distance)
            assert expected is not None and expected[1] == distance
            found = session.nearest_partition(point, distance)
            assert found[0] is expected[0]
            assert found[1].hex() == expected[1].hex()


route_point = st.tuples(wide_coordinate, wide_coordinate, st.sampled_from([1, 1, 2]))


def naive_door_search(topology, start: Point, goal: Point):
    """The door search as ``Topology._route`` first wrote it: every
    ``(node_a, node_b)`` pair, its exit leg measured inside the pair loop,
    networkx's own path lengths."""
    part_a = topology._locate(start)
    part_b = topology._locate(goal)
    if part_a is None or part_b is None or part_a == part_b:
        return None
    best, best_pair = math.inf, None
    for node_a in topology._nav_nodes_by_partition.get(part_a, []):
        lengths = nx.single_source_dijkstra_path_length(topology.nav_graph, node_a)
        entry = start.planar_distance_to(topology._nav_anchor[node_a])
        for node_b in topology._nav_nodes_by_partition.get(part_b, []):
            through = lengths.get(node_b)
            if through is None:
                continue
            exit_leg = topology._nav_anchor[node_b].planar_distance_to(goal)
            total = entry + through + exit_leg
            if total < best:
                best, best_pair = total, (node_a, node_b)
    return best, best_pair


class TestHoistedRouteSearch:
    @given(start=route_point, goal=route_point)
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_distance_and_path_match_topology(self, mixed_locator, start, goal):
        """Exit legs measured once per exit node: the same best distance
        (bit for bit) and the same waypoints as ``Topology._route``."""
        topology = mixed_locator.model.topology
        validator = ColumnarSpeedValidator(
            topology, 2.5, mixed_locator.session()
        )
        a, b = Point(*start), Point(*goal)
        distance, pair = validator._route(a, b)
        assert distance.hex() == topology.walking_distance(a, b).hex()
        assert validator.walking_path(a, b) == topology.walking_path(a, b)
        naive = naive_door_search(topology, a, b)
        if naive is not None:
            assert (distance.hex(), pair) == (naive[0].hex(), naive[1])

    @given(
        start=route_point,
        goal=route_point,
        elapsed=st.sampled_from([0.0, -1.0, 1e-3, 2.0, 8.0, 400.0]),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fused_straight_move_verdict_matches(
        self, mixed_locator, start, goal, elapsed
    ):
        """The inline straight-move verdict and the inherited chain it
        falls back to decide every pair as ``SpeedValidator`` does,
        simultaneous and backwards fixes included."""
        topology = mixed_locator.model.topology
        validator = ColumnarSpeedValidator(
            topology, 2.5, mixed_locator.session()
        )
        previous = RawPositioningRecord(100.0, "d", Point(*start))
        current = RawPositioningRecord(100.0 + elapsed, "d", Point(*goal))
        reference = SpeedValidator(topology, 2.5)
        same_spot = RawPositioningRecord(100.0, "d", Point(*start))
        for pair in ((previous, current), (current, previous), (previous, same_spot)):
            assert validator.transition_feasible(
                *pair
            ) == reference.transition_feasible(*pair)

    def test_mall_routes_match(self, mall):
        """Multi-door, multi-stack routes on the benchmark building."""
        import random

        topology = mall.topology
        locator = columnar_locate.PointLocator(mall)
        validator = ColumnarSpeedValidator(topology, 2.5, locator.session())
        bounds = mall.floor_bounds(1)
        rng = random.Random(17)
        for _ in range(300):
            a, b = (
                Point(
                    rng.uniform(bounds.min_x - 2, bounds.max_x + 2),
                    rng.uniform(bounds.min_y - 2, bounds.max_y + 2),
                    rng.choice([1, 2]),
                )
                for _ in range(2)
            )
            distance, pair = validator._route(a, b)
            assert distance.hex() == topology.walking_distance(a, b).hex()
            assert validator.walking_path(a, b) == topology.walking_path(a, b)
            naive = naive_door_search(topology, a, b)
            if naive is not None:
                assert (distance.hex(), pair) == (naive[0].hex(), naive[1])


dirty_point = st.one_of(
    # in a shop, in the hall, in the annex/kiosk, in a wall or outside
    st.tuples(wide_coordinate, wide_coordinate, st.sampled_from([1, 1, 1, 2, 3])),
    st.tuples(
        st.floats(min_value=1.0, max_value=29.0),
        st.floats(min_value=1.0, max_value=9.0),
        st.sampled_from([1, 2]),
    ),
)


@st.composite
def dirty_sequence(draw) -> PositioningSequence:
    """A mostly walkable track salted with floor flaps, teleports and
    fixes in walls, at gaps that make some of them infeasible."""
    n = draw(st.integers(min_value=2, max_value=18))
    t = 0.0
    records = []
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 1.0, 2.0, 5.0, 20.0]))
        records.append(
            RawPositioningRecord(t, "dirty", Point(*draw(dirty_point)))
        )
    return PositioningSequence("dirty", records)


class TestSessionBackedRepairs:
    @given(sequence=dirty_sequence(), data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cleaning_results_equal(self, mixed_locator, sequence, data):
        """Floor correction and interpolation probing the session produce
        the object cleaner's ``CleaningResult`` — cleaned records, report
        and all — with either repair step switched off as well."""
        topology = mixed_locator.model.topology
        config = CleaningConfig(
            enable_floor_correction=data.draw(st.booleans()),
            enable_interpolation=data.draw(st.booleans()),
        )
        session = mixed_locator.session()
        session.prime(RecordBatch.from_sequences([sequence])[0])
        validator = ColumnarSpeedValidator(topology, config.max_speed, session)
        columnar = ColumnarCleaner(topology, config, validator).clean(sequence)
        assert columnar == RawDataCleaner(topology, config).clean(sequence)

    def test_repairs_are_exercised(self, mixed_locator):
        """The differential above is not vacuous: a flap, a teleport and a
        fix in a wall each take their repair through the session."""
        topology = mixed_locator.model.topology
        sequence = walk_sequence(
            "dirty",
            points=[
                (2, 5, 1), (4, 5, 1), (6, 5, 2), (8, 5, 1),  # floor flap
                (10, 5, 1), (29, 19, 1), (12, 5, 1),  # teleport
                (14, 5, 1), (15, 10.0 + 1e-3, 3), (16, 5, 1),  # off any floor
            ],
            interval=2.0,
        )
        session = mixed_locator.session()
        validator = ColumnarSpeedValidator(topology, 2.5, session)
        result = ColumnarCleaner(topology, CleaningConfig(), validator).clean(
            sequence
        )
        assert result == RawDataCleaner(topology).clean(sequence)
        assert result.report.floor_corrected and result.report.interpolated
        assert session._nearest or session._partitions


# ----------------------------------------------------------------------
# The locator cache under concurrent in-process callers
# ----------------------------------------------------------------------
def test_locator_cache_is_thread_safe(monkeypatch):
    """More venues than cache slots through concurrent workers: no
    eviction lands inside another thread's lookup, and a model never has
    two locators being built at once."""
    import sys
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    building: set[int] = set()
    overlaps: list[int] = []
    guard = threading.Lock()

    class WatchedLocator(columnar_locate.PointLocator):
        def __init__(self, model):
            with guard:
                if id(model) in building:
                    overlaps.append(id(model))
                building.add(id(model))
            try:
                time.sleep(0.001)  # hold the build open across a switch
                super().__init__(model)
            finally:
                with guard:
                    building.discard(id(model))

    monkeypatch.setattr(columnar_pipeline, "PointLocator", WatchedLocator)
    monkeypatch.setattr(columnar_pipeline, "_locators", type(columnar_pipeline._locators)())
    venues = [
        Translator(make_two_shop_dsm())
        for _ in range(columnar_pipeline._MAX_LOCATORS + 2)
    ]
    feed = shop_feed()
    expected = run_phase_one_chunk(venues[0], feed, emit_partial=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(
                    run_phase_one_chunk_columnar,
                    venues[(i * 7) % len(venues)],
                    feed,
                    True,
                )
                for i in range(120)
            ]
            chunks = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)

    for chunk in chunks:
        assert_chunks_equal(expected, chunk)
    assert not overlaps, "two threads built a locator for one model"
    cache = columnar_pipeline._locators
    assert len(cache) <= columnar_pipeline._MAX_LOCATORS
    assert all(id(locator.model) == key for key, locator in cache.items())


# ----------------------------------------------------------------------
# One pipeline: no selector, and the reference stays the reference
# ----------------------------------------------------------------------
def full_scan_core_flags(records, config: SplitterConfig) -> list[bool]:
    """The core-flag loop without the early exit: both expansions run to
    their end before the record is judged."""
    flags = []
    for i, record in enumerate(records):
        count = 1
        first = last = record.timestamp
        j = i + 1
        while (
            j < len(records)
            and records[j].floor == record.floor
            and math.hypot(
                record.location.x - records[j].location.x,
                record.location.y - records[j].location.y,
            )
            <= config.eps_space
            and records[j].timestamp - records[j - 1].timestamp <= config.eps_time
        ):
            last = records[j].timestamp
            count += 1
            j += 1
        j = i - 1
        while (
            j >= 0
            and records[j].floor == record.floor
            and math.hypot(
                record.location.x - records[j].location.x,
                record.location.y - records[j].location.y,
            )
            <= config.eps_space
            and records[j + 1].timestamp - records[j].timestamp <= config.eps_time
        ):
            first = records[j].timestamp
            count += 1
            j -= 1
        flags.append(count >= config.min_pts and last - first >= config.core_span)
    return flags


# Lattice points at exactly 5.0 from one another ((0,0)-(3,4), (3,4)-(6,8),
# (0,0)-(5,0), (5,0)-(10,0), ...), a hair past it, and well inside it.
core_point = st.sampled_from(
    [(0.0, 0.0), (3.0, 4.0), (-3.0, 4.0), (5.0, 0.0), (6.0, 8.0),
     (10.0, 0.0), (3.0, 4.000000000000001), (1.0, 2.0), (0.5, 0.5)]
)
# Steps exactly at eps_time (10.0), a hair past it, zero and in between.
core_step = st.sampled_from([0.0, 2.5, 5.0, 10.0, 10.000000000000002, 12.0])


class TestCoreFlagEarlyExit:
    @given(
        fixes=st.lists(
            st.tuples(core_step, core_point, st.sampled_from([1, 1, 1, 2])),
            min_size=1,
            max_size=40,
        ),
        min_pts=st.integers(2, 6),
        core_span=st.sampled_from([2.5, 10.0, 20.0, 30.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_early_exit_equals_full_scan(self, fixes, min_pts, core_span):
        """Stopping a record's scan once it is core decides every flag as
        the full scan does, at the exact ``eps_space`` / ``eps_time``
        boundaries and across floor switches."""
        config = SplitterConfig(
            eps_space=5.0, eps_time=10.0, min_pts=min_pts, core_span=core_span
        )
        records, clock = [], 0.0
        for step, (x, y), floor in fixes:
            clock += step
            records.append(RawPositioningRecord(clock, "d", Point(x, y, floor)))
        records = PositioningSequence("d", records).records
        expected = full_scan_core_flags(records, config)
        assert ColumnarSplitter(config)._core_flags(records) == expected
        assert DensitySplitter(config)._core_flags(records) == expected


class TestRecordLayoutConfig:
    def test_known_layouts(self, monkeypatch):
        """Columnar is a constant the ledger's re-drive reads, not a
        field, and no environment variable moves it."""
        import dataclasses

        monkeypatch.setenv("TRIPS_RECORD_LAYOUT", "objects")
        assert EngineConfig().record_layout == "columnar"
        assert "record_layout" not in {
            f.name for f in dataclasses.fields(EngineConfig)
        }

    def test_unknown_layout_rejected(self):
        for layout in ("rowwise", "objects", "columnar"):
            with pytest.raises(TypeError):
                EngineConfig(record_layout=layout)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bare_config_runs_the_columnar_pipeline(
        self, two_shop, columnar_chunks, backend
    ):
        """A default ``EngineConfig`` is the columnar pipeline: in-process
        backends run its chunk runner once per chunk, and on every backend
        — worker processes included — the run's telemetry times those
        chunks."""
        from repro.telemetry import MetricsRegistry, use_registry

        sequences = [walk_sequence("w"), stationary_sequence("d", count=6)]
        registry = MetricsRegistry()
        with use_registry(registry):
            Engine(
                Translator(two_shop),
                EngineConfig(backend=backend, workers=2, chunk_size=1),
            ).translate_batch(sequences)
        chunk_seconds = registry.histogram(
            "trips_engine_chunk_seconds", phase="one"
        )
        assert chunk_seconds.count == 2
        if backend != "processes":
            assert len(columnar_chunks) == 2

    def test_translator_batch_stays_the_object_oracle(
        self, two_shop, columnar_chunks
    ):
        """The reference must not silently become the thing it checks."""
        Translator(two_shop).translate_batch([walk_sequence("w")])
        assert columnar_chunks == []
