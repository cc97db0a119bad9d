"""The compiled inference path's headline invariant: bit-for-bit equivalence.

Phase-two MAP inference can run over the object model (networkx adjacency
plus per-call smoothed queries) or over the integer-indexed tables of a
:class:`CompiledTransitionModel` (``InferenceConfig.compiled``, the
default).  The contract is that the two are *indistinguishable by
output* — every candidate path, every log-probability, every inferred
triplet identical, float bits included — and that no mutation of the
knowledge can ever leave a stale compiled answer live.  This suite
proves it differentially:

- unit tests pin the compiled tables against the object queries they
  replicate (probabilities, logs, adjacency order, defaults);
- generation-counter tests pin the cache lifecycle (every mutation
  invalidates, pickling drops the cache but keeps the counter);
- hypothesis differentials drive random walk corpora through both
  ``best_path``/``infer_between`` implementations;
- a hypothesis staleness property interleaves fold/unfold/scale/roll/
  retire (window and decay retentions) with inference and checks each
  answer against a fresh compile;
- an engine matrix replays dropout-injected feeds over buildings x
  backends x retentions, and the live service's ``finalize()`` is
  compared across the two paths.
"""

from __future__ import annotations

import math
import pickle
import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Translator
from repro.core.complementing import (
    CompiledTransitionModel,
    ComplementorConfig,
    InferenceConfig,
    MobilityKnowledge,
    PartialKnowledge,
    SemanticsInference,
    ensure_compiled,
)
from repro.core.semantics import (
    EVENT_STAY,
    MobilitySemantic,
    MobilitySemanticsSequence,
)
from repro.core.translator import TranslatorConfig
from repro.engine import BACKENDS, Engine, EngineConfig
from repro.errors import InferenceError
from repro.knowledge import KnowledgeStore
from repro.live import LiveConfig, LiveTranslationService
from repro.geometry import Point
from repro.positioning import (
    PositioningSequence,
    RawPositioningRecord,
    RecordStream,
    inject_dropout,
    sequence_stream,
)
from repro.telemetry import MetricsRegistry, use_registry
from repro.timeutil import TimeRange

from .conftest import make_two_shop_dsm, stationary_sequence
from .test_complementing import REGIONS, corpus, triplet

ALL_BACKENDS = sorted(BACKENDS)

#: Retention specs covering every policy family the store parses.
RETENTIONS = ("unbounded", "window:2", "window:90s", "decay:4")

#: The object reference path, for the differential legs.
OBJECT_INFERENCE = InferenceConfig(compiled=False)
OBJECT_TRANSLATOR = TranslatorConfig(
    complementing=ComplementorConfig(inference=OBJECT_INFERENCE)
)


def bits(value: float) -> bytes:
    """The IEEE-754 bytes of a float — equality up to the sign of zero."""
    return struct.pack("<d", value)


def fresh_knowledge() -> MobilityKnowledge:
    """A deterministic rebuild — never shares an attached compiled model."""
    return MobilityKnowledge.from_sequences(corpus(), REGIONS)


def assert_paths_identical(reference, candidate):
    """InferredPath equality down to the float bits of every term."""
    if reference is None or candidate is None:
        assert reference is None and candidate is None
        return
    assert candidate.regions == reference.regions
    assert bits(candidate.log_probability) == bits(reference.log_probability)
    assert bits(candidate.duration_penalty) == bits(
        reference.duration_penalty
    )
    assert bits(candidate.score) == bits(reference.score)


def table_hex(model: CompiledTransitionModel) -> tuple:
    """Every table of a compiled model, floats as ``float.hex`` strings."""

    def hexes(rows):
        return [[value.hex() for value in row] for row in rows]

    return (
        model.regions,
        model.index,
        model.in_graph,
        model.neighbors,
        model.neighbor_sets,
        hexes(model.prob_rows),
        hexes(model.log_rows),
        model.edge_weights,
        [None if value is None else value.hex() for value in model.mean_dwells],
        model.smoothing,
    )


def scratch_clone(knowledge: MobilityKnowledge) -> MobilityKnowledge:
    """The same counts folded into a brand-new object (nothing attached)."""
    clone = MobilityKnowledge.from_partials(
        [knowledge.to_partial()],
        regions=knowledge.regions,
        smoothing=knowledge.smoothing,
    )
    clone.sequences_seen = knowledge.sequences_seen
    return clone


def assert_equals_fresh_compile(model, knowledge, topology):
    """``model`` is current and table-for-table a from-scratch compile."""
    assert model.generation == knowledge.generation
    assert model.topology is topology
    fresh = CompiledTransitionModel.compile(scratch_clone(knowledge), topology)
    assert table_hex(model) == table_hex(fresh)


# ----------------------------------------------------------------------
# Compiled tables vs the object queries they replicate
# ----------------------------------------------------------------------
class TestCompiledModel:
    def test_tables_match_object_queries(self, two_shop_shared):
        knowledge = fresh_knowledge()
        compiled = CompiledTransitionModel.compile(
            knowledge, two_shop_shared.topology
        )
        assert knowledge.compiled_model() is None  # object path stays live
        for origin in REGIONS:
            for destination in REGIONS:
                expected = knowledge.transition_probability(
                    origin, destination
                )
                assert bits(compiled.probability(origin, destination)) == (
                    bits(expected)
                )
                if origin != destination:
                    assert bits(
                        compiled.log_probability(origin, destination)
                    ) == bits(math.log(expected))

    def test_one_region_vocabulary_compiles(self, two_shop_shared):
        """A legal vocabulary whose only row is its diagonal: no
        destination, so no smoothed ratio (denominator 0) is evaluated."""
        compiled = CompiledTransitionModel.compile(
            MobilityKnowledge(regions=["r"]), two_shop_shared.topology
        )
        assert compiled.prob_rows == ((0.0,),)
        assert compiled.log_rows == ((-math.inf,),)
        assert compiled.mean_dwells == (None,)

    def test_diagonal_probability_is_zero(self, two_shop_shared):
        compiled = CompiledTransitionModel.compile(
            fresh_knowledge(), two_shop_shared.topology
        )
        for region in REGIONS:
            assert compiled.probability(region, region) == 0.0
            assert compiled.log_probability(region, region) == -math.inf

    def test_adjacency_preserves_graph_iteration_order(self, two_shop_shared):
        knowledge = fresh_knowledge()
        topology = two_shop_shared.topology
        compiled = CompiledTransitionModel.compile(knowledge, topology)
        graph = topology.region_graph
        for region in REGIONS:
            position = compiled.index[region]
            if region not in graph:
                assert compiled.in_graph[position] is False
                assert compiled.neighbors[position] == ()
                continue
            lifted = [
                compiled.regions[i] for i in compiled.neighbors[position]
            ]
            assert lifted == list(graph.neighbors(region))
            assert compiled.neighbor_sets[position] == {
                compiled.index[n] for n in graph.neighbors(region)
            }

    def test_graph_node_outside_vocabulary_rejected(self, two_shop_shared):
        narrow = MobilityKnowledge(regions=["r-adidas", "r-hall"])
        with pytest.raises(InferenceError, match="not in the knowledge"):
            CompiledTransitionModel.compile(narrow, two_shop_shared.topology)

    def test_mean_dwell_and_leg_distance_defaults(self, two_shop_shared):
        knowledge = fresh_knowledge()
        topology = two_shop_shared.topology
        compiled = CompiledTransitionModel.compile(knowledge, topology)
        for region in REGIONS:
            position = compiled.index[region]
            assert bits(compiled.mean_dwell(position, 60.0)) == bits(
                knowledge.mean_dwell(region, 60.0)
            )
        # An unconnected pair falls back to the conservative estimate.
        adidas = compiled.index["r-adidas"]
        nike = compiled.index["r-nike"]
        assert compiled.leg_distance(adidas, nike) == 25.0
        # A graph edge serves its weight verbatim.
        graph = topology.region_graph
        hall = compiled.index["r-hall"]
        weight = graph.edges["r-adidas", "r-hall"].get("weight")
        if weight is not None:
            assert bits(compiled.leg_distance(adidas, hall)) == bits(weight)


# ----------------------------------------------------------------------
# Generation counter and cache lifecycle
# ----------------------------------------------------------------------
class TestGenerationCounter:
    def test_every_mutation_bumps(self):
        knowledge = MobilityKnowledge(regions=REGIONS)
        generation = knowledge.generation
        knowledge.observe(corpus()[0])
        assert knowledge.generation == generation + 1
        shard = PartialKnowledge.from_sequences(corpus()[:2], REGIONS)
        knowledge.fold(shard)
        assert knowledge.generation == generation + 2
        knowledge.unfold(shard)
        assert knowledge.generation == generation + 3
        knowledge.scale(0.5)
        assert knowledge.generation == generation + 4

    def test_failed_mutations_do_not_invalidate(self, two_shop_shared):
        knowledge = fresh_knowledge()
        compiled = ensure_compiled(knowledge, two_shop_shared.topology)
        foreign = PartialKnowledge.from_sequences(
            corpus()[:1], ["r-elsewhere", *REGIONS]
        )
        with pytest.raises(InferenceError):
            knowledge.fold(foreign)
        with pytest.raises(InferenceError):
            knowledge.scale(-1.0)
        assert knowledge.compiled_model() is compiled

    def test_mutation_invalidates_attached_model(self, two_shop_shared):
        knowledge = fresh_knowledge()
        topology = two_shop_shared.topology
        first = ensure_compiled(knowledge, topology)
        assert knowledge.compiled_model() is first
        assert ensure_compiled(knowledge, topology) is first  # cache hit
        knowledge.observe(corpus()[0])
        assert knowledge.compiled_model() is None
        second = ensure_compiled(knowledge, topology)
        assert second is not first
        assert second.generation == knowledge.generation

    def test_different_topology_object_recompiles(self, two_shop_shared):
        knowledge = fresh_knowledge()
        first = ensure_compiled(knowledge, two_shop_shared.topology)
        other = make_two_shop_dsm().topology
        second = ensure_compiled(knowledge, other)
        assert second is not first
        assert second.topology is other

    def test_pickle_drops_cache_keeps_generation(self, two_shop_shared):
        knowledge = fresh_knowledge()
        ensure_compiled(knowledge, two_shop_shared.topology)
        restored = pickle.loads(pickle.dumps(knowledge))
        assert restored == knowledge
        assert restored.generation == knowledge.generation
        assert restored.compiled_model() is None
        assert knowledge.compiled_model() is not None  # original untouched

    def test_smoothing_assignment_invalidates(self, two_shop_shared):
        """``smoothing`` is a public field and assigning it bumps no
        generation: the model records the value it was compiled with, so
        the queries cannot keep answering from the old table."""
        knowledge = fresh_knowledge()
        topology = two_shop_shared.topology
        inference = SemanticsInference(knowledge, topology)
        first = ensure_compiled(knowledge, topology)
        before = knowledge.transition_probability("r-adidas", "r-hall")
        memoized = inference.best_path("r-adidas", "r-cashier", 300.0)
        assert inference.best_path("r-adidas", "r-cashier", 300.0) is memoized
        knowledge.smoothing = 5.0
        assert knowledge.compiled_model() is None
        after = knowledge.transition_probability("r-adidas", "r-hall")
        expected = scratch_clone(knowledge).transition_probability(
            "r-adidas", "r-hall"
        )
        assert bits(after) == bits(expected) != bits(before)
        second = ensure_compiled(knowledge, topology)
        assert second is not first and second.smoothing == 5.0
        assert_equals_fresh_compile(second, knowledge, topology)
        assert bits(
            knowledge.transition_probability("r-adidas", "r-hall")
        ) == bits(expected)
        # Same generation, new table: the path memo must not outlive it.
        fresh = inference.best_path("r-adidas", "r-cashier", 300.0)
        assert fresh is not memoized
        assert_paths_identical(
            SemanticsInference(scratch_clone(knowledge), topology).best_path(
                "r-adidas", "r-cashier", 300.0
            ),
            fresh,
        )
        assert bits(fresh.log_probability) != bits(memoized.log_probability)

    def test_compile_telemetry_counters(self, two_shop_shared):
        knowledge = fresh_knowledge()
        topology = two_shop_shared.topology
        registry = MetricsRegistry()
        with use_registry(registry):
            ensure_compiled(knowledge, topology)
            ensure_compiled(knowledge, topology)
            knowledge.observe(corpus()[0])
            ensure_compiled(knowledge, topology)
        assert registry.counter("trips_inference_compiles_total").value == 2
        assert (
            registry.counter("trips_inference_compile_hits_total").value == 1
        )


# ----------------------------------------------------------------------
# Satellite 1: knowledge queries route through the table unchanged
# ----------------------------------------------------------------------
class TestKnowledgeQueryRouting:
    def test_queries_identical_with_and_without_table(self, two_shop_shared):
        plain = fresh_knowledge()
        tabled = fresh_knowledge()
        ensure_compiled(tabled, two_shop_shared.topology)
        assert tabled.compiled_model() is not None
        for origin in REGIONS:
            for destination in REGIONS:
                assert bits(
                    tabled.transition_probability(origin, destination)
                ) == bits(plain.transition_probability(origin, destination))
                if origin != destination:
                    assert bits(
                        tabled.log_transition(origin, destination)
                    ) == bits(plain.log_transition(origin, destination))

    def test_most_likely_next_identical(self, two_shop_shared):
        plain = fresh_knowledge()
        tabled = fresh_knowledge()
        ensure_compiled(tabled, two_shop_shared.topology)
        for origin in REGIONS:
            for top_k in (1, 3, len(REGIONS)):
                expected = plain.most_likely_next(origin, top_k)
                got = tabled.most_likely_next(origin, top_k)
                assert [r for r, _ in got] == [r for r, _ in expected]
                assert [bits(p) for _, p in got] == [
                    bits(p) for _, p in expected
                ]

    def test_most_likely_next_matches_per_destination_queries(self):
        knowledge = fresh_knowledge()
        ranked = knowledge.most_likely_next("r-adidas", len(REGIONS))
        for destination, probability in ranked:
            assert bits(probability) == bits(
                knowledge.transition_probability("r-adidas", destination)
            )

    def test_unknown_origin_still_rejected(self, two_shop_shared):
        tabled = fresh_knowledge()
        ensure_compiled(tabled, two_shop_shared.topology)
        with pytest.raises(InferenceError):
            tabled.transition_probability("r-mystery", "r-hall")
        with pytest.raises(InferenceError):
            tabled.log_transition("r-hall", "r-mystery")
        with pytest.raises(InferenceError):
            tabled.most_likely_next("r-mystery")


# ----------------------------------------------------------------------
# Satellite 2: the unknown-region contract
# ----------------------------------------------------------------------
class TestUnknownRegionContract:
    @pytest.fixture(params=["compiled", "objects"])
    def inference(self, request, two_shop_shared):
        config = (
            InferenceConfig()
            if request.param == "compiled"
            else OBJECT_INFERENCE
        )
        return SemanticsInference(
            fresh_knowledge(), two_shop_shared.topology, config
        )

    def test_dwell_deficit_of_unknown_region_is_silent_zero(self, inference):
        """Flank extension skips regions the knowledge cannot speak about."""
        stranger = triplet(EVENT_STAY, "r-mystery", 0.0, 30.0)
        assert inference._dwell_deficit(stranger) == 0.0

    def test_best_path_unknown_endpoint_raises(self, inference):
        """Path endpoints outside the vocabulary fail loudly."""
        with pytest.raises(InferenceError, match="unknown origin"):
            inference.best_path("r-mystery", "r-hall", 100.0)
        with pytest.raises(InferenceError, match="unknown destination"):
            inference.best_path("r-hall", "r-mystery", 100.0)


# ----------------------------------------------------------------------
# Hypothesis differential: compiled vs object inference
# ----------------------------------------------------------------------
region = st.sampled_from(REGIONS)

gap_duration = st.one_of(
    st.sampled_from([0.0, -5.0, 45.0, 121.0, 600.0]),
    st.floats(min_value=1.0, max_value=4000.0, allow_nan=False),
)

dwell_seconds = st.floats(min_value=10.0, max_value=900.0, allow_nan=False)


@st.composite
def walk_corpora(draw) -> list[MobilitySemanticsSequence]:
    """Random annotated walks over the two-shop regions."""
    count = draw(st.integers(min_value=1, max_value=5))
    sequences = []
    for index in range(count):
        length = draw(st.integers(min_value=1, max_value=6))
        t = index * 10000.0
        triplets = []
        for step in range(length):
            visited = draw(region)
            dwell = draw(dwell_seconds)
            triplets.append(triplet(EVENT_STAY, visited, t, t + dwell))
            t += dwell + draw(st.floats(min_value=5.0, max_value=200.0))
        sequences.append(MobilitySemanticsSequence(f"w{index}", triplets))
    return sequences


def paired_inferences(sequences, topology, **config):
    """Object and compiled inference over *independent* equal knowledge.

    Fresh knowledge per leg: the satellite-1 routing serves knowledge
    queries from an attached table, so sharing one object would let the
    reference leg silently read the tables it is supposed to check.
    """
    reference = SemanticsInference(
        MobilityKnowledge.from_sequences(sequences, REGIONS),
        topology,
        InferenceConfig(compiled=False, **config),
    )
    compiled = SemanticsInference(
        MobilityKnowledge.from_sequences(sequences, REGIONS),
        topology,
        InferenceConfig(**config),
    )
    return reference, compiled


class TestInferenceDifferential:
    @given(
        sequences=walk_corpora(),
        origin=region,
        destination=region,
        duration=gap_duration,
        max_hops=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_best_path_bit_for_bit(
        self, two_shop_shared, sequences, origin, destination, duration, max_hops
    ):
        reference, compiled = paired_inferences(
            sequences, two_shop_shared.topology, max_hops=max_hops
        )
        assert_paths_identical(
            reference.best_path(origin, destination, duration),
            compiled.best_path(origin, destination, duration),
        )

    @given(
        sequences=walk_corpora(),
        before_region=region,
        after_region=region,
        before_dwell=dwell_seconds,
        after_dwell=dwell_seconds,
        duration=st.floats(min_value=121.0, max_value=4000.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_infer_between_bit_for_bit(
        self,
        two_shop_shared,
        sequences,
        before_region,
        after_region,
        before_dwell,
        after_dwell,
        duration,
    ):
        before = triplet(EVENT_STAY, before_region, 0.0, before_dwell)
        gap = TimeRange(before_dwell, before_dwell + duration)
        after = triplet(
            EVENT_STAY, after_region, gap.end, gap.end + after_dwell
        )
        reference, compiled = paired_inferences(
            sequences, two_shop_shared.topology
        )
        assert compiled.infer_between(
            before, after, gap
        ) == reference.infer_between(before, after, gap)


# ----------------------------------------------------------------------
# The best_path memo: bounded, exact, generation-keyed
# ----------------------------------------------------------------------
class TestPathMemo:
    def make_inference(self, two_shop_shared, **config):
        return SemanticsInference(
            fresh_knowledge(),
            two_shop_shared.topology,
            InferenceConfig(**config),
        )

    def test_memo_hits_return_the_cached_answer(self, two_shop_shared):
        inference = self.make_inference(two_shop_shared)
        first = inference.best_path("r-adidas", "r-nike", 300.0)
        assert (inference.memo_hits, inference.memo_misses) == (0, 1)
        second = inference.best_path("r-adidas", "r-nike", 300.0)
        assert second is first  # the memoized object itself
        assert (inference.memo_hits, inference.memo_misses) == (1, 1)

    def test_memo_is_bounded_lru(self, two_shop_shared):
        inference = self.make_inference(two_shop_shared, path_memo=3)
        durations = [100.0, 200.0, 300.0, 400.0, 500.0]
        for duration in durations:
            inference.best_path("r-adidas", "r-nike", duration)
        assert len(inference._path_memo) == 3
        # The oldest entries were evicted; re-asking misses again.
        misses = inference.memo_misses
        inference.best_path("r-adidas", "r-nike", 100.0)
        assert inference.memo_misses == misses + 1

    def test_memo_disabled(self, two_shop_shared):
        inference = self.make_inference(two_shop_shared, path_memo=0)
        inference.best_path("r-adidas", "r-nike", 300.0)
        inference.best_path("r-adidas", "r-nike", 300.0)
        assert len(inference._path_memo) == 0
        assert (inference.memo_hits, inference.memo_misses) == (0, 0)

    def test_mutation_clears_the_memo(self, two_shop_shared):
        inference = self.make_inference(two_shop_shared)
        stale = inference.best_path("r-adidas", "r-nike", 300.0)
        inference.knowledge.observe(corpus()[0])
        fresh = inference.best_path("r-adidas", "r-nike", 300.0)
        assert fresh is not stale
        expected = SemanticsInference(
            MobilityKnowledge.from_sequences(corpus() + corpus()[:1], REGIONS),
            two_shop_shared.topology,
        ).best_path("r-adidas", "r-nike", 300.0)
        assert_paths_identical(expected, fresh)

    def test_flush_telemetry(self, two_shop_shared):
        inference = self.make_inference(two_shop_shared)
        registry = MetricsRegistry()
        inference.best_path("r-adidas", "r-nike", 300.0)
        inference.best_path("r-adidas", "r-nike", 300.0)
        with use_registry(registry):
            inference.flush_telemetry()
            inference.flush_telemetry()  # drained: no further increments
        assert registry.counter("trips_inference_memo_hits_total").value == 1
        assert (
            registry.counter("trips_inference_memo_misses_total").value == 1
        )
        assert (inference.memo_hits, inference.memo_misses) == (0, 0)


# ----------------------------------------------------------------------
# Satellite 3: no interleaving of mutations can serve a stale answer
# ----------------------------------------------------------------------
operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(0, 11)),
        st.tuples(st.just("fold"), st.integers(0, 11)),
        st.tuples(st.just("scale"), st.floats(0.25, 1.0, allow_nan=False)),
        st.tuples(st.just("roll"), st.just(0)),
        st.tuples(st.just("retire"), st.just(0)),
        st.tuples(st.just("pickle"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


def walk_shard(index: int) -> PartialKnowledge:
    return PartialKnowledge.from_sequences([corpus()[index]], REGIONS)


class TestStalenessProperty:
    @given(
        retention=st.sampled_from(RETENTIONS),
        ops=operations,
        origin=region,
        destination=region,
        duration=gap_duration,
    )
    @settings(max_examples=80, deadline=None)
    def test_interleaved_mutations_equal_fresh_compile(
        self, two_shop_shared, retention, ops, origin, destination, duration
    ):
        """One long-lived compiled inference, mutated between queries,
        answers exactly like a fresh compile of the current counts —
        through folds, unfolds (window retirals, by ``roll`` and by a
        direct ``retire``), decay rescales, direct observes and a pickle
        round-trip of the knowledge, in any order — and after *every* op
        the model ``ensure_compiled`` hands out equals a from-scratch
        compile table for table, ``float.hex`` for ``float.hex``."""
        topology = two_shop_shared.topology
        store = KnowledgeStore(regions=REGIONS, retention=retention)
        live = SemanticsInference(store.knowledge, topology)
        sequences = corpus()
        clock = 0.0
        for op, argument in ops:
            if op == "observe":
                store.knowledge.observe(sequences[argument])
            elif op == "fold":
                store.fold(walk_shard(argument), start=clock, end=clock + 60.0)
                clock += 60.0
            elif op == "scale":
                store.knowledge.scale(argument)
            elif op in ("roll", "retire"):
                # Unfolding an epoch out of rescaled counts is refused;
                # a refused unfold must leave the tables right too.
                try:
                    if op == "roll":
                        store.roll(now=clock)
                    elif store.epochs:
                        store.retire(store.epochs[0])
                except InferenceError:
                    pass
            else:
                store.knowledge = pickle.loads(pickle.dumps(store.knowledge))
                assert store.knowledge.compiled_model() is None
                live = SemanticsInference(store.knowledge, topology)
            knowledge = store.knowledge
            model = ensure_compiled(knowledge, topology)
            assert_equals_fresh_compile(model, knowledge, topology)
            assert knowledge.compiled_model() is model
            answer = live.best_path(origin, destination, duration)
            expected = SemanticsInference(
                scratch_clone(knowledge), topology
            ).best_path(origin, destination, duration)
            assert_paths_identical(expected, answer)

    def test_racing_threads_compile_the_same_tables(self, two_shop_shared):
        """Eight threads hit one knowledge object a fold
        just staled: they may compile the generation more than once, but
        every model is the fresh compile and the last attach is current."""
        topology = two_shop_shared.topology
        knowledge = fresh_knowledge()
        ensure_compiled(knowledge, topology)
        results: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(12):
                knowledge.fold(walk_shard(round_index))
                barrier = threading.Barrier(8)

                def worker():
                    barrier.wait(timeout=30)
                    results.append(ensure_compiled(knowledge, topology))

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                expected = table_hex(
                    CompiledTransitionModel.compile(
                        scratch_clone(knowledge), topology
                    )
                )
                assert len(results) == 8
                for model in results:
                    assert model.generation == knowledge.generation
                    assert table_hex(model) == expected
                assert knowledge.compiled_model() in results
                results.clear()
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Engine matrix: buildings x backends, dropout-injected feeds
# ----------------------------------------------------------------------
def shopper_feed():
    """Long two-shop visits with a hall crossing — dropout windows cut
    real discontinuities into these (short feeds would swallow them)."""
    sequences = []
    for i in range(5):
        device = f"shopper-{i}"
        start = 50.0 * i
        first = stationary_sequence(
            device, at=(5.0, 15.0, 1), count=20, interval=15.0,
            start=start, seed=i,
        )
        crossing_start = start + 20 * 15.0
        crossing = [
            (5.0, 8.0, 1), (5.0, 4.0, 1), (9.0, 4.0, 1),
            (13.0, 4.0, 1), (15.0, 4.0, 1), (15.0, 8.0, 1),
        ]
        walk = [
            RawPositioningRecord(
                crossing_start + 8.0 * j, device, Point(x, y, f)
            )
            for j, (x, y, f) in enumerate(crossing)
        ]
        second = stationary_sequence(
            device, at=(15.0, 15.0, 1), count=20, interval=15.0,
            start=crossing_start + 60.0, seed=i + 50,
        )
        sequences.append(
            PositioningSequence(
                device, list(first.records) + walk + list(second.records)
            )
        )
    return sequences


def with_dropout(sequences, gap_seconds=240.0, gap_count=2):
    """Positioning dropouts make phase two actually infer paths."""
    injected = []
    for index, sequence in enumerate(sequences):
        dropped, _ = inject_dropout(
            sequence, gap_seconds=gap_seconds, gap_count=gap_count, seed=index
        )
        injected.append(dropped)
    return injected


@pytest.fixture(scope="module")
def building_cases(mall3, population):
    """(compiled translator, object translator, sequences, reference)."""
    cases = {}
    for name, model, sequences in (
        ("two_shop", make_two_shop_dsm(), with_dropout(shopper_feed())),
        (
            "mall3",
            mall3,
            with_dropout([device.raw for device in population]),
        ),
    ):
        compiled = Translator(model)
        objects = Translator(model, config=OBJECT_TRANSLATOR)
        reference = Engine(
            objects, EngineConfig(chunk_size=2)
        ).translate_batch(sequences)
        assert any(
            result.complement is not None and result.complement.gaps_found
            for result in reference.results
        )
        cases[name] = (compiled, objects, sequences, reference)
    return cases


@pytest.mark.parametrize("building", ["two_shop", "mall3"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_engine_compiled_matches_objects(building_cases, building, backend):
    """The acceptance matrix: compiled == object inference, results and
    knowledge, for every building x backend cell."""
    compiled, _, sequences, reference = building_cases[building]
    engine = Engine(
        compiled,
        EngineConfig(backend=backend, workers=2, chunk_size=2),
    )
    batch = engine.translate_batch(sequences)
    assert batch.results == reference.results
    assert batch.knowledge == reference.knowledge


@pytest.mark.parametrize("retention", RETENTIONS)
def test_incremental_retention_matches_across_paths(retention):
    """Windowed ``translate_increment`` through a retention-managed store
    evolves identically whether phase two runs compiled or object
    inference — per-window results, knowledge bits, epoch lifecycle."""
    model = make_two_shop_dsm()
    sequences = with_dropout(shopper_feed())
    windows = [sequences[:2], sequences[2:4], sequences[4:]]

    def run(config):
        engine = Engine(Translator(model, config=config), EngineConfig(chunk_size=2))
        store = engine.make_store(retention)
        states = []
        for window in windows:
            result = engine.translate_increment(window, store=store)
            store.roll()
            states.append(
                (
                    result.results,
                    store.to_partial(),
                    store.retained_epochs,
                    store.epochs_retired,
                )
            )
        return states

    for compiled_state, object_state in zip(
        run(TranslatorConfig()), run(OBJECT_TRANSLATOR)
    ):
        assert compiled_state == object_state


def test_live_finalize_matches_across_paths():
    """The live service's batch-equivalence holds on both inference
    paths, and the two finalized outputs are identical."""
    model = make_two_shop_dsm()
    records = sorted(
        (r for s in with_dropout(shopper_feed()) for r in s.records),
        key=lambda r: (r.timestamp, r.device_id),
    )
    window_seconds = 150.0

    def run(config):
        service = LiveTranslationService(
            {"shop": Translator(model, config=config)},
            EngineConfig(chunk_size=2),
            LiveConfig(window_seconds=window_seconds),
        )
        with service:
            service.run_stream(RecordStream(iter(records)), venue_id="shop")
            return service.finalize()["shop"]

    compiled = run(TranslatorConfig())
    objects = run(OBJECT_TRANSLATOR)
    assert compiled.results == objects.results
    assert compiled.knowledge == objects.knowledge
    sequences = list(
        sequence_stream(RecordStream(iter(records)), window_seconds)
    )
    reference = Engine(
        Translator(model), EngineConfig(chunk_size=2)
    ).translate_batch(sequences)
    assert compiled.results == reference.results
    assert compiled.knowledge == reference.knowledge


def test_phase_two_chunk_flushes_compile_telemetry():
    """One compile tick per chunk runner; memo counters flush alongside.

    Since the gap gate the runner primes only when its chunk holds a
    gap: the dropout chunk below ticks exactly as before, and a gapless
    chunk (the last assertion, the one addition) asks for no table."""
    from repro.core.translator import run_phase_one_chunk, run_phase_two_chunk

    translator = Translator(make_two_shop_dsm())
    chunk = run_phase_one_chunk(translator, with_dropout(shopper_feed()))
    knowledge = MobilityKnowledge.from_sequences(
        chunk.annotated, translator.knowledge_regions()
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        run_phase_two_chunk(translator, (knowledge, chunk.annotated))
    assert registry.counter("trips_inference_compiles_total").value == 1
    with use_registry(registry):
        run_phase_two_chunk(translator, (knowledge, chunk.annotated))
    assert registry.counter("trips_inference_compiles_total").value == 1
    assert registry.counter("trips_inference_compile_hits_total").value == 1
    gapless = run_phase_one_chunk(translator, shopper_feed()).annotated
    knowledge.observe(gapless[0])  # stale: a prime would have to compile
    with use_registry(registry):
        run_phase_two_chunk(translator, (knowledge, gapless))
    assert registry.counter("trips_inference_compiles_total").value == 1
    assert registry.counter("trips_inference_compile_hits_total").value == 1


# ----------------------------------------------------------------------
# The gap gate: gapless sequences never reach the pool or the table
# ----------------------------------------------------------------------
def mixed_feed():
    """Gap-bearing shoppers interleaved with short gapless dwellers."""
    mixed = []
    for index, shopper in enumerate(with_dropout(shopper_feed())):
        mixed.append(shopper)
        mixed.append(
            stationary_sequence(
                f"dweller-{index}", at=(15.0, 15.0, 1), count=12,
                interval=15.0, start=40.0 * index, seed=100 + index,
            )
        )
    return mixed


def ungated_complements(translator, knowledge, annotated):
    """The definition the gate must reproduce: every sequence through
    ``complement()``, and the chunk runner over all of them at once."""
    from repro.core.complementing import MobilitySemanticsComplementor
    from repro.core.translator import run_phase_two_chunk

    complementor = MobilitySemanticsComplementor(
        knowledge, translator.model.topology, translator.config.complementing
    )
    expected = [complementor.complement(sequence) for sequence in annotated]
    assert run_phase_two_chunk(translator, (knowledge, annotated)) == expected
    return expected


def assert_gated_results(results, expected):
    """Result for result, and gapless slots untouched by phase two."""
    assert [result.complement for result in results] == expected
    found = [result.complement.gaps_found for result in results]
    assert any(found) and not all(found)  # the feed exercises both sides
    for result in results:
        complement = result.complement
        if not complement.gaps_found:
            assert complement.sequence is result.annotation.sequence
            assert (
                complement.gaps_filled, complement.inferred_semantics
            ) == (0, 0)


@pytest.mark.parametrize("chunk_size", [1, 2, 8])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gap_gate_matches_ungated_phase_two(backend, chunk_size):
    """``translate_batch``, ``translate_increment`` and the live
    service's ``finalize()`` complement a mixed feed exactly as the
    ungated phase two does, on every backend and chunking."""
    model = make_two_shop_dsm()
    translator = Translator(model)
    config = EngineConfig(backend=backend, workers=2, chunk_size=chunk_size)
    engine = Engine(translator, config)
    sequences = mixed_feed()

    batch = engine.translate_batch(sequences)
    assert_gated_results(
        batch.results,
        ungated_complements(
            translator,
            batch.knowledge,
            [result.annotation.sequence for result in batch.results],
        ),
    )

    store = engine.make_store()
    incremental = []
    expected = []
    for window in (sequences[:4], sequences[4:5], sequences[5:]):
        result = engine.translate_increment(window, store=store)
        store.roll()
        incremental.extend(result.results)
        expected.extend(
            ungated_complements(
                translator,
                store.knowledge,
                [r.annotation.sequence for r in result.results],
            )
        )
    assert_gated_results(incremental, expected)

    records = sorted(
        (r for s in sequences for r in s.records),
        key=lambda r: (r.timestamp, r.device_id),
    )
    service = LiveTranslationService(
        {"shop": translator}, config, LiveConfig(window_seconds=600.0)
    )
    with service:
        service.run_stream(RecordStream(iter(records)), venue_id="shop")
        finalized = service.finalize()["shop"]
    assert_gated_results(
        finalized.results,
        ungated_complements(
            translator,
            finalized.knowledge,
            [result.annotation.sequence for result in finalized.results],
        ),
    )


def test_gapless_window_never_reaches_the_pool():
    """No gap-bearing sequence: phase two shares nothing, maps nothing
    and compiles nothing, however stale the attached table is."""
    from repro.engine import DEFAULT_CONTEXT_KEY, SerialBackend
    from repro.engine.engine import _phase_two_task

    class SpyBackend(SerialBackend):
        shares = 0
        phase_two_maps = 0

        def share(self, value):
            self.shares += 1
            return super().share(value)

        def map(self, fn, payloads):
            self.phase_two_maps += fn is _phase_two_task
            return super().map(fn, payloads)

    translator = Translator(make_two_shop_dsm())
    gapless = [
        stationary_sequence(f"dweller-{i}", count=12, interval=15.0, seed=i)
        for i in range(3)
    ]
    registry = MetricsRegistry()
    with SpyBackend() as spy, use_registry(registry):
        spy.open({DEFAULT_CONTEXT_KEY: translator})
        engine = Engine(translator, EngineConfig(chunk_size=2), backend=spy)
        store = engine.make_store()
        result = engine.translate_increment(gapless, store=store)
        assert (spy.shares, spy.phase_two_maps) == (0, 0)
        assert [r.complement.sequence for r in result.results] == [
            r.annotation.sequence for r in result.results
        ]
        assert engine.complement(
            [r.annotation.sequence for r in result.results], store.knowledge
        ) == [r.complement for r in result.results]
        assert (spy.shares, spy.phase_two_maps) == (0, 0)
        # The same engine still maps a window that does hold a gap.
        engine.translate_increment(
            with_dropout(shopper_feed())[:2], store=store
        )
        assert (spy.shares, spy.phase_two_maps) == (1, 1)
    assert registry.counter("trips_inference_compiles_total").value == 1
