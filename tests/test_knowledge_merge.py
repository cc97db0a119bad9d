"""Property tests of the PartialKnowledge merge algebra (hypothesis).

The sharded knowledge build is only sound if the shard merge is a real
commutative monoid and folding shards reproduces the serial build *bit
for bit* — including the float dwell totals, which accumulate through
``ExactSum`` precisely so that regrouping additions never changes the
rounded result.  Durations here are adversarial floats on purpose: plain
``+=`` accumulation fails these properties.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complementing import (
    ExactSum,
    MobilityKnowledge,
    PartialKnowledge,
    RegionStats,
    merge_partials,
)
from repro.core.semantics import (
    EVENT_PASS_BY,
    EVENT_STAY,
    MobilitySemantic,
    MobilitySemanticsSequence,
)
from repro.errors import InferenceError
from repro.timeutil import TimeRange

REGIONS = ["r-atrium", "r-cafe", "r-gym", "r-shop"]
#: Sequences may reference a region outside the vocabulary; both build
#: paths must ignore it identically.
SEMANTIC_REGIONS = REGIONS + ["r-foreign"]

durations = st.floats(
    min_value=0.1, max_value=7200.0, allow_nan=False, allow_infinity=False
)
#: Gaps on both sides of the 600 s transition cutoff, so shardings must
#: also agree on which pairs count as transitions.
gaps = st.one_of(
    st.floats(min_value=0.0, max_value=400.0),
    st.floats(min_value=601.0, max_value=2000.0),
)


@st.composite
def annotated_sequences(draw):
    """A random annotated semantics sequence over the small vocabulary."""
    count = draw(st.integers(min_value=0, max_value=6))
    clock = draw(st.floats(min_value=0.0, max_value=1e6))
    semantics = []
    for _ in range(count):
        clock += draw(gaps)
        duration = draw(durations)
        region = draw(st.sampled_from(SEMANTIC_REGIONS))
        event = draw(st.sampled_from([EVENT_STAY, EVENT_PASS_BY]))
        semantics.append(
            MobilitySemantic(
                event, region, region, TimeRange(clock, clock + duration)
            )
        )
        clock += duration
    return MobilitySemanticsSequence("dev", semantics)


corpora = st.lists(annotated_sequences(), max_size=6)
#: A random sharding: a list of shards, each a list of sequences (empty
#: shards included — a chunk whose sequences all annotate to nothing
#: still produces a partial).
shardings = st.lists(
    st.lists(annotated_sequences(), max_size=3), max_size=4
)


def partial_of(corpus) -> PartialKnowledge:
    return PartialKnowledge.from_sequences(corpus, REGIONS)


# ----------------------------------------------------------------------
# The merge monoid
# ----------------------------------------------------------------------
class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(corpora, corpora)
    def test_merge_commutative(self, left, right):
        a, b = partial_of(left), partial_of(right)
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=40, deadline=None)
    @given(corpora, corpora, corpora)
    def test_merge_associative(self, one, two, three):
        a, b, c = partial_of(one), partial_of(two), partial_of(three)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=25, deadline=None)
    @given(corpora)
    def test_empty_shard_is_identity(self, corpus):
        a = partial_of(corpus)
        empty = PartialKnowledge(regions=list(REGIONS))
        assert a.merge(empty) == a
        assert empty.merge(a) == a

    @settings(max_examples=25, deadline=None)
    @given(corpora, corpora, corpora)
    def test_merge_partials_equals_pairwise(self, one, two, three):
        a, b, c = partial_of(one), partial_of(two), partial_of(three)
        assert merge_partials(a, b, c) == a.merge(b).merge(c)

    @settings(max_examples=25, deadline=None)
    @given(corpora, corpora)
    def test_merge_does_not_mutate_operands(self, left, right):
        a, b = partial_of(left), partial_of(right)
        a_before, b_before = partial_of(left), partial_of(right)
        a.merge(b)
        assert a == a_before
        assert b == b_before

    def test_merge_partials_requires_a_shard(self):
        with pytest.raises(InferenceError):
            merge_partials()

    def test_merge_rejects_vocabulary_mismatch(self):
        a = PartialKnowledge(regions=list(REGIONS))
        b = PartialKnowledge(regions=REGIONS + ["r-extra"])
        with pytest.raises(InferenceError):
            a.merge(b)

    def test_partial_requires_vocabulary(self):
        with pytest.raises(InferenceError):
            PartialKnowledge(regions=[])


# ----------------------------------------------------------------------
# Sharded build == serial build
# ----------------------------------------------------------------------
class TestShardedEqualsSerial:
    @settings(max_examples=40, deadline=None)
    @given(shardings, st.floats(min_value=0.1, max_value=5.0))
    def test_from_partials_equals_from_sequences(self, shards, smoothing):
        concat = [sequence for shard in shards for sequence in shard]
        reference = MobilityKnowledge.from_sequences(
            concat, REGIONS, smoothing=smoothing
        )
        merged = MobilityKnowledge.from_partials(
            [partial_of(shard) for shard in shards],
            regions=REGIONS,
            smoothing=smoothing,
        )
        assert merged == reference

    @settings(max_examples=25, deadline=None)
    @given(shardings)
    def test_transition_probability_identical_post_merge(self, shards):
        concat = [sequence for shard in shards for sequence in shard]
        reference = MobilityKnowledge.from_sequences(concat, REGIONS)
        merged = MobilityKnowledge.from_partials(
            [partial_of(shard) for shard in shards], regions=REGIONS
        )
        for origin in REGIONS:
            for destination in REGIONS:
                assert merged.transition_probability(
                    origin, destination
                ) == reference.transition_probability(origin, destination)
            assert merged.region_stats(origin) == reference.region_stats(
                origin
            )
            assert merged.mean_dwell(origin) == reference.mean_dwell(origin)

    @settings(max_examples=25, deadline=None)
    @given(corpora, corpora)
    def test_fold_is_incremental_observe(self, first_window, second_window):
        """fold(partial) == having observed the window's sequences."""
        knowledge = MobilityKnowledge.from_sequences(first_window, REGIONS)
        knowledge.fold(partial_of(second_window))
        assert knowledge == MobilityKnowledge.from_sequences(
            first_window + second_window, REGIONS
        )

    @settings(max_examples=25, deadline=None)
    @given(corpora)
    def test_to_partial_roundtrip(self, corpus):
        knowledge = MobilityKnowledge.from_sequences(corpus, REGIONS)
        exported = knowledge.to_partial()
        assert exported == partial_of(corpus)
        rebuilt = MobilityKnowledge.from_partials([exported])
        assert rebuilt == knowledge
        # The export is a deep copy: mutating it must not leak back.
        exported.observe(
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                    )
                ],
            )
        )
        assert knowledge == rebuilt

    def test_from_partials_empty_needs_regions(self):
        with pytest.raises(InferenceError):
            MobilityKnowledge.from_partials([])
        empty = MobilityKnowledge.from_partials([], regions=REGIONS)
        assert empty == MobilityKnowledge.from_sequences([], REGIONS)

    @settings(max_examples=15, deadline=None)
    @given(corpora)
    def test_partial_pickle_roundtrip(self, corpus):
        """The process backend ships shards by pickle; it must be exact."""
        shard = partial_of(corpus)
        assert pickle.loads(pickle.dumps(shard)) == shard


# ----------------------------------------------------------------------
# The exact accumulator underneath
# ----------------------------------------------------------------------
class TestExactSum:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=20,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_and_grouping_independent(self, values, rng):
        """Any permutation and any split point yields the same total."""
        reference = ExactSum(values)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert ExactSum(shuffled) == reference
        split = rng.randrange(len(values) + 1)
        left, right = ExactSum(values[:split]), ExactSum(values[split:])
        left.merge(right)
        assert left == reference
        assert reference.value == math.fsum(values)

    def test_plain_float_addition_would_fail(self):
        """The motivating counterexample: += is not associative."""
        values = [1e16, 1.0, 1.0, -1e16]
        grouped = (1e16 + 1.0 + 1.0) + -1e16
        assert grouped != math.fsum(values)  # plain += loses the 2.0
        split = ExactSum(values[:2])
        split.merge(ExactSum(values[2:]))
        assert split.value == math.fsum(values) == 2.0

    def test_copy_is_independent(self):
        original = ExactSum([1.5, 2.5])
        clone = original.copy()
        clone.add(1.0)
        assert original.value == 4.0
        assert clone.value == 5.0

    def test_region_stats_equality_tracks_exact_totals(self):
        a = RegionStats()
        b = RegionStats()
        for value in (1e16, 1.0):
            a.add_visit(value, stay=True)
        # Same visits in the opposite order: plain floats would disagree.
        for value in (1.0, 1e16):
            b.add_visit(value, stay=True)
        assert a == b
        assert a.total_dwell == b.total_dwell == math.fsum((1e16, 1.0))
        merged = RegionStats()
        merged.add(a)
        merged.add(RegionStats())
        assert merged == a


def dense_twin(partial: PartialKnowledge) -> PartialKnowledge:
    """The same shard with an entry for every vocabulary region."""
    stats = {
        region: partial.stats[region].copy()
        if region in partial.stats
        else RegionStats()
        for region in partial.regions
    }
    return PartialKnowledge(
        regions=list(partial.regions),
        transitions={o: dict(d) for o, d in partial.transitions.items()},
        outgoing_totals=dict(partial.outgoing_totals),
        stats=stats,
        sequences_seen=partial.sequences_seen,
    )


class TestSparseShard:
    """A shard holds stats only for the regions it touched, and every
    observable — equality, the algebra, the wire form — is the dense one."""

    def test_a_fresh_shard_allocates_no_stats(self):
        assert PartialKnowledge(regions=REGIONS).stats == {}

    @settings(max_examples=25, deadline=None)
    @given(corpora)
    def test_missing_entry_equals_zero_entry(self, corpus):
        sparse = PartialKnowledge.from_sequences(corpus, REGIONS)
        assert set(sparse.stats) <= set(REGIONS)
        twin = dense_twin(sparse)
        assert set(twin.stats) == set(REGIONS)
        assert sparse == twin
        assert twin == sparse
        assert PartialKnowledge(regions=REGIONS) == dense_twin(
            PartialKnowledge(regions=REGIONS)
        )

    def test_a_missing_entry_differs_from_a_visited_one(self):
        visited = RegionStats()
        visited.add_visit(30.0, stay=True)
        assert PartialKnowledge(regions=REGIONS) != PartialKnowledge(
            regions=REGIONS, stats={REGIONS[0]: visited}
        )

    @settings(max_examples=25, deadline=None)
    @given(corpora, corpora)
    def test_add_then_subtract_equals_never_adding(self, base, extra):
        shard = PartialKnowledge.from_sequences(base, REGIONS)
        before = dense_twin(shard)
        other = PartialKnowledge.from_sequences(extra, REGIONS)
        shard.add(other)
        shard.subtract(other)
        assert shard == before
        empty = PartialKnowledge(regions=REGIONS)
        empty.add(other)
        empty.subtract(other)
        assert empty == PartialKnowledge(regions=REGIONS)

    def test_subtracting_an_unvisited_region_names_it(self):
        def visit(region):
            semantic = MobilitySemantic(
                EVENT_STAY, region, region, TimeRange(0.0, 60.0)
            )
            return MobilitySemanticsSequence("dev", [semantic])

        target = PartialKnowledge.from_sequences([visit("r-cafe")], REGIONS)
        before = dense_twin(target)
        source = PartialKnowledge.from_sequences([visit("r-gym")], REGIONS)
        with pytest.raises(InferenceError, match="'r-gym'"):
            target.subtract(source)
        assert target == before
        assert "r-gym" not in target.stats

    @settings(max_examples=25, deadline=None)
    @given(corpora)
    def test_encoding_is_the_dense_twins_byte_for_byte(self, corpus):
        from repro.durability import decode, encode

        sparse = PartialKnowledge.from_sequences(corpus, REGIONS)
        wire = json.dumps(encode(sparse))
        assert wire == json.dumps(encode(dense_twin(sparse)))
        assert MobilityKnowledge.from_partials([sparse]).to_partial() == sparse
        decoded = decode(json.loads(wire))
        assert decoded == sparse
        assert set(decoded.stats) == set(REGIONS)

    def test_one_window_shard_pickles_smaller_than_its_dense_twin(self):
        vocabulary = [f"r-{index:02d}" for index in range(48)]
        window = MobilitySemanticsSequence(
            "dev",
            [
                MobilitySemantic(
                    EVENT_STAY, "r-03", "r-03", TimeRange(0.0, 90.0)
                ),
                MobilitySemantic(
                    EVENT_PASS_BY, "r-17", "r-17", TimeRange(95.0, 110.0)
                ),
            ],
        )
        sparse = PartialKnowledge.from_sequences([window], vocabulary)
        assert sorted(sparse.stats) == ["r-03", "r-17"]
        dense = dense_twin(sparse)
        assert pickle.loads(pickle.dumps(sparse)) == dense
        assert len(pickle.dumps(sparse)) < len(pickle.dumps(dense)) / 2
