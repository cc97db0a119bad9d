"""The epoch-based knowledge lifecycle: stores, retention, exact inverse.

Sliding-window retention is only sound if subtraction is the *exact*
inverse of the fold: retiring an epoch must leave knowledge bit-for-bit
identical — integer counts, ExactSum dwell totals, structural dict
equality — to knowledge that never folded it.  The property tests here
drive that with adversarial float durations (where plain ``-=`` over
accumulated floats would drift), and check that a windowed store's state
is independent of how each epoch's evidence was sharded and merged.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Translator
from repro.core.complementing import (
    ExactSum,
    MobilityKnowledge,
    PartialKnowledge,
    RegionStats,
)
from repro.core.semantics import (
    EVENT_PASS_BY,
    EVENT_STAY,
    MobilitySemantic,
    MobilitySemanticsSequence,
)
from repro.core.translator import run_phase_one_chunk
from repro.durability import encode
from repro.engine import Engine, EngineConfig
from repro.errors import ConfigError, InferenceError
from repro.knowledge import (
    ExponentialDecay,
    KnowledgeStore,
    RetentionPolicy,
    SlidingWindow,
    Unbounded,
    parse_retention,
)
from repro.live import LiveConfig, LiveTranslationService
from repro.positioning import RecordStream, windowed_records
from repro.timeutil import TimeRange

from .conftest import make_two_shop_dsm, stationary_sequence, walk_sequence

REGIONS = ["r-atrium", "r-cafe", "r-gym", "r-shop"]

durations = st.floats(
    min_value=0.1, max_value=7200.0, allow_nan=False, allow_infinity=False
)
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
        region = draw(st.sampled_from(REGIONS))
        event = draw(st.sampled_from([EVENT_STAY, EVENT_PASS_BY]))
        semantics.append(
            MobilitySemantic(
                event, region, region, TimeRange(clock, clock + duration)
            )
        )
        clock += duration
    return MobilitySemanticsSequence("dev", semantics)


corpora = st.lists(annotated_sequences(), max_size=5)
#: A stream of epochs, each a list of annotated sequences.
epoch_streams = st.lists(
    st.lists(annotated_sequences(), max_size=3), min_size=1, max_size=5
)


def partial_of(corpus) -> PartialKnowledge:
    return PartialKnowledge.from_sequences(corpus, REGIONS)


def knowledge_of(*corpora_) -> MobilityKnowledge:
    return MobilityKnowledge.from_sequences(
        [seq for corpus in corpora_ for seq in corpus], REGIONS
    )


# ----------------------------------------------------------------------
# subtract is the exact inverse of add/fold
# ----------------------------------------------------------------------
class TestExactInverse:
    @settings(max_examples=40, deadline=None)
    @given(corpora, corpora)
    def test_partial_subtract_inverts_add(self, base, extra):
        shard = partial_of(base)
        shard.add(partial_of(extra))
        shard.subtract(partial_of(extra))
        assert shard == partial_of(base)

    @settings(max_examples=40, deadline=None)
    @given(epoch_streams)
    def test_retiring_first_epoch_equals_never_folding_it(self, epochs):
        """The acceptance property: fold epochs A,B,C,... then unfold A
        == knowledge built over only B,C,... — exact equality, down to
        the encoded bytes (a retired dwell total encodes as the exact
        zero a never-visited region does)."""
        knowledge = MobilityKnowledge(regions=list(REGIONS))
        for epoch in epochs:
            knowledge.fold(partial_of(epoch))
        knowledge.unfold(partial_of(epochs[0]))
        assert knowledge == knowledge_of(*epochs[1:])
        assert encode(knowledge) == encode(knowledge_of(*epochs[1:]))

    @settings(max_examples=25, deadline=None)
    @given(epoch_streams)
    def test_unfolding_every_epoch_leaves_empty_knowledge(self, epochs):
        knowledge = MobilityKnowledge(regions=list(REGIONS))
        for epoch in epochs:
            knowledge.fold(partial_of(epoch))
        for epoch in epochs:
            knowledge.unfold(partial_of(epoch))
        assert knowledge == MobilityKnowledge(regions=list(REGIONS))

    @settings(max_examples=25, deadline=None)
    @given(corpora, corpora)
    def test_queries_identical_after_retirement(self, retained, retired):
        folded = MobilityKnowledge(regions=list(REGIONS))
        folded.fold(partial_of(retained))
        folded.fold(partial_of(retired))
        folded.unfold(partial_of(retired))
        reference = knowledge_of(retained)
        for origin in REGIONS:
            for destination in REGIONS:
                assert folded.transition_probability(
                    origin, destination
                ) == reference.transition_probability(origin, destination)
            assert folded.region_stats(origin) == reference.region_stats(
                origin
            )
            assert folded.mean_dwell(origin) == reference.mean_dwell(origin)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=16,
        ),
        st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=16,
        ),
    )
    def test_exactsum_subtract_inverts_merge(self, base, extra):
        total = ExactSum(base)
        total.merge(ExactSum(extra))
        total.subtract(ExactSum(extra))
        assert total == ExactSum(base)

    def test_subtract_never_folded_raises_and_preserves_state(self):
        stay = MobilitySemanticsSequence(
            "dev",
            [
                MobilitySemantic(
                    EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                ),
                MobilitySemantic(
                    EVENT_STAY, REGIONS[1], REGIONS[1], TimeRange(70, 90)
                ),
            ],
        )
        folded = partial_of([stay])
        before = partial_of([stay])
        with pytest.raises(InferenceError):
            folded.subtract(partial_of([stay, stay]))
        assert folded == before
        knowledge = MobilityKnowledge(regions=list(REGIONS))
        knowledge.fold(folded)
        with pytest.raises(InferenceError):
            knowledge.unfold(partial_of([stay, stay]))
        assert knowledge == knowledge_of([stay])

    def test_subtract_rejects_vocabulary_mismatch(self):
        a = PartialKnowledge(regions=list(REGIONS))
        b = PartialKnowledge(regions=REGIONS + ["r-extra"])
        with pytest.raises(InferenceError):
            a.subtract(b)
        knowledge = MobilityKnowledge(regions=list(REGIONS))
        with pytest.raises(InferenceError):
            knowledge.unfold(b)

    def test_region_stats_subtract_validates(self):
        stats = RegionStats()
        stats.add_visit(30.0, stay=True)
        bigger = RegionStats()
        bigger.add_visit(30.0, stay=True)
        bigger.add_visit(40.0, stay=False)
        with pytest.raises(InferenceError):
            stats.subtract(bigger)


# ----------------------------------------------------------------------
# The store under its retention policies
# ----------------------------------------------------------------------
class TestKnowledgeStore:
    def test_requires_regions_or_knowledge(self):
        with pytest.raises(InferenceError):
            KnowledgeStore()

    def test_unbounded_is_plain_fold(self):
        """Default retention: the store is a bare cumulative fold — no
        epoch ring, nothing retired, every rolled epoch retained."""
        corpus = [
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                    )
                ],
            )
        ]
        store = KnowledgeStore(REGIONS)
        for _ in range(3):
            store.fold(partial_of(corpus))
            store.roll()
        assert isinstance(store.retention, Unbounded)
        assert len(store.epochs) == 0
        assert store.epochs_rolled == store.retained_epochs == 3
        assert store.epochs_retired == 0
        assert store.knowledge == knowledge_of(corpus, corpus, corpus)

    def test_wrap_mutates_the_callers_object(self):
        """``knowledge=`` adopts the caller's object; folds land in it."""
        corpus = [
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, "r-cafe", "r-cafe", TimeRange(0.0, 90.0)
                    )
                ],
            )
        ]
        knowledge = MobilityKnowledge(regions=list(REGIONS))
        store = KnowledgeStore(knowledge=knowledge)
        store.fold(partial_of(corpus))
        assert store.knowledge is knowledge
        assert knowledge == knowledge_of(corpus)

    @settings(max_examples=25, deadline=None)
    @given(epoch_streams, st.integers(min_value=1, max_value=3))
    def test_sliding_window_equals_fold_of_retained_epochs(
        self, epochs, max_epochs
    ):
        store = KnowledgeStore(
            REGIONS, retention=SlidingWindow(max_epochs=max_epochs)
        )
        for epoch in epochs:
            store.fold(partial_of(epoch))
            store.roll()
        retained = epochs[-max_epochs:]
        assert store.knowledge == knowledge_of(*retained)
        assert store.retained_epochs == min(len(epochs), max_epochs)
        assert store.epochs_retired == max(0, len(epochs) - max_epochs)

    @settings(max_examples=25, deadline=None)
    @given(epoch_streams, st.permutations(range(4)))
    def test_sliding_window_state_order_independent(self, epochs, order):
        """Shard-merge order within an epoch cannot change store state:
        each epoch's evidence folds as one shard, as several shards in
        input order, or as several shards in a permuted order — the
        retained knowledge and ring shards come out identical."""
        reference = KnowledgeStore(REGIONS, retention="window:2")
        permuted = KnowledgeStore(REGIONS, retention="window:2")
        for epoch in epochs:
            reference.fold(partial_of(epoch))
            shards = [partial_of([sequence]) for sequence in epoch]
            for index in order:
                if index < len(shards):
                    permuted.fold(shards[index])
            # Sequences the permutation template missed (template is over
            # the max shard count) fold afterwards; merging is exact, so
            # any order must agree.
            for index in range(4, len(shards)):
                permuted.fold(shards[index])
            reference.roll()
            permuted.roll()
        assert permuted.knowledge == reference.knowledge
        assert [e.partial for e in permuted.epochs] == [
            e.partial for e in reference.epochs
        ]
        assert permuted.retained_epochs == reference.retained_epochs

    def test_ttl_retention_uses_data_time(self):
        corpus = [
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                    )
                ],
            )
        ]
        store = KnowledgeStore(
            REGIONS, retention=SlidingWindow(ttl_seconds=100.0)
        )
        store.fold(partial_of(corpus), start=0.0, end=50.0)
        store.roll(now=50.0)
        assert store.retained_epochs == 1
        # Same epoch, seen from 200s of data time later: expired.
        store.fold(partial_of(corpus), start=240.0, end=250.0)
        store.roll(now=250.0)
        assert store.retained_epochs == 1
        assert store.epochs_retired == 1
        assert store.knowledge == knowledge_of(corpus)
        # roll(now=None) falls back to the newest folded timestamp.
        store.fold(partial_of(corpus), start=500.0, end=600.0)
        store.roll()
        assert store.epochs_retired == 2

    def test_decay_halves_after_half_life(self):
        walk = MobilitySemanticsSequence(
            "dev",
            [
                MobilitySemantic(
                    EVENT_PASS_BY, REGIONS[0], REGIONS[0], TimeRange(0, 30)
                ),
                MobilitySemantic(
                    EVENT_PASS_BY, REGIONS[1], REGIONS[1], TimeRange(40, 70)
                ),
            ],
        )
        store = KnowledgeStore(REGIONS, retention=ExponentialDecay(2.0))
        store.fold(partial_of([walk]))
        store.roll()
        store.roll()
        decayed = store.knowledge.transition_count(REGIONS[0], REGIONS[1])
        assert decayed == pytest.approx(0.5)
        assert store.knowledge.sequences_seen == pytest.approx(0.5)
        # Fresh evidence folds in at full weight on top of the decayed.
        store.fold(partial_of([walk]))
        assert store.knowledge.transition_count(
            REGIONS[0], REGIONS[1]
        ) == pytest.approx(1.5)
        assert 0.0 < store.knowledge.transition_probability(
            REGIONS[0], REGIONS[1]
        ) < 1.0

    def test_decay_prunes_vanishing_weights(self):
        walk = MobilitySemanticsSequence(
            "dev",
            [
                MobilitySemantic(
                    EVENT_PASS_BY, REGIONS[0], REGIONS[0], TimeRange(0, 30)
                ),
                MobilitySemantic(
                    EVENT_PASS_BY, REGIONS[1], REGIONS[1], TimeRange(40, 70)
                ),
            ],
        )
        store = KnowledgeStore(REGIONS, retention=ExponentialDecay(1.0))
        store.fold(partial_of([walk]))
        for _ in range(40):  # 2**-40 < the prune threshold
            store.roll()
        assert store.knowledge.transition_count(REGIONS[0], REGIONS[1]) == 0

    def test_newest_timestamp_is_a_monotone_watermark(self):
        """Regression: the data-time "present" that TTL retention
        measures against must never move backwards (or vanish) because
        retention retired the newest timestamped epoch.  Under a
        combined ``window:1+Ts`` policy the count bound does exactly
        that, and late-arriving stale evidence must still expire
        against the true watermark."""
        corpus = [
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                    )
                ],
            )
        ]
        store = KnowledgeStore(
            REGIONS,
            retention=SlidingWindow(max_epochs=1, ttl_seconds=100.0),
        )
        store.fold(partial_of(corpus), start=990.0, end=1000.0)
        store.roll()
        assert store.newest_timestamp == 1000.0
        # A quiet roll: the count bound retires the only timestamped
        # epoch (and TTL drops the timestamp-less quiet one); the
        # watermark must survive both retirements.
        store.roll()
        assert store.retained_epochs == 0
        assert store.newest_timestamp == 1000.0
        # Stale evidence (older than 1000 - 100s) expires against the
        # watermark even though no retained epoch carries a timestamp.
        store.fold(partial_of(corpus), start=700.0, end=800.0)
        retired = store.roll()
        assert any(epoch.end == 800.0 for epoch in retired)
        assert store.knowledge == MobilityKnowledge(regions=list(REGIONS))
        # The watermark itself never regresses under older folds.
        assert store.newest_timestamp == 1000.0

    def test_retire_unknown_epoch_raises(self):
        from repro.knowledge import Epoch

        store = KnowledgeStore(REGIONS, retention="window:2")
        foreign = Epoch(index=99, partial=PartialKnowledge(regions=REGIONS))
        with pytest.raises(InferenceError):
            store.retire(foreign)

    def test_to_partial_merges_across_stores(self):
        corpus = [
            MobilitySemanticsSequence(
                "dev",
                [
                    MobilitySemantic(
                        EVENT_STAY, REGIONS[0], REGIONS[0], TimeRange(0, 60)
                    )
                ],
            )
        ]
        east = KnowledgeStore(REGIONS)
        west = KnowledgeStore(REGIONS)
        east.fold(partial_of(corpus))
        west.fold(partial_of(corpus))
        merged = MobilityKnowledge(regions=list(REGIONS))
        merged.fold(east.to_partial())
        merged.fold(west.to_partial())
        assert merged == knowledge_of(corpus, corpus)


# ----------------------------------------------------------------------
# Retention specs
# ----------------------------------------------------------------------
class TestParseRetention:
    @pytest.mark.parametrize(
        ("spec", "kind"),
        [
            (None, Unbounded),
            ("unbounded", Unbounded),
            ("window:4", SlidingWindow),
            ("window:300s", SlidingWindow),
            ("decay:8", ExponentialDecay),
            ("DECAY:0.5", ExponentialDecay),
        ],
    )
    def test_valid_specs(self, spec, kind):
        policy = parse_retention(spec)
        assert isinstance(policy, kind)
        assert isinstance(policy, RetentionPolicy)
        # A policy instance passes through untouched.
        assert parse_retention(policy) is policy

    def test_window_spec_arguments(self):
        assert parse_retention("window:4").max_epochs == 4
        assert parse_retention("window:300s").ttl_seconds == 300.0
        assert parse_retention("decay:8").half_life == 8.0

    @pytest.mark.parametrize(
        "spec",
        [
            "window", "window:", "window:x", "window:0", "window:-1s",
            "window:nans", "window:infs", "decay:", "decay:nope",
            "decay:0", "decay:nan", "decay:inf", "ttl:4", 42,
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_retention(spec)

    @pytest.mark.parametrize(
        "spec", ["window:1_0", "decay:1_0", "window:1_0s", "window: 10"]
    )
    def test_python_numeric_literal_syntax_rejected(self, spec):
        """Regression: ``int``/``float`` accept underscore separators
        and padding ("1_0" parses as 10), so ``window:1_0`` used to be
        silently accepted as ``window:10``.  A config surface must only
        take canonical digit strings, and the error must name the
        offending spec."""
        with pytest.raises(ConfigError) as excinfo:
            parse_retention(spec)
        assert repr(spec) in str(excinfo.value)

    def test_sliding_window_needs_a_bound(self):
        with pytest.raises(ConfigError):
            SlidingWindow()

    def test_config_error_is_a_value_error(self):
        """Callers outside the TRIPS hierarchy (argparse handlers,
        config loaders) can catch the builtin."""
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, Exception)

    @pytest.mark.parametrize(
        "spec",
        ["window:0", "window:-2", "window:0s", "decay:-1", "decay:0"],
    )
    def test_malformed_specs_raise_clean_value_errors(self, spec):
        """A malformed spec is a plain bad value: it raises a ValueError
        whose message names the offending spec — a clean error, not a
        traceback through the policy constructors."""
        with pytest.raises(ValueError) as excinfo:
            parse_retention(spec)
        message = str(excinfo.value)
        assert spec in message or repr(spec) in message

    def test_malformed_spec_message_explains_the_bound(self):
        with pytest.raises(ValueError, match="max_epochs must be >= 1"):
            parse_retention("window:0")
        with pytest.raises(ValueError, match="finite and positive"):
            parse_retention("decay:-1")

    def test_policy_names(self):
        assert parse_retention("window:4").name == "window:4"
        assert parse_retention("window:300s").name == "window:300s"
        assert parse_retention("decay:8").name == "decay:8"
        assert Unbounded().name == "unbounded"


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def shop_records(prefix: str = "", start: float = 0.0):
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


def shop_windows(window_seconds: float = 60.0):
    from repro.positioning import PositioningSequence

    return [
        PositioningSequence.group_records(window)
        for window in windowed_records(
            RecordStream(iter(shop_records())), window_seconds
        )
    ]


class TestEngineStores:
    def test_make_store_takes_its_retention(self):
        """``make_store()`` folds forever; a spec picks the policy."""
        engine = Engine(Translator(make_two_shop_dsm()))
        assert isinstance(engine.make_store().retention, Unbounded)
        store = engine.make_store(retention="window:3")
        assert isinstance(store.retention, SlidingWindow)
        assert store.retention.max_epochs == 3
        override = engine.make_store(retention="decay:2")
        assert isinstance(override.retention, ExponentialDecay)
        with pytest.raises(ConfigError):
            engine.make_store(retention="window:zero")

    def test_make_store_none_when_knowledge_disabled(self):
        from repro.core import TranslatorConfig

        translator = Translator(
            make_two_shop_dsm(),
            config=TranslatorConfig(enable_complementing=False),
        )
        assert Engine(translator).make_store() is None

    def test_increment_rejects_knowledge_and_store_together(self):
        engine = Engine(Translator(make_two_shop_dsm()))
        store = engine.make_store()
        with pytest.raises(TypeError):
            engine.translate_increment(
                [], MobilityKnowledge(regions=["r"]), store=store
            )
        with pytest.raises(TypeError):
            engine.translate_increment([])  # the store is not optional

    def test_store_path_equals_legacy_path_under_unbounded(self):
        """Folding through a store reproduces the pre-store behaviour —
        one bare knowledge object, every window's shard folded into it
        forever — bit for bit, against the object-model reference."""
        windows = shop_windows()
        translator = Translator(make_two_shop_dsm())
        engine = Engine(translator, EngineConfig(chunk_size=2))
        store = engine.make_store()
        regions = translator.knowledge_regions()
        knowledge = MobilityKnowledge(
            regions=regions, smoothing=translator.config.knowledge_smoothing
        )
        for window in windows:
            knowledge.fold(
                PartialKnowledge.from_sequences(
                    run_phase_one_chunk(translator, window).annotated,
                    regions,
                )
            )
            engine.translate_increment(window, store=store)
            store.roll()
        assert store.knowledge == knowledge
        assert store.retained_epochs == len(windows)

    def test_windowed_store_equals_increment_over_recent_windows(self):
        """A window:N store equals a fresh unbounded fold over only the
        last N windows — through the full engine path."""
        windows = shop_windows()
        assert len(windows) > 2
        engine = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        )
        store = engine.make_store(retention="window:2")
        for window in windows:
            engine.translate_increment(window, store=store)
            store.roll()
        recent = engine.make_store(retention="unbounded")
        for window in windows[-2:]:
            engine.translate_increment(window, store=recent)
        assert store.knowledge == recent.knowledge


# ----------------------------------------------------------------------
# Live service lifecycle
# ----------------------------------------------------------------------
class TestLiveLifecycle:
    def venue(self):
        return {"east": Translator(make_two_shop_dsm())}

    def run(self, engine_config=None, live_config=None, retention=None):
        service = LiveTranslationService(
            self.venue(),
            engine_config or EngineConfig(chunk_size=2),
            live_config or LiveConfig(window_seconds=60.0),
            retention=retention,
        )
        with service:
            service.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            return service, service.finalize()

    def test_sliding_window_service_knowledge_is_recent_only(self):
        service, _ = self.run(retention="window:2")
        store = service.store("east")
        assert store.retained_epochs == 2
        assert store.epochs_retired == service.stats.windows - 2
        # The retained knowledge equals an unbounded fold of only the
        # last two windows' sequences — exact, through the full service.
        windows = shop_windows()
        engine = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        )
        recent = engine.make_store(retention="unbounded")
        for window in windows[-2:]:
            engine.translate_increment(window, store=recent)
        reference = recent.knowledge
        assert store.knowledge == reference
        stats = service.stats.venues["east"]
        assert stats.retained_epochs == 2
        assert stats.knowledge_sequences == reference.sequences_seen

    def test_per_venue_retention_map(self):
        service, _ = self.run(retention={"east": "decay:2"})
        assert isinstance(
            service.store("east").retention, ExponentialDecay
        )
        assert 0 < service.knowledge("east").sequences_seen < (
            service.stats.venues["east"].sequences
        )

    def test_retention_map_rejects_unknown_venue(self):
        with pytest.raises(ConfigError):
            LiveTranslationService(
                self.venue(), retention={"west": "window:2"}
            )
        with pytest.raises(ConfigError):
            LiveTranslationService(self.venue(), retention="window:nope")

    def test_unbounded_default_still_matches_batch(self):
        """The PR 3 acceptance invariant survives the store refactor."""
        from repro.positioning import sequence_stream

        service, finalized = self.run()
        sequences = list(
            sequence_stream(RecordStream(iter(shop_records())), 60.0)
        )
        reference = Engine(
            Translator(make_two_shop_dsm()), EngineConfig(chunk_size=2)
        ).translate_batch(sequences)
        assert finalized["east"].results == reference.results
        assert finalized["east"].knowledge == reference.knowledge
        assert service.store("east").retained_epochs == service.stats.windows

    def test_venue_translate_seconds_tracked_and_rendered(self):
        service, _ = self.run()
        stats = service.stats
        venue = stats.venues["east"]
        assert 0 < venue.translate_seconds <= stats.translate_seconds
        table = stats.format_table()
        assert "translate" in table
        assert "epochs" in table

    def test_adaptive_windowing_sets_per_venue_target(self):
        service = LiveTranslationService(
            self.venue(),
            EngineConfig(chunk_size=2),
            LiveConfig(window_seconds=60.0, adaptive_windowing=True),
        )
        with service:
            service.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
            target = service.stats.venues["east"].window_records_target
            assert target is not None and target >= 8
            assert service.window_bounds("east") == (60.0, target)
            # Unknown / unobserved venues keep the global bounds.
            assert service.window_bounds(None) == (60.0, None)
            service.finalize()  # adaptive replay still finalizes cleanly

    def test_adaptive_off_keeps_global_bounds(self):
        service, _ = self.run()
        assert service.window_bounds("east") == (60.0, None)
        assert (
            service.stats.venues["east"].window_records_target is None
        )

    def test_adaptive_respects_global_ceiling(self):
        service = LiveTranslationService(
            self.venue(),
            EngineConfig(chunk_size=2),
            LiveConfig(
                window_seconds=60.0,
                max_window_records=10,
                adaptive_windowing=True,
            ),
        )
        with service:
            service.run_stream(
                RecordStream(iter(shop_records())), venue_id="east"
            )
        assert service.stats.venues["east"].window_records_target <= 10

    def test_adaptive_serve_path(self):
        service = LiveTranslationService(
            self.venue(),
            EngineConfig(chunk_size=2),
            LiveConfig(window_seconds=60.0, adaptive_windowing=True),
        )
        with service:
            stats = service.serve(
                {"east": RecordStream(iter(shop_records()))}
            )
        assert stats.windows > 1
        assert stats.venues["east"].window_records_target is not None

