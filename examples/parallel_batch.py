#!/usr/bin/env python
"""Parallel batch translation with the engine.

Simulates a mall crowd, then translates it two ways — the serial
Translator and the engine's process pool — verifying that both paths
produce identical mobility semantics and printing each run's per-phase
profile.  Then sets the engine's sharded knowledge barrier beside the
serial translator's rebuild, runs the streaming path — the same records
replayed through a RecordStream and translated without ever
materializing the full batch — and finishes by folding a late window's
PartialKnowledge into the existing knowledge incrementally.

Run:  python examples/parallel_batch.py
"""

from repro import (
    Engine,
    EngineConfig,
    MobilitySimulator,
    PartialKnowledge,
    Translator,
    build_mall,
)
from repro.buildings import MallConfig
from repro.positioning import RecordStream, sequence_stream
from repro.simulation import BROWSER, SHOPPER
from repro.timeutil import HOUR, TimeRange


def main() -> None:
    mall = build_mall(MallConfig(floors=3))
    simulator = MobilitySimulator(mall, seed=11)
    devices = simulator.simulate_population(
        count=16,
        profiles=[SHOPPER, BROWSER],
        window=TimeRange(10 * HOUR, 20 * HOUR),
        seed=11,
    )
    sequences = [device.raw for device in devices]
    total = sum(len(s) for s in sequences)
    print(f"{mall}: {len(sequences)} devices, {total} raw records")

    translator = Translator(mall)

    # Reference: the serial two-phase batch translation.
    serial = translator.translate_batch(sequences)
    print("\n[serial translator]")
    print(serial.stats.format_table())

    # The engine fans phase one/two out across a process pool and merges
    # results in input order — identical output, bounded by the hardware.
    engine = Engine(translator, EngineConfig(backend="processes", chunk_size=4))
    batch = engine.translate_batch(sequences)
    identical = batch.results == serial.results
    print(f"\n[engine backend=processes] identical to serial: {identical}")
    print(batch.stats.format_table())
    print(f"  throughput: {batch.records_per_second:,.0f} records/s")

    # The knowledge barrier: each engine phase-one worker emits its
    # chunk's PartialKnowledge, so the barrier only merges shard counts;
    # the serial translator re-observes every annotated sequence.  Both
    # produce byte-identical knowledge.
    print("\n[knowledge barrier]")
    rebuild = serial.stats.phase("knowledge").seconds
    sharded = batch.stats.phase("knowledge").seconds
    print(f"  serial rebuild  {rebuild * 1e3:7.2f} ms")
    print(
        f"  engine merge    {sharded * 1e3:7.2f} ms  "
        f"identical knowledge: {batch.knowledge == serial.knowledge}"
    )

    # Streaming ingestion: replay the records as a live feed and translate
    # it chunk by chunk, without materializing the batch up front.
    records = sorted(
        (record for sequence in sequences for record in sequence.records),
        key=lambda record: record.timestamp,
    )
    stream = RecordStream(iter(records))
    engine = Engine(translator, EngineConfig(chunk_size=4))
    streamed = engine.translate_stream(
        sequence_stream(stream, window_seconds=2 * HOUR)
    )
    print(
        f"\n[streaming] {stream.consumed} records consumed -> "
        f"{len(streamed)} windowed sequences, "
        f"{streamed.total_semantics} semantics triplets"
    )

    # Incremental updates: a long-running engine can fold a new window's
    # PartialKnowledge into existing knowledge instead of rebuilding.
    knowledge = streamed.knowledge
    late = simulator.simulate_population(count=4, seed=99)
    late_annotated = [
        translator.clean_and_annotate(device.raw)[1].sequence
        for device in late
    ]
    window_shard = PartialKnowledge.from_sequences(
        late_annotated, [r.region_id for r in mall.regions()]
    )
    before = knowledge.sequences_seen
    knowledge.fold(window_shard)
    print(
        f"[incremental] folded a {window_shard.sequences_seen}-sequence "
        f"window into existing knowledge "
        f"({before} -> {knowledge.sequences_seen} sequences seen)"
    )


if __name__ == "__main__":
    main()
