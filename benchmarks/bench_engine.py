"""Engine — serial-vs-parallel batch translation throughput.

The ROADMAP north star is a backend that serves millions of users as fast
as the hardware allows; the engine's claim is that two of the three batch
phases are embarrassingly parallel.  This bench translates the mall,
airport and office populations through every execution backend and
reports per-backend throughput plus speedup over the serial reference
(read from each run's own ``BatchTranslationResult``, so the numbers work
with or without ``--benchmark-only``).

Expected shape on an N-core machine: ``processes`` approaching N× on
large batches once the pool fork + translator pickling is amortized.

Every run is asserted identical to the serial ``Translator.translate_batch``
reference first; how fast the pipeline is end to end is the ledger's
question (``benchmarks/e2e``), not this bench's.
"""

from __future__ import annotations

import pytest

from repro.buildings import build_airport, build_office
from repro.core import Translator
from repro.engine import BACKENDS, Engine, EngineConfig
from repro.simulation import (
    BROWSER,
    SHOPPER,
    TRAVELER,
    WORKER,
    MobilitySimulator,
)
from repro.timeutil import HOUR, TimeRange

from .conftest import BENCH_SEEDS, print_table

ALL_BACKENDS = sorted(BACKENDS)
_ROWS: list[list] = []
_SERIAL_SECONDS: dict[str, float] = {}


def _population(model, profiles, count, seed):
    simulator = MobilitySimulator(model, seed=seed)
    return [
        device.raw
        for device in simulator.simulate_population(
            count=count,
            profiles=profiles,
            window=TimeRange(9 * HOUR, 19 * HOUR),
            seed=seed,
        )
    ]


@pytest.fixture(scope="module")
def venues(mall3):
    """(translator, sequences, serial reference) for the three demo venues.

    The serial reference batch is computed once per venue here, not once
    per backend test, so the smoke run does no redundant baseline work.
    """
    return {
        "mall": _venue(
            Translator(mall3),
            _population(
                mall3, [SHOPPER, BROWSER], 16, BENCH_SEEDS["engine-mall"]
            ),
        ),
        "airport": _venue(
            *_translator_and_population(
                build_airport(gate_count=6), [TRAVELER], 12,
                BENCH_SEEDS["engine-airport"],
            )
        ),
        "office": _venue(
            *_translator_and_population(
                build_office(floors=2), [WORKER], 12,
                BENCH_SEEDS["engine-office"],
            )
        ),
    }


def _translator_and_population(model, profiles, count, seed):
    return Translator(model), _population(model, profiles, count, seed)


def _venue(translator, sequences):
    return translator, sequences, translator.translate_batch(sequences)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("venue", ["mall", "airport", "office"])
def test_engine_throughput(benchmark, venues, venue, backend):
    translator, sequences, serial = venues[venue]
    engine = Engine(
        translator, EngineConfig(backend=backend, workers=None, chunk_size=2)
    )

    batch = benchmark.pedantic(
        lambda: engine.translate_batch(sequences), rounds=2, iterations=1
    )

    # Correctness first: parallel output must be identical to serial.
    assert batch.results == serial.results
    assert batch.knowledge == serial.knowledge

    key = venue
    if backend == "serial":
        _SERIAL_SECONDS[key] = batch.elapsed_seconds
    baseline = _SERIAL_SECONDS.get(key, serial.elapsed_seconds)
    speedup = baseline / batch.elapsed_seconds if batch.elapsed_seconds else 0.0
    _ROWS.append(
        [
            venue,
            backend,
            batch.stats.workers,
            len(batch),
            batch.total_records,
            f"{batch.elapsed_seconds:.2f} s",
            f"{batch.records_per_second:,.0f} rec/s",
            f"{speedup:.2f}x",
        ]
    )


def teardown_module(module) -> None:
    print_table(
        "Engine: serial vs parallel batch translation",
        ["venue", "backend", "workers", "devices", "records", "time",
         "throughput", "vs serial"],
        _ROWS,
    )
