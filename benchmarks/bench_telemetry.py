"""Telemetry — enabled overhead per window, and the near-free null path.

Telemetry must be cheap enough to leave on: the instruments on the live
window path are a handful of dict lookups and lock-guarded integer adds
per window, against milliseconds of translation.  This bench replays the
mall population through the live service with telemetry disabled and
enabled, once each per round, and gates the **median of the per-round
enabled/disabled ratios** at **3% per window**.  The two replays of a
round run back to back, and which one runs first alternates, so a slow
spell on a shared host lands on both sides of a ratio instead of on one
side's minimum.  Each enabled round also re-checks exactness neutrality:
the finalized output must equal the disabled round's bit for bit.

The disabled path is gated separately: a guarded instrumentation site
(`if registry.enabled:` on a :class:`~repro.telemetry.NullRegistry`)
and an unguarded null-instrument update must both cost well under a
microsecond per operation.

The run also writes a JSON summary (``TRIPS_BENCH_TELEMETRY_JSON`` env
var, default ``BENCH_telemetry.json`` in the working directory) so CI
can archive the numbers and trend the overhead across commits.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import Translator
from repro.engine import EngineConfig
from repro.live import LiveConfig, LiveTranslationService
from repro.positioning import RecordStream, windowed_records
from repro.simulation import BROWSER, SHOPPER, MobilitySimulator
from repro.telemetry import MetricsRegistry, NullRegistry, use_registry
from repro.timeutil import HOUR, TimeRange

from .conftest import print_table, write_bench_json

WINDOW_SECONDS = 1800.0
#: Disabled/enabled measurement rounds; the median per-round ratio gates.
ROUNDS = 61
#: The acceptance ceiling: enabled telemetry may cost at most 3% per
#: window over the disabled path.
MAX_ENABLED_OVERHEAD = 0.03
#: Ceiling for one guarded (or null-instrument) operation on the
#: disabled path — generous for slow CI runners; typical cost is tens
#: of nanoseconds.
MAX_NULL_OP_SECONDS = 2e-6

_ROWS: list[list] = []
_SUMMARY: dict = {}


@pytest.fixture(scope="module")
def feed(mall3):
    """(translator, windowed mall records) — the live window workload."""
    simulator = MobilitySimulator(mall3, seed=83)
    devices = simulator.simulate_population(
        count=12,
        profiles=[SHOPPER, BROWSER],
        window=TimeRange(9 * HOUR, 19 * HOUR),
        seed=83,
    )
    records = sorted(
        (record for device in devices for record in device.raw),
        key=lambda record: (record.timestamp, record.device_id),
    )
    windows = list(
        windowed_records(RecordStream(iter(records)), WINDOW_SECONDS)
    )
    assert len(windows) > 3
    return Translator(mall3), windows


def _replay(translator, windows):
    """One full live replay; returns (seconds, finalized batch)."""
    service = LiveTranslationService(
        {"mall": translator},
        EngineConfig(chunk_size=4),
        LiveConfig(window_seconds=WINDOW_SECONDS),
    )
    with service:
        started = time.perf_counter()
        for window in windows:
            service.process_window(window, "mall")
        elapsed = time.perf_counter() - started
        finalized = service.finalize()["mall"]
    return elapsed, finalized


def test_enabled_overhead_per_window(feed):
    translator, windows = feed
    _replay(translator, windows)  # warm caches before measuring anything

    def enabled_replay():
        with use_registry(MetricsRegistry()) as registry:
            seconds, instrumented = _replay(translator, windows)
            # The registry really was live.
            assert registry.counter("trips_live_windows_total").value == len(
                windows
            )
        return seconds, instrumented

    disabled_times: list[float] = []
    enabled_times: list[float] = []
    for round_index in range(ROUNDS):
        if round_index % 2:
            enabled_seconds, instrumented = enabled_replay()
            disabled_seconds, reference = _replay(translator, windows)
        else:
            disabled_seconds, reference = _replay(translator, windows)
            enabled_seconds, instrumented = enabled_replay()
        # ... and it really was neutral.
        assert instrumented.results == reference.results
        assert instrumented.knowledge == reference.knowledge
        disabled_times.append(disabled_seconds)
        enabled_times.append(enabled_seconds)

    ratios = sorted(e / d for e, d in zip(enabled_times, disabled_times))
    overhead = statistics.median(ratios) - 1.0
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    per_window_us = 1e6 * overhead * disabled / len(windows)

    _ROWS.append(
        [
            len(windows),
            f"{1e3 * disabled / len(windows):.2f} ms/win",
            f"{1e3 * enabled / len(windows):.2f} ms/win",
            f"{overhead * 100:+.2f}%",
            f"{per_window_us:+.0f} us/win",
        ]
    )
    _SUMMARY["enabled_overhead"] = {
        "windows": len(windows),
        "rounds": ROUNDS,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "round_ratios": ratios,
        "overhead_fraction": overhead,
        "overhead_us_per_window": per_window_us,
        "max_overhead_fraction": MAX_ENABLED_OVERHEAD,
        "identical_output": True,
    }

    assert overhead <= MAX_ENABLED_OVERHEAD, (
        f"enabled telemetry costs {overhead * 100:.2f}% per window "
        f"(ceiling {MAX_ENABLED_OVERHEAD * 100:.0f}%)"
    )


def test_disabled_path_is_near_free():
    """The null path: one attribute check (guarded site) or one no-op
    method call (unguarded site) per would-be observation."""
    registry = NullRegistry()
    iterations = 200_000

    started = time.perf_counter()
    for _ in range(iterations):
        if registry.enabled:  # the hot-path guard pattern
            registry.counter("c", venue="mall").inc()
    guarded = (time.perf_counter() - started) / iterations

    counter = registry.counter("trips_live_windows_total")
    histogram = registry.histogram("trips_live_window_seconds")
    started = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
        histogram.observe(0.5)
    unguarded = (time.perf_counter() - started) / (2 * iterations)

    started = time.perf_counter()
    for _ in range(iterations // 10):
        with registry.trace("live_window", venue="mall"):
            pass
    traced = (time.perf_counter() - started) / (iterations // 10)

    _SUMMARY["null_path"] = {
        "guarded_op_seconds": guarded,
        "null_instrument_op_seconds": unguarded,
        "null_trace_seconds": traced,
        "max_op_seconds": MAX_NULL_OP_SECONDS,
    }
    assert guarded < MAX_NULL_OP_SECONDS
    assert unguarded < MAX_NULL_OP_SECONDS
    assert traced < MAX_NULL_OP_SECONDS


def teardown_module(module) -> None:
    print_table(
        "Telemetry: enabled overhead per live window (median ratio of "
        f"{ROUNDS} rounds)",
        ["windows", "disabled (median)", "enabled (median)", "overhead", "delta"],
        _ROWS,
    )
    null = _SUMMARY.get("null_path")
    if null:
        print(
            f"null path: guarded {null['guarded_op_seconds'] * 1e9:.0f} ns"
            f", instrument {null['null_instrument_op_seconds'] * 1e9:.0f} ns"
            f", trace {null['null_trace_seconds'] * 1e9:.0f} ns per op"
        )
    if _SUMMARY:
        out = write_bench_json(
            "TRIPS_BENCH_TELEMETRY_JSON",
            "BENCH_telemetry.json",
            {"bench": "telemetry", **_SUMMARY},
        )
        print(f"wrote telemetry bench summary to {out}")
