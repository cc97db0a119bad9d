"""One repetition of one workload, in a fresh interpreter.

The parent (``run.py``) spawns this once per repetition so peak RSS and
the process-wide memos never leak from one measurement into the next.
Three modes over the same generated files:

- ``run``        the real entry point, untraced, telemetry off;
- ``reference``  an independent computation of the same answer;
- ``redrive``    the layer-by-layer replay of ``trace.py``.

Each writes one JSON object to ``--out``; every mode reports the
``result_digest`` of what it produced.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the imports: they are set-up too

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path

from repro.config import build_translator, load_task, run_task, select_sequences
from repro.distributed import ShardedIngestService
from repro.durability import encode
from repro.engine import Engine, EngineConfig
from repro.live import LiveConfig, LiveTranslationService
from repro.positioning import RecordStream, sequence_stream

import trace as tracing
from workloads import (
    DURABLE_CRASH_AT,
    DURABLE_RETENTION,
    DURABLE_SNAPSHOT_INTERVAL,
    EXCHANGE_INTERVAL,
    SHARDS,
    WORKLOADS,
    task_paths,
)


def result_digest(finalized) -> str:
    """sha256 over every venue's device-ordered semantics and knowledge.

    Results are ordered by (device, first timestamp), so a sharded splice
    and a window-ordered batch digest alike; floats go in as ``hex()``,
    so equality is bit for bit.
    """
    digest = hashlib.sha256()
    for venue in sorted(finalized):
        batch = finalized[venue]
        ordered = sorted(
            batch.results,
            key=lambda r: (r.device_id, r.raw.records[0].timestamp),
        )
        for result in ordered:
            digest.update(result.device_id.encode())
            for semantic in result.semantics:
                digest.update(
                    repr(
                        (
                            semantic.region_id,
                            semantic.event,
                            float(semantic.time_range.start).hex(),
                            float(semantic.time_range.end).hex(),
                            semantic.inferred,
                        )
                    ).encode()
                )
        digest.update(
            json.dumps(encode(batch.knowledge), sort_keys=True).encode()
        )
    return digest.hexdigest()


def output_counts(finalized) -> dict:
    """Exact counts read off the finalized output."""
    results = [r for batch in finalized.values() for r in batch.results]
    complements = [r.complement for r in results if r.complement is not None]
    return {
        "semantics_out": sum(len(r.semantics) for r in results),
        "gaps_found": sum(c.gaps_found for c in complements),
        "gaps_filled": sum(c.gaps_filled for c in complements),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def load_feeds(tasks):
    """Translator and time-sorted record list per venue, as ``trips serve``
    builds them from task files."""
    translators, feeds = {}, {}
    for venue, path in tasks.items():
        task = load_task(path)
        translators[venue] = build_translator(task)
        feeds[venue] = sorted(
            (
                record
                for sequence in select_sequences(task)
                for record in sequence.records
            ),
            key=lambda record: (record.timestamp, record.device_id),
        )
    return translators, feeds


def crash_index(feed, window_seconds: float) -> int:
    """The first window boundary at or past the crash share of the feed."""
    stream = RecordStream(iter(feed))
    while stream.consumed < DURABLE_CRASH_AT * len(feed):
        if not stream.take_window(window_seconds):
            break
    return stream.consumed


def streams(feeds):
    return {venue: RecordStream(iter(feed)) for venue, feed in feeds.items()}


class Stamps:
    """``on_window`` callback recording when each window was emitted."""

    def __init__(self):
        self.times: list[float] = []

    def __call__(self, window) -> None:
        self.times.append(time.perf_counter())

    def intervals_ms(self) -> list[float]:
        return [
            (later - earlier) * 1e3
            for earlier, later in zip(self.times, self.times[1:])
        ]


def measurements(loaded, wall, records, ops, window_ms, **more) -> dict:
    """What every real run reports; ``loaded`` is when set-up ended."""
    return {
        "load_s": loaded - _STARTED,
        "wall_s": wall,
        "records": records,
        "ops": ops,
        "window_ms": window_ms,
        **more,
    }


# ----------------------------------------------------------------------
# The real entry points.  Each returns (finalized, measurements); the
# timed region is exactly what ``wall_s`` covers.
# ----------------------------------------------------------------------
def run_batch_mall(workload, tasks, work_dir):
    export_dir = work_dir / "export"
    export_dir.mkdir(exist_ok=True)
    loaded = time.perf_counter()
    batch = run_task(
        load_task(tasks["mall"]), engine=EngineConfig(backend="serial")
    )
    for index, result in enumerate(batch):
        result.export(export_dir / f"{index}-{result.device_id}.json")
    wall = time.perf_counter() - loaded
    # The whole feed is one window: its latency is the job's.
    return {"mall": batch}, measurements(
        loaded, wall, batch.total_records, len(batch), [wall * 1e3]
    )


def run_live_campus(workload, tasks, work_dir):
    translators, feeds = load_feeds(tasks)
    stamps = Stamps()
    service = LiveTranslationService(
        translators,
        EngineConfig(backend="serial"),
        LiveConfig(window_seconds=workload.window_seconds),
    )
    with service:
        loaded = time.perf_counter()
        stats = service.serve(streams(feeds), on_window=stamps)
        finalized = service.finalize()
        wall = time.perf_counter() - loaded
    return finalized, measurements(
        loaded, wall, stats.records, stats.windows, stamps.intervals_ms()
    )


def _durable_service(translators, window_seconds, state_dir):
    return LiveTranslationService(
        translators,
        EngineConfig(backend="serial"),
        LiveConfig(
            window_seconds=window_seconds,
            snapshot_interval=DURABLE_SNAPSHOT_INTERVAL,
        ),
        retention=DURABLE_RETENTION,
        state_dir=state_dir,
    )


def run_live_durable(workload, tasks, work_dir, journaled=True):
    """A service day with one crash: ingest, kill, recover, resume.

    ``journaled=False`` is the reference: the same feed through the same
    service with no state directory and no kill.
    """
    window_seconds = workload.window_seconds
    translators, feeds = load_feeds(tasks)
    (venue,) = feeds
    feed = feeds[venue]
    cut = crash_index(feed, window_seconds) if journaled else len(feed)
    state_dir = work_dir / "state" if journaled else None
    stamps = Stamps()
    service = _durable_service(translators, window_seconds, state_dir)
    service.open()
    loaded = time.perf_counter()
    service.run_stream(RecordStream(iter(feed[:cut])), venue, stamps)
    ingest = time.perf_counter() - loaded
    recovery = 0.0
    if journaled:
        service.close()  # no checkpoint: a kill at a window boundary
        closed = time.perf_counter()
        service = _durable_service(translators, window_seconds, state_dir)
        service.open()
        recovered = time.perf_counter()
        recovery = recovered - closed
        service.run_stream(RecordStream(iter(feed[cut:])), venue, stamps)
        ingest += time.perf_counter() - recovered
    finalized = service.finalize()
    wall = time.perf_counter() - loaded
    stats = service.stats
    service.close()
    return finalized, measurements(
        loaded, wall, stats.records, stats.windows, stamps.intervals_ms(),
        ingest_s=ingest, recovery_s=recovery,
    )


def run_sharded_procs(workload, tasks, work_dir):
    translators, feeds = load_feeds(tasks)
    stamps = Stamps()
    cluster = ShardedIngestService(
        translators,
        shards=SHARDS,
        engine_config=EngineConfig(backend="processes", workers=1),
        live_config=LiveConfig(
            window_seconds=workload.window_seconds,
            max_window_records=workload.max_window_records,
        ),
        exchange_interval=EXCHANGE_INTERVAL,
    )
    with cluster:
        loaded = time.perf_counter()
        stats = cluster.run_feeds(streams(feeds), on_window=stamps)
        finalized = cluster.finalize()
        wall = time.perf_counter() - loaded
    return finalized, measurements(
        loaded, wall, stats.records, stats.windows, stamps.intervals_ms()
    )


RUNNERS = {
    "batch_mall": run_batch_mall,
    "live_campus": run_live_campus,
    "live_durable": run_live_durable,
    "sharded_procs": run_sharded_procs,
}


# ----------------------------------------------------------------------
# References: the same answer by another road.
# ----------------------------------------------------------------------
def reference(workload, tasks, work_dir):
    if workload.name == "batch_mall":
        task = load_task(tasks["mall"])
        batch = build_translator(task).translate_batch(select_sequences(task))
        return {"mall": batch}, {}
    if workload.name == "live_durable":
        return run_live_durable(workload, tasks, work_dir, journaled=False)
    translators, feeds = load_feeds(tasks)
    return {
        venue: Engine(translators[venue], EngineConfig()).translate_batch(
            list(
                sequence_stream(
                    RecordStream(iter(feed)),
                    workload.window_seconds,
                    workload.max_window_records,
                )
            )
        )
        for venue, feed in feeds.items()
    }, {}


# ----------------------------------------------------------------------
# The traced re-drive
# ----------------------------------------------------------------------
def redrive(workload, tasks, work_dir, spans: bool):
    from repro.telemetry import MetricsRegistry, use_registry

    ctx = tracing.Context(tracing.Tracer(enabled=spans))
    # The registry is on only to copy the memo counts it already keeps.
    registry = MetricsRegistry() if spans else None
    try:
        with use_registry(registry):
            if workload.name == "batch_mall":
                export_dir = work_dir / "export"
                export_dir.mkdir(exist_ok=True)
                loaded = time.perf_counter()
                finalized = tracing.redrive_batch(
                    ctx, tasks["mall"], export_dir
                )
            else:
                translators, feeds = load_feeds(tasks)
                loaded = time.perf_counter()
                if workload.name == "sharded_procs":
                    finalized = tracing.redrive_sharded(
                        ctx, translators, feeds, workload.window_seconds,
                        workload.max_window_records, SHARDS,
                        EXCHANGE_INTERVAL,
                    )
                elif workload.name == "live_durable":
                    (feed,) = feeds.values()
                    finalized = tracing.redrive_live(
                        ctx, translators, feeds, workload.window_seconds,
                        retention=DURABLE_RETENTION,
                        state_dir=work_dir / "state",
                        crash_index=crash_index(
                            feed, workload.window_seconds
                        ),
                    )
                else:
                    finalized = tracing.redrive_live(
                        ctx, translators, feeds, workload.window_seconds
                    )
            wall = time.perf_counter() - loaded
    except tracing.LayerMissing as exc:
        return None, {"unavailable": str(exc)}
    measured = {"wall_s": wall, "counts": dict(ctx.counts)}
    if ctx.skews:
        measured["shard_skew"] = sum(ctx.skews) / len(ctx.skews)
    if spans:
        measured["self_times"] = ctx.tracer.self_times()
        ctx.tracer.write(work_dir / "spans.json")
        for outcome in ("hits", "misses"):
            measured[f"memo_{outcome}"] = registry.counter(
                f"trips_inference_memo_{outcome}_total"
            ).value
    return finalized, measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--mode", required=True, choices=("run", "reference", "redrive")
    )
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", type=int, default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tasks = task_paths(workload, args.dir)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "run":
        finalized, measured = RUNNERS[workload.name](
            workload, tasks, args.work
        )
    elif args.mode == "reference":
        finalized, measured = reference(workload, tasks, args.work)
    else:
        finalized, measured = redrive(
            workload, tasks, args.work, bool(args.spans)
        )
    measured["rss_mb"] = peak_rss_mb()
    if finalized is not None:
        measured["digest"] = result_digest(finalized)
        measured.update(output_counts(finalized))
    args.out.write_text(json.dumps(measured), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
