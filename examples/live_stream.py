#!/usr/bin/env python
"""Live streaming translation: windowed ingestion + multi-building dispatch.

Simulates a day of traffic at two buildings — a mall crowd and an office
workforce — replays both as timestamp-ordered positioning feeds, and
serves them through one LiveTranslationService instance: the window
driver cuts each feed into 30-minute windows, round-robin across the
feeds on the calling thread, the serial engine translates each
window, and every window's PartialKnowledge shard folds into that venue's
long-running knowledge — no rebuilds.

After the feeds drain, finalize() re-complements every retained window
against the final knowledge and the script verifies the headline
invariant: the finalized live output is *identical* — result for result,
knowledge bit for bit — to a one-shot Engine.translate_batch over the
same windowed sequences.  Finally a ViewerSession is built straight from
the accumulated live results of one device.

The last section demonstrates the knowledge lifecycle (repro.knowledge):
the same mall feed replayed under each retention spec named on the
command line — every ingestion window is one epoch; sliding-window specs
*subtract* expired epochs out of the prior by the shard algebra's exact
inverse, decay specs fade old evidence instead.  Each spec is parsed and
echoed back as its policy object, so the run doubles as documentation of
the spec grammar; any count-bounded window prior is verified bit-for-bit
equal to a fresh fold over only the retained windows: retiring an epoch
is exactly never having folded it.

Run:  python examples/live_stream.py [RETENTION ...]

where each RETENTION is a spec from the grammar understood by
repro.knowledge.parse_retention:

    unbounded          fold forever (default)
    window:N           keep the newest N epochs
    window:Ns          keep epochs newer than N seconds of data time
    decay:H            halve old evidence every H epoch rolls

Defaults to "unbounded window:4 decay:4" when none are given.

With --state-dir PATH the service journals durable state (snapshot +
write-ahead log) under PATH, and a rerun over the same directory
*resumes*: it replays the journal, skips the records already absorbed,
and finishes the feeds — the finalized output still matches the
one-shot batch bit for bit.  --crash-after-windows N SIGKILLs the
process after N windows (no cleanup, no atexit) to demonstrate exactly
that: crash mid-feed, rerun, same answer.
"""

import argparse
import os
import signal
import sys

from repro import (
    Engine,
    EngineConfig,
    LiveConfig,
    LiveTranslationService,
    MobilitySimulator,
    Translator,
    build_mall,
    build_office,
)
from repro.buildings import MallConfig
from repro.positioning import RecordStream, sequence_stream
from repro.simulation import BROWSER, SHOPPER, WORKER
from repro.timeutil import HOUR, TimeRange

WINDOW_SECONDS = 30 * 60.0


def simulate_feed(model, profiles, count, seed):
    """A day of one building's traffic as a time-sorted record feed."""
    simulator = MobilitySimulator(model, seed=seed)
    devices = simulator.simulate_population(
        count=count,
        profiles=profiles,
        window=TimeRange(9 * HOUR, 19 * HOUR),
        seed=seed,
    )
    records = sorted(
        (record for device in devices for record in device.raw),
        key=lambda record: (record.timestamp, record.device_id),
    )
    return records


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="live streaming translation demo",
    )
    parser.add_argument(
        "retention",
        nargs="*",
        default=["unbounded", "window:4", "decay:4"],
        help="retention specs for the lifecycle comparison "
        "(default: unbounded window:4 decay:4)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="journal durable state under this directory; a rerun over "
        "the same directory resumes where the last run stopped",
    )
    parser.add_argument(
        "--crash-after-windows",
        type=int,
        default=None,
        metavar="N",
        help="SIGKILL this process after N windows (requires "
        "--state-dir; rerun to resume from the journal)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=4,
        metavar="WINDOWS",
        help="checkpoint cadence when journaling (default: 4)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="enable telemetry and serve Prometheus text at /metrics "
        "(JSON at /metrics.json) on this port while the feeds run "
        "(0 picks a free port)",
    )
    parser.add_argument(
        "--telemetry-dump",
        default=None,
        metavar="PATH",
        help="enable telemetry and write the end-of-run metrics "
        "snapshot to this JSON file",
    )
    args = parser.parse_args(argv)
    if args.crash_after_windows is not None and args.state_dir is None:
        parser.error("--crash-after-windows requires --state-dir")
    return args


def main() -> None:
    args = parse_args()

    # Telemetry is opt-in: without either flag the process keeps the
    # near-free NullRegistry.  The SIGKILL crash path never reaches the
    # dump below — by design; the metrics endpoint is how a monitored
    # run is observed up to the instant it dies.
    metrics_server = None
    if args.metrics_port is not None or args.telemetry_dump is not None:
        from repro.telemetry import MetricsRegistry, MetricsServer, set_registry

        registry = MetricsRegistry()
        set_registry(registry)
        if args.metrics_port is not None:
            metrics_server = MetricsServer(
                registry, port=args.metrics_port
            ).start()
            print(
                f"[metrics] http://127.0.0.1:{metrics_server.port}/metrics"
            )
            sys.stdout.flush()

    mall = build_mall(MallConfig(floors=3))
    office = build_office(floors=2)
    feeds = {
        "mall": simulate_feed(mall, [SHOPPER, BROWSER], 10, 21),
        "office": simulate_feed(office, [WORKER], 8, 22),
    }
    translators = {"mall": Translator(mall), "office": Translator(office)}
    for venue, records in feeds.items():
        print(f"{venue}: {len(records)} records")

    # One service, one engine, two buildings.  Tagged feeds
    # skip per-record routing; a mixed feed would route by the
    # "<venue>:<device>" id prefix (see repro.live.dispatch).
    service = LiveTranslationService(
        translators,
        EngineConfig(chunk_size=4),
        LiveConfig(
            window_seconds=WINDOW_SECONDS,
            snapshot_interval=args.snapshot_interval,
        ),
        state_dir=args.state_dir,
    )

    def narrate(window) -> None:
        venues = ", ".join(
            f"{vid}: {len(batch)} seq" for vid, batch in sorted(window.venues.items())
        )
        print(
            f"  window {window.index:3d}  {window.records:5d} records  "
            f"[{venues}]"
        )
        # The journal entry for this window is already flushed when the
        # callback fires, so a SIGKILL here models the harshest crash a
        # resume must survive: no close(), no atexit, mid-feed.
        if (
            args.crash_after_windows is not None
            and window.index + 1 >= args.crash_after_windows
        ):
            print(f"  [crashing after window {window.index} via SIGKILL]")
            sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    with service:
        # A recovered service already absorbed a prefix of each feed;
        # the feeds are deterministic, so skipping exactly the journaled
        # record counts resumes at the crashed run's window boundary.
        recovered = service.stats
        if recovered.windows:
            print(
                f"\n[resumed from {args.state_dir}: "
                f"{recovered.windows} windows, "
                f"{recovered.records} records already journaled]"
            )
        skip = {
            vid: state.records
            for vid, state in recovered.venues.items()
        }
        print("\n[serving both feeds, one window per feed per pass]")
        stats = service.serve(
            {
                vid: RecordStream(iter(records[skip.get(vid, 0):]))
                for vid, records in feeds.items()
            },
            on_window=narrate,
        )
        print("\n[cumulative live stats]")
        print(stats.format_table())

        # Per-window emissions complemented against knowledge-as-of-window
        # are the live view; finalize() consolidates against the *final*
        # folded knowledge.
        finalized = service.finalize()

        # The headline invariant: replaying the finite stream reproduced
        # the one-shot batch exactly.
        print("\n[live vs one-shot batch]")
        for venue, batch in sorted(finalized.items()):
            sequences = list(
                sequence_stream(
                    RecordStream(iter(feeds[venue])), WINDOW_SECONDS
                )
            )
            reference = Engine(
                translators[venue], EngineConfig(chunk_size=4)
            ).translate_batch(sequences)
            identical = (
                batch.results == reference.results
                and batch.knowledge == reference.knowledge
            )
            print(
                f"  {venue:<8} {len(batch)} sequences, "
                f"{batch.total_semantics} semantics, knowledge over "
                f"{batch.knowledge.sequences_seen} sequences — "
                f"identical to batch: {identical}"
            )

        # The Viewer browses a device's full history straight from the
        # accumulating live results (windows stitched back together).
        device_id = finalized["mall"].results[0].device_id
        session = service.viewer_session("mall", device_id)
        frames = session.animate(step_seconds=15 * 60.0)
        print(
            f"\n[viewer] {device_id}: merged "
            f"{sum(1 for r in service.results('mall') if r.device_id == device_id)}"
            f" windows -> {len(session.result.semantics)} semantics, "
            f"{len(frames)} animation frames"
        )

    # ------------------------------------------------------------------
    # Knowledge retention: the prior tracks *recent* mobility
    # ------------------------------------------------------------------
    # An unbounded prior folds forever — fine for a finite replay, but a
    # venue that runs for months drifts away from current behaviour.
    # Retention policies bound what the prior remembers; each ingestion
    # window is one epoch.  The specs come from the command line (see
    # the module docstring for the grammar) and are echoed back parsed,
    # so the output documents what each spec means.
    from repro.knowledge import SlidingWindow, parse_retention

    specs = args.retention
    policies = {spec: parse_retention(spec) for spec in specs}
    print(f"\n[knowledge retention: {' vs '.join(specs)}]")
    for spec, policy in policies.items():
        print(f"  spec {spec!r} parses to {policy!r}")
    runs = {}
    for retention in specs:
        aged = LiveTranslationService(
            {"mall": Translator(mall)},
            EngineConfig(chunk_size=4),
            LiveConfig(window_seconds=WINDOW_SECONDS),
            retention=retention,
        )
        with aged:
            aged.run_stream(
                RecordStream(iter(feeds["mall"])), venue_id="mall"
            )
            store = aged.store("mall")
            runs[retention] = store
            print(
                f"  {retention:<10} knowledge over "
                f"{store.knowledge.sequences_seen:g} sequences, "
                f"{store.retained_epochs} retained epochs "
                f"({store.epochs_retired} retired)"
            )

    # Retiring an epoch is *exact*: a count-bounded window:N prior
    # equals a fresh unbounded fold over only the last N windows'
    # sequences.  Verified for the first such spec given.
    bounded = next(
        (
            (spec, policy.max_epochs)
            for spec, policy in policies.items()
            if isinstance(policy, SlidingWindow)
            and policy.max_epochs is not None
        ),
        None,
    )
    if bounded is not None:
        spec, max_epochs = bounded
        from repro.positioning import PositioningSequence, windowed_records

        windows = [
            PositioningSequence.group_records(window)
            for window in windowed_records(
                RecordStream(iter(feeds["mall"])), WINDOW_SECONDS
            )
        ]
        engine = Engine(Translator(mall), EngineConfig(chunk_size=4))
        recent = engine.make_store(retention="unbounded")
        for window in windows[-max_epochs:]:
            engine.translate_increment(window, store=recent)
        identical = runs[spec].knowledge == recent.knowledge
        print(
            f"  {spec} prior == fold of last {max_epochs} windows only: "
            f"{identical}"
        )

    if args.telemetry_dump is not None:
        from pathlib import Path

        from repro.telemetry import get_registry, render_json

        dump = Path(args.telemetry_dump)
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(
            render_json(get_registry().snapshot()), encoding="utf-8"
        )
        print(f"\n[telemetry] wrote snapshot to {dump}")
    if metrics_server is not None:
        metrics_server.stop()


if __name__ == "__main__":
    main()
