"""Command-line interface: ``trips <command>``.

Covers the headless slice of the demo workflow: generate a synthetic
dataset, validate a DSM file, run a translation task from a config, and
render a floor to SVG.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import TripsError


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        args.handler(args)
    except TripsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trips",
        description="TRIPS reproduction: indoor positioning -> mobility semantics",
    )
    commands = parser.add_subparsers(title="commands")

    simulate = commands.add_parser(
        "simulate", help="generate a synthetic mall dataset (CSV + DSM)"
    )
    simulate.add_argument("--devices", type=int, default=20)
    simulate.add_argument("--floors", type=int, default=7)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", type=Path, default=Path("trips-data"))
    simulate.set_defaults(handler=_cmd_simulate)

    validate = commands.add_parser("validate-dsm", help="validate a DSM JSON file")
    validate.add_argument("dsm", type=Path)
    validate.set_defaults(handler=_cmd_validate)

    translate = commands.add_parser(
        "translate", help="run a translation task from a config JSON"
    )
    translate.add_argument("config", type=Path)
    translate.add_argument("--out", type=Path, default=Path("trips-results"))
    _add_engine_arguments(translate, "execution backend of the batch engine")
    translate.add_argument(
        "--telemetry-dump",
        type=Path,
        default=None,
        metavar="PATH",
        help="enable telemetry for the run and write the end-of-run "
        "metrics snapshot (counters, gauges, histograms, recent spans) "
        "to this JSON file",
    )
    translate.set_defaults(handler=_cmd_translate)

    serve = commands.add_parser(
        "serve",
        help="replay task configs as live feeds through the streaming "
        "translation service (one venue per config)",
    )
    serve.add_argument(
        "venues",
        nargs="+",
        metavar="[VENUE=]CONFIG",
        help="translation-task config JSON per venue; the venue id "
        "defaults to the config file's stem",
    )
    serve.add_argument(
        "--window-seconds",
        type=float,
        default=300.0,
        help="time span of one ingestion window (default: 300)",
    )
    serve.add_argument(
        "--max-window-records",
        type=int,
        default=None,
        help="optional record-count bound per window",
    )
    _add_engine_arguments(serve, "shared worker pool backend")
    serve.add_argument(
        "--retention",
        default=None,
        metavar="{unbounded,window:N,window:Ns,decay:H}",
        help="knowledge-lifecycle retention for every venue: 'unbounded' "
        "folds forever (default), 'window:N' keeps the newest N epochs "
        "(one epoch per ingestion window; expired epochs are subtracted "
        "exactly), 'window:Ns' keeps epochs newer than N seconds of data "
        "time, 'decay:H' halves old evidence every H epochs; overrides "
        "each task config's knowledge_retention",
    )
    serve.add_argument(
        "--adaptive-windowing",
        action="store_true",
        help="derive a per-venue max-window-records target from an EWMA "
        "of each venue's observed feed rate (records/sec)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard ingestion across this many service instances (each "
        "with its own worker pool); per-venue knowledge is merged "
        "exactly through the knowledge exchange (default: 1, the "
        "single-instance live service)",
    )
    serve.add_argument(
        "--exchange-interval",
        type=int,
        default=1,
        metavar="WINDOWS",
        help="run a knowledge exchange round every this many cluster "
        "windows; after each round every shard's knowledge equals the "
        "merged cluster knowledge bit for bit (default: 1; requires "
        "--shards > 1)",
    )
    serve.add_argument(
        "--shard-router",
        choices=("device", "venue"),
        default="device",
        help="how records partition across shards: 'device' (stable "
        "device-id hash, the default) or 'venue' (a venue's devices all "
        "pin to one shard); requires --shards > 1",
    )
    serve.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        metavar="PATH",
        help="journal durable state (snapshot + write-ahead log) under "
        "this directory; a restarted serve over the same directory "
        "replays it and resumes exactly where the previous run stopped "
        "(with --shards > 1 each shard journals into its own "
        "subdirectory)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=None,
        metavar="WINDOWS",
        help="checkpoint the full state and truncate the write-ahead "
        "log every this many windows (default: 16; requires "
        "--state-dir)",
    )
    serve.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for finalized per-device result JSONs "
        "(one subdirectory per venue)",
    )
    serve.add_argument(
        "--no-finalize",
        action="store_true",
        help="skip the end-of-stream re-complement against the final "
        "knowledge (per-window live output only)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="enable telemetry and serve it over HTTP on this port while "
        "the feeds run: Prometheus text exposition at /metrics, the full "
        "JSON snapshot at /metrics.json (0 picks a free port)",
    )
    serve.add_argument(
        "--telemetry-dump",
        type=Path,
        default=None,
        metavar="PATH",
        help="enable telemetry for the run and write the end-of-run "
        "metrics snapshot to this JSON file",
    )
    serve.set_defaults(handler=_cmd_serve)

    render = commands.add_parser("render", help="render a DSM floor to SVG")
    render.add_argument("dsm", type=Path)
    render.add_argument("--floor", type=int, default=1)
    render.add_argument("--out", type=Path, default=Path("floor.svg"))
    render.set_defaults(handler=_cmd_render)
    return parser


def _add_engine_arguments(command, backend_help: str) -> None:
    """``--backend`` / ``--workers`` / ``--chunk-size``, read back by
    :func:`_engine_config`."""
    command.add_argument(
        "--backend",
        choices=("processes", "serial"),
        default=None,
        help=f"{backend_help} (default: serial)",
    )
    command.add_argument(
        "--workers",
        type=int,
        default=None,
        help="engine worker pool size; requires --backend "
        "(default: one per CPU)",
    )
    command.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="sequences per engine work chunk; requires --backend",
    )


import contextlib


@contextlib.contextmanager
def _telemetry_session(metrics_port=None, dump_path=None):
    """Install a live registry for one CLI run, if telemetry was asked for.

    With neither flag the process-wide registry stays the no-op default.
    Otherwise a fresh :class:`~repro.telemetry.MetricsRegistry` is
    installed for the duration of the command, an exposition server runs
    while the command does (``--metrics-port``), and the final snapshot
    lands as a JSON artifact (``--telemetry-dump``) on the way out —
    including on failure, so a crashed run still leaves its telemetry.
    """
    if metrics_port is None and dump_path is None:
        yield None
        return
    from .telemetry import (
        MetricsRegistry,
        MetricsServer,
        render_json,
        use_registry,
    )

    with use_registry(MetricsRegistry()) as registry:
        server = None
        if metrics_port is not None:
            server = MetricsServer(registry, port=metrics_port).start()
            print(
                f"serving metrics on http://127.0.0.1:{server.port}/metrics "
                f"(JSON at /metrics.json)"
            )
        try:
            yield registry
        finally:
            if server is not None:
                server.stop()
            if dump_path is not None:
                dump_path = Path(dump_path)
                dump_path.parent.mkdir(parents=True, exist_ok=True)
                dump_path.write_text(
                    render_json(registry.snapshot()), encoding="utf-8"
                )
                print(f"wrote telemetry snapshot to {dump_path}")


def _cmd_simulate(args) -> None:
    from .buildings import MallConfig, build_mall
    from .dsm import save_dsm
    from .positioning import write_csv
    from .simulation import BROWSER, SHOPPER, MobilitySimulator
    from .timeutil import HOUR, TimeRange

    args.out.mkdir(parents=True, exist_ok=True)
    mall = build_mall(MallConfig(floors=args.floors))
    save_dsm(mall, args.out / "mall-dsm.json")
    simulator = MobilitySimulator(mall, seed=args.seed)
    devices = simulator.simulate_population(
        args.devices,
        profiles=[SHOPPER, BROWSER],
        window=TimeRange(10 * HOUR, 22 * HOUR),
    )
    records = [r for d in devices for r in d.raw]
    count = write_csv(sorted(records), args.out / "positioning.csv")
    truth = {d.device_id: d.truth_semantics.to_dict() for d in devices}
    (args.out / "ground-truth.json").write_text(
        json.dumps(truth, indent=2), encoding="utf-8"
    )
    print(
        f"wrote {count} records for {len(devices)} devices to {args.out}/ "
        f"(DSM + positioning.csv + ground-truth.json)"
    )


def _cmd_validate(args) -> None:
    from .dsm import load_dsm, validate_dsm

    model = load_dsm(args.dsm)
    warnings = validate_dsm(model, require_connected=False)
    print(f"{model}: OK ({len(warnings)} warning(s))")
    for warning in warnings:
        print(f"  warning: {warning}")


def _engine_config(args):
    """The engine config of ``--backend`` / ``--workers`` /
    ``--chunk-size``.  No ``--backend`` means :class:`EngineConfig`'s
    defaults (the serial engine, never the reference translator); the
    tuning flags only tune an explicitly chosen backend."""
    from .engine import EngineConfig
    from .errors import ConfigError

    if args.backend is None:
        if args.workers is not None or args.chunk_size is not None:
            raise ConfigError(
                "--workers/--chunk-size tune an explicitly chosen engine; "
                "name its --backend (serial or processes) as well"
            )
        return EngineConfig()
    kwargs = {"backend": args.backend, "workers": args.workers}
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    return EngineConfig(**kwargs)


def _cmd_translate(args) -> None:
    from .config import load_task, run_task

    engine = _engine_config(args)
    config = load_task(args.config)
    with _telemetry_session(dump_path=args.telemetry_dump):
        batch = run_task(config, engine=engine)
    args.out.mkdir(parents=True, exist_ok=True)
    for result in batch:
        safe_id = result.device_id.replace("/", "_").replace(":", "_")
        result.export(args.out / f"{safe_id}.json")
    print(
        f"translated {len(batch)} sequences "
        f"({batch.total_records} records -> {batch.total_semantics} semantics) "
        f"in {batch.elapsed_seconds:.2f}s -> {args.out}/"
    )
    if batch.stats is not None:
        print(batch.stats.format_table())


def _cmd_serve(args) -> None:
    from .config import build_translator, load_task, select_sequences
    from .errors import ConfigError
    from .knowledge import parse_retention
    from .live import LiveConfig, LiveTranslationService

    if args.retention is not None:
        parse_retention(args.retention)  # fail fast on a malformed spec
    if args.shards < 1:
        raise ConfigError(f"--shards must be >= 1, got {args.shards}")
    if args.exchange_interval < 1:
        raise ConfigError(
            f"--exchange-interval must be >= 1, got {args.exchange_interval}"
        )
    if args.snapshot_interval is not None and args.state_dir is None:
        raise ConfigError(
            "--snapshot-interval tunes the durable-state checkpoint "
            "cadence; pass --state-dir to enable journaling"
        )
    engine_config = _engine_config(args)
    translators = {}
    feeds = {}
    retention = {}
    for spec in args.venues:
        venue_id, separator, path = spec.partition("=")
        if not separator:
            venue_id, path = Path(spec).stem, spec
        if venue_id in translators:
            raise ConfigError(f"duplicate venue id {venue_id!r}")
        task = load_task(Path(path))
        translators[venue_id] = build_translator(task)
        # The CLI flag overrides every venue; otherwise each task config
        # chooses its own knowledge lifecycle.
        retention[venue_id] = (
            args.retention
            if args.retention is not None
            else task.knowledge_retention
        )
        feeds[venue_id] = sorted(
            (
                record
                for sequence in select_sequences(task)
                for record in sequence.records
            ),
            key=lambda record: (record.timestamp, record.device_id),
        )

    live_kwargs = {
        "window_seconds": args.window_seconds,
        "max_window_records": args.max_window_records,
        "adaptive_windowing": args.adaptive_windowing,
    }
    if args.snapshot_interval is not None:
        live_kwargs["snapshot_interval"] = args.snapshot_interval
    live_config = LiveConfig(**live_kwargs)

    def report(window) -> None:
        exchanged = getattr(window, "exchange", None) is not None
        print(
            f"window {window.index:4d}  {window.records:6d} records  "
            f"{window.elapsed_seconds * 1e3:7.1f} ms  "
            f"{window.sequences} seq -> {window.semantics} sem"
            + ("  [exchange]" if exchanged else "")
        )

    with _telemetry_session(args.metrics_port, args.telemetry_dump):
        if args.shards > 1:
            from .distributed import ShardedIngestService

            service = ShardedIngestService(
                translators,
                shards=args.shards,
                engine_config=engine_config,
                live_config=live_config,
                shard_router=args.shard_router,
                exchange_interval=args.exchange_interval,
                retention=retention,
                state_dir=args.state_dir,
            )
        else:
            service = LiveTranslationService(
                translators,
                engine_config,
                live_config,
                retention=retention,
                state_dir=args.state_dir,
            )
        with service:
            # A recovered service already absorbed a prefix of each
            # venue's deterministic feed — summed across shards, a single
            # instance being its own one shard.  Routing is deterministic,
            # so skipping exactly that prefix resumes at the journaled
            # window boundary.
            processed: dict[str, int] = {}
            for shard in getattr(service, "shards", [service]):
                for vid, venue in shard.stats.venues.items():
                    processed[vid] = processed.get(vid, 0) + venue.records
            stats = service.run_feeds(
                _resume_feeds(feeds, processed), on_window=report
            )
            print(stats.format_table())
            if not args.no_finalize:
                _report_finalized(service.finalize(), args.out)


def _resume_feeds(feeds, processed):
    """Per-venue record lists -> :class:`RecordStream` feeds, skipping
    the prefix a recovered service already absorbed."""
    from .positioning import RecordStream

    streams = {}
    for venue_id, records in feeds.items():
        skip = processed.get(venue_id, 0)
        if skip:
            print(
                f"resuming {venue_id}: skipping {skip} journaled records"
            )
        streams[venue_id] = RecordStream(iter(records[skip:]))
    return streams


def _report_finalized(finalized, out: "Path | None") -> None:
    """Print the per-venue finalized batches; export them when asked."""
    for venue_id, batch in sorted(finalized.items()):
        print(
            f"finalized {venue_id}: {len(batch)} sequences, "
            f"{batch.total_semantics} semantics "
            f"(knowledge over "
            f"{batch.knowledge.sequences_seen if batch.knowledge else 0:g}"
            f" sequences)"
        )
        if out is not None:
            venue_dir = out / venue_id
            venue_dir.mkdir(parents=True, exist_ok=True)
            for index, result in enumerate(batch):
                safe_id = result.device_id.replace("/", "_").replace(
                    ":", "_"
                )
                result.export(venue_dir / f"{index}-{safe_id}.json")
            print(f"  wrote {len(batch)} result files to {venue_dir}/")


def _cmd_render(args) -> None:
    from .dsm import load_dsm
    from .viewer import MapView

    model = load_dsm(args.dsm)
    document = MapView(model).render(args.floor)
    document.save(args.out)
    print(f"rendered floor {args.floor} of {model.name} to {args.out}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
