"""The four pinned workloads of the TRIPS performance ledger.

Each workload is a set of seeded venue feeds plus the knobs its entry
point is driven with.  :func:`generate` writes, per venue, the three
files a user would hand to ``trips translate`` / ``trips serve`` — DSM
JSON, a time-sorted positioning CSV and a task JSON — and nothing else
reaches the program under test.

Two feed shapes stress opposite layers (ROADMAP open item 1): MazeMap's
campus sessions (many devices, short bursty sessions) and careflow's
always-on asset beacons (few devices, endless streams).  Neither has a
stock :class:`~repro.simulation.AgentProfile`, so both are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from repro.buildings import MallConfig, build_airport, build_mall, build_office
from repro.config import SourceConfig, TranslationTaskConfig, save_task
from repro.core.semantics import MobilitySemanticsSequence
from repro.dsm import DigitalSpaceModel, save_dsm
from repro.positioning import inject_dropout, write_csv
from repro.simulation import (
    BROWSER,
    SHOPPER,
    WORKER,
    AgentProfile,
    MobilitySimulator,
)
from repro.timeutil import HOUR, TimeRange

DEFAULT_SEED = 2018

#: A campus visitor: in, one to three short stops, out (MazeMap shape).
CAMPUS_VISITOR = AgentProfile(
    name="campus-visitor",
    visits=(1, 3),
    stay_duration=(60.0, 420.0),
    walk_speed=(1.0, 1.6),
    category_weights={"shop": 2.0, "cashier": 0.5},
    floor_change_bias=0.3,
)

#: An always-on asset beacon: hours of long dwells (careflow shape).
ASSET_TAG = AgentProfile(
    name="asset-tag",
    visits=(10, 16),
    stay_duration=(900.0, 3600.0),
    walk_speed=(0.8, 1.4),
    category_weights={"gate": 2.0, "shop": 1.0, "food": 1.0, "facility": 1.0},
    floor_change_bias=0.4,
)


class FeedSimulator(MobilitySimulator):
    """A simulator that skips ground-truth semantics.

    Deriving them point-locates every ground-truth sample and is ~80% of
    simulation time; the benchmark only feeds the raw records on, and
    the derivation draws no random numbers, so the feed is unchanged.
    """

    def derive_truth_semantics(self, ground_truth):
        return MobilitySemanticsSequence(ground_truth.device_id, [])


@dataclass(frozen=True)
class Feed:
    """One venue's simulated positioning feed."""

    venue: str
    build: Callable[[], DigitalSpaceModel]
    profiles: tuple[AgentProfile, ...]
    #: Device count at ``--scale 1``.
    devices: int
    #: Records kept per device: the feed holds exactly ``devices x quota``
    #: records whatever the seed draws (see :func:`generate`).  About
    #: three quarters of what the profiles produce on average.
    quota: int
    #: Arrival window of the population.
    day: TimeRange
    #: ``(gaps per device, gap seconds)`` of injected dropout, if any.
    dropout: "tuple[int, float] | None" = None
    #: Closing time: records after it are not delivered.  Bounds the
    #: number of windows a live feed cuts, whatever one long session does.
    close: "float | None" = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists, in one line (mirrored in BENCHMARK.json).
    why: str
    feeds: tuple[Feed, ...]
    #: Ingestion window of the live workloads (``None`` for batch).
    window_seconds: "float | None" = None
    #: Record bound per window (``--max-window-records``), if any.
    max_window_records: "int | None" = None


_MALL = partial(build_mall, MallConfig(floors=3))
_DAY = TimeRange(9 * HOUR, 19 * HOUR)

#: ``live_durable``: knowledge retention, checkpoint cadence, and the
#: share of the feed ingested before the simulated kill.
DURABLE_RETENTION = "window:12"
DURABLE_SNAPSHOT_INTERVAL = 16
DURABLE_CRASH_AT = 0.75

#: ``sharded_procs``: shard count and exchange cadence (cluster windows).
SHARDS = 2
EXCHANGE_INTERVAL = 2

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "batch_mall",
            "one-shot trips translate, serial: cleaning+annotation do >=90% "
            "of the work; window, knowledge-lifecycle, WAL and exchange "
            "layers are bypassed, so their optimisations must not move it",
            (Feed("mall", _MALL, (SHOPPER, BROWSER), 250, 300, _DAY, (4, 240.0)),),
        ),
        Workload(
            "live_campus",
            "MazeMap shape through trips serve: hundreds of 15 s windows "
            "of a few records, so per-window fixed costs (cut, group, "
            "fold/roll, table compile) dominate and phase one matters least",
            (
                Feed(
                    "mall", _MALL, (CAMPUS_VISITOR,), 400, 75,
                    TimeRange(9 * HOUR, 10.5 * HOUR), (1, 150.0),
                    close=10.5 * HOUR,
                ),
                Feed(
                    "office", build_office, (WORKER,), 40, 400,
                    TimeRange(9 * HOUR, 10.5 * HOUR), close=10.5 * HOUR,
                ),
            ),
            window_seconds=15.0,
        ),
        Workload(
            "live_durable",
            "careflow shape with --state-dir: few always-on tags, WAL and "
            "snapshot writes, a kill, recovery reads, window:12 retirement; "
            "append-vs-recovery trade-offs show only here",
            (
                Feed(
                    "airport", build_airport, (ASSET_TAG,), 15, 2200,
                    TimeRange(0.0, 0.6 * HOUR), (8, 150.0), close=5 * HOUR,
                ),
            ),
            window_seconds=300.0,
        ),
        Workload(
            "sharded_procs",
            "2 shards x process backend: the only workload where records "
            "and results are pickled across processes and knowledge "
            "crosses shards (routing, straggler shard, exchange rounds)",
            (
                Feed(
                    "mall", _MALL, (SHOPPER, BROWSER), 400, 300,
                    TimeRange(9 * HOUR, 14 * HOUR), (4, 240.0),
                ),
            ),
            window_seconds=300.0,
            # Count-bounded windows: every window carries the same number
            # of records, so its latency varies with the shard balance,
            # not with how many devices the seed put into those minutes.
            max_window_records=300,
        ),
    )
}


def task_paths(workload: Workload, directory: Path) -> dict[str, Path]:
    """Where :func:`generate` puts each venue's task file."""
    return {
        feed.venue: directory / f"{feed.venue}-task.json"
        for feed in workload.feeds
    }


def generate(
    workload: Workload, seed: int, scale: float, out_dir: Path
) -> None:
    """Write every venue's DSM JSON, positioning CSV and task JSON."""
    tasks = task_paths(workload, out_dir)
    for index, feed in enumerate(workload.feeds):
        model = feed.build()
        dsm_path = out_dir / f"{feed.venue}-dsm.json"
        save_dsm(model, dsm_path)
        simulator = FeedSimulator(model, seed=seed + index)
        count = max(1, round(feed.devices * scale))
        devices = simulator.simulate_population(
            count, profiles=list(feed.profiles), window=feed.day
        )
        # The seed draws the sessions, not the size of the job: devices
        # are admitted in simulation order until the record budget is
        # full, and the one that overflows it leaves early.
        budget = count * feed.quota
        records = []
        for position, device in enumerate(devices):
            raw = device.raw
            if feed.dropout is not None:
                gaps, gap_seconds = feed.dropout
                raw, _ = inject_dropout(
                    raw, gap_seconds, gaps, seed=seed + position
                )
            kept = [
                record
                for record in raw.records
                if feed.close is None or record.timestamp <= feed.close
            ]
            records.extend(kept[: budget - len(records)])
            if len(records) == budget:
                break
        records.sort(key=lambda record: (record.timestamp, record.device_id))
        csv_path = out_dir / f"{feed.venue}.csv"
        write_csv(records, csv_path)
        save_task(
            TranslationTaskConfig(
                dsm_path=str(dsm_path),
                sources=[SourceConfig("csv", str(csv_path))],
            ),
            tasks[feed.venue],
        )
