"""Durable state journal: snapshot file + WAL, with exact recovery.

One journal owns one state directory::

    state-dir/
      snapshot.json   # last checkpoint (atomic tmp+rename)
      wal.jsonl       # header + entries appended since that checkpoint

The protocol, in the order the live service drives it once per window:

1. :meth:`append_window` appends the window's entry (per-venue deltas,
   roll/retire markers and, when the service retains results, the raw
   record batch with its encoded phase-one output) and flushes.
2. When the snapshot cadence is due, :meth:`write_snapshot` writes the
   full state to ``snapshot.json.tmp``, fsyncs, renames over
   ``snapshot.json`` (atomic on POSIX), then resets the WAL back to its
   header.

Crash anywhere in that sequence recovers exactly, because every WAL
entry carries its window index and the snapshot envelope carries the
number of windows it captured: :meth:`load` returns the snapshot plus
only the WAL entries *newer* than it.  A crash between the snapshot
rename and the WAL reset leaves stale entries behind — all of them
``<= snapshot.windows`` — and they are filtered out, not replayed
twice.  A torn final WAL line is an unacknowledged window and is
dropped by the WAL's replay (see :mod:`repro.durability.wal`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..errors import PersistenceError
from ..telemetry import get_registry
from .codec import FORMAT_VERSION
from .wal import WriteAheadLog

#: Magic string identifying a TRIPS snapshot file.
SNAPSHOT_MAGIC = "trips-snapshot"


def write_state_file(path: Path, payload: dict) -> None:
    """Publish one JSON state file by fsync + atomic rename.

    The bytes land in ``<name>.tmp`` beside the target first, so a crash
    mid-write leaves the previously published file intact (the rename is
    atomic on POSIX).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(
            json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
                "utf-8"
            )
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def read_state_file(path: Path, magic: str) -> "dict | None":
    """Read one published state file; ``None`` when it does not exist.

    State files are published by atomic rename, so a torn one means the
    directory was damaged, not that a crash raced the writer: unparsable
    bytes, a foreign magic or another format version (a version-1 file
    included: it carries no phase-one output) all raise
    :class:`~repro.errors.PersistenceError`.
    """
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:
        raise PersistenceError(f"{path} is corrupt: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != magic:
        raise PersistenceError(f"{path} is not a {magic!r} state file")
    if payload.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} is format version {payload.get('version')!r}; this "
            f"build reads version {FORMAT_VERSION}"
        )
    return payload


class DurableStateJournal:
    """Snapshot + WAL pair for one service (or one shard) instance."""

    def __init__(self, directory: "str | Path", *, sync: bool = False):
        self.directory = Path(directory)
        self.snapshot_path = self.directory / "snapshot.json"
        self.wal = WriteAheadLog(self.directory / "wal.jsonl", sync=sync)
        self._entries: "list[dict] | None" = None
        #: Snapshots checkpointed through this instance.
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Create the directory if needed and open (replaying) the WAL."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries = self.wal.open()

    def close(self) -> None:
        self.wal.close()
        self._entries = None

    @property
    def is_open(self) -> bool:
        """Whether the WAL is open for appending."""
        return self._entries is not None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self) -> "tuple[dict | None, list[dict]]":
        """The last snapshot payload plus the WAL entries newer than it.

        Must be called after :meth:`open`.  Returns ``(None, entries)``
        when no snapshot has ever been written.  Entries are window
        entries and markers in append order, already filtered down to
        those the snapshot does not cover.
        """
        if self._entries is None:
            raise PersistenceError(
                f"journal {self.directory} is not open"
            )
        snapshot = read_state_file(self.snapshot_path, SNAPSHOT_MAGIC)
        covered = -1
        if snapshot is not None:
            windows = snapshot.get("windows")
            # bool is an int subclass; a snapshot never counts in booleans.
            if type(windows) is not int or windows < 0:
                raise PersistenceError(
                    f"snapshot {self.snapshot_path} records an invalid "
                    f"window count {windows!r}"
                )
            covered = windows - 1
        entries = [
            entry
            for entry in self._entries
            if entry.get("window", covered + 1) > covered
        ]
        return snapshot, entries

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_window(self, window: int, body: dict) -> None:
        """Append one window's entry (indexed for snapshot filtering)."""
        self.wal.append({"t": "window", "window": window, **body})

    def write_snapshot(self, windows: int, body: dict) -> None:
        """Checkpoint the full state atomically, then truncate the WAL.

        ``windows`` is the number of windows the state has absorbed; it
        is what :meth:`load` filters stale WAL entries against, so it
        must count exactly the windows whose entries were appended.
        """
        registry = get_registry()
        started = time.perf_counter() if registry.enabled else 0.0
        write_state_file(
            self.snapshot_path,
            {
                "magic": SNAPSHOT_MAGIC,
                "version": FORMAT_VERSION,
                "windows": windows,
                **body,
            },
        )
        self.wal.reset()
        self.snapshots_written += 1
        if registry.enabled:
            registry.histogram("trips_snapshot_seconds").observe(
                time.perf_counter() - started
            )
            registry.counter("trips_snapshots_total").inc()

    def __repr__(self) -> str:
        return f"DurableStateJournal({str(self.directory)!r})"
