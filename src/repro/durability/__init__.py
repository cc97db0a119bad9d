"""Durable knowledge state: versioned codec, WAL, snapshots, recovery.

The live and distributed services (:mod:`repro.live`,
:mod:`repro.distributed`) are long-running processes whose per-venue
:class:`~repro.knowledge.KnowledgeStore` state would otherwise
evaporate on restart.  This package makes that state durable:

- :mod:`~repro.durability.codec` — a versioned, self-describing wire
  format for :class:`~repro.core.complementing.PartialKnowledge`,
  :class:`~repro.core.complementing.MobilityKnowledge` and the
  :class:`~repro.knowledge.KnowledgeStore` epoch ring, persisting
  :class:`~repro.core.complementing.ExactSum` expansions verbatim so
  round-trips are **bit-for-bit** — a recovered store does not merely
  equal the lost one, it walks identical internal states on every
  subsequent fold.  The same module encodes a window's phase-one output
  (:func:`encode_phase_one` / :func:`decode_phase_one`): cleaning
  reports, repaired records, semantics and snippets, equal pair for
  pair after the round-trip.
- :mod:`~repro.durability.wal` — an append-only write-ahead log of
  per-window entries (each venue's exact
  :class:`~repro.core.complementing.PartialKnowledge` delta plus
  epoch-roll/retire markers and, with retained results, the raw batch
  and its phase-one payload), flushed at every window boundary, with
  torn-tail-tolerant replay.
- :mod:`~repro.durability.journal` — periodic full snapshots with
  atomic publication and WAL truncation, and the snapshot + WAL-tail
  recovery protocol that is exact at any crash point.

Recovery is decode + fold: stores and deltas are decoded and re-folded,
retained results are decoded from their phase-one payloads, and no
cleaning or annotation runs.  The replay invariant the property suite
proves: kill the service at any window boundary, recover from the state
directory, finish the feed, and ``finalize()`` output and knowledge are
bit-for-bit identical to the uninterrupted run, under all three
retention policies, on clean and dirty feeds, and under sharded
ingestion.  The codec doubles as the delta wire format the planned
networked knowledge exchange will reuse.
"""

from .codec import (
    FORMAT_VERSION,
    decode,
    decode_phase_one,
    decode_records,
    decode_retention,
    encode,
    encode_phase_one,
    encode_records,
    encode_retention,
    require_fields,
)
from .journal import (
    SNAPSHOT_MAGIC,
    DurableStateJournal,
    read_state_file,
    write_state_file,
)
from .wal import WAL_MAGIC, WriteAheadLog

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "WAL_MAGIC",
    "DurableStateJournal",
    "WriteAheadLog",
    "decode",
    "decode_phase_one",
    "decode_records",
    "decode_retention",
    "encode",
    "encode_phase_one",
    "encode_records",
    "encode_retention",
    "read_state_file",
    "require_fields",
    "write_state_file",
]
