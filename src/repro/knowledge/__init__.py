"""Epoch-based knowledge lifecycle: stores + pluggable retention.

Long-running venues used to fold mobility evidence forever, so the prior
drifted away from current behaviour — semester vs. break, weekday vs.
weekend.  This subsystem owns knowledge lifetime instead of leaving it
implicit in the engine and live service:

- :class:`KnowledgeStore` wraps one venue's live
  :class:`~repro.core.complementing.MobilityKnowledge` plus a ring of
  per-epoch :class:`~repro.core.complementing.PartialKnowledge`
  snapshots (one epoch per ingestion window in the live service);
- a :class:`RetentionPolicy` decides what the prior remembers:
  :class:`Unbounded` (everything — the default, bit-for-bit the old
  behaviour), :class:`SlidingWindow` (exact subtraction of expired
  epochs via the shard algebra's inverse), or :class:`ExponentialDecay`
  (recency-weighted counts, no ring at all);
- :func:`parse_retention` turns the ``"unbounded"`` / ``"window:N"`` /
  ``"window:Ns"`` / ``"decay:H"`` spec strings used by the live
  service's ``retention``, task configs and ``trips serve --retention``
  into policies, with validation.

Retirement is exact, not approximate: retiring an epoch leaves knowledge
bit-for-bit identical to never having folded it (see
:meth:`~repro.core.complementing.MobilityKnowledge.unfold`), so a
sliding-window prior is *the* prior over the retained windows.
"""

from .retention import (
    DECAY_PRUNE_BELOW,
    ExponentialDecay,
    RetentionPolicy,
    SlidingWindow,
    Unbounded,
    parse_retention,
)
from .store import Epoch, KnowledgeStore

__all__ = [
    "DECAY_PRUNE_BELOW",
    "Epoch",
    "ExponentialDecay",
    "KnowledgeStore",
    "RetentionPolicy",
    "SlidingWindow",
    "Unbounded",
    "parse_retention",
]
