#!/usr/bin/env python
"""Regenerate or check the golden digests in ``tests/golden/digests.json``.

Each golden case (``tests/golden/cases.py``) translates a seeded simulator
feed; it has two SHA-256 digests, ``export`` over the canonical export of
every result and ``knowledge`` over ``codec.encode(knowledge)``.  Each
durable case journals a feed into a state directory; its ``sha256``
covers the canonical state files.  For every case this prints the counts
(sequences, semantics, gaps filled; or windows, WAL entries, state files)
as committed and as computed now, and whether each digest matches.

Usage (from the repository root)::

    python scripts/golden_digests.py          # rewrite digests.json
    python scripts/golden_digests.py --check  # exit 1 if any case drifted

A regeneration changes what the reference outputs; say so in
``CHANGES.md``, with the cases and counts this script printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden.cases import (  # noqa: E402
    CASES,
    DIGESTS_PATH,
    DURABLE_CASES,
    digest,
    durable_digest,
)

COUNTS = ("sequences", "semantics", "gaps_filled")
DURABLE_COUNTS = ("windows", "wal_entries", "state_files")
#: The digests a case carries, reported one by one.
DIGESTS = ("export", "knowledge", "sha256")


def _counts(entry: dict | None) -> str:
    if entry is None:
        return "-"
    names = COUNTS if "sequences" in entry else DURABLE_COUNTS
    return "/".join(str(entry[name]) for name in names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed digests instead of rewriting them",
    )
    args = parser.parse_args(argv)
    committed = (
        json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        if DIGESTS_PATH.exists()
        else {}
    )
    fresh = {}
    drifted = []
    print(
        f"counts are {'/'.join(COUNTS)} (durable cases: "
        f"{'/'.join(DURABLE_COUNTS)})"
    )
    print(f"{'case':<22} {'before':>12} {'after':>12}  digests")
    cases = [(case, digest) for case in CASES]
    cases += [(case, durable_digest) for case in DURABLE_CASES]
    for case, compute in cases:
        before = committed.get(case.name) or {}
        after = fresh[case.name] = compute(case)
        if before != after:
            drifted.append(case.name)
        verdicts = "  ".join(
            f"{name} {'same' if before.get(name) == after[name] else 'CHANGED'}"
            for name in DIGESTS
            if name in after
        )
        print(
            f"{case.name:<22} {_counts(before or None):>12} "
            f"{_counts(after):>12}  {verdicts}"
        )
    stale = sorted(set(committed) - set(fresh))
    for name in stale:
        print(f"{name:<22} {_counts(committed[name]):>12} {'-':>12}  REMOVED")
    if args.check:
        if drifted or stale:
            print(
                f"golden digests drifted: {', '.join(drifted + stale)}",
                file=sys.stderr,
            )
            return 1
        print(f"golden digests OK ({len(fresh)} cases)")
        return 0
    DIGESTS_PATH.write_text(
        json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
