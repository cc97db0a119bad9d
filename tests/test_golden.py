"""The golden digests: what the reference translator outputs, pinned.

Each case in :mod:`tests.golden.cases` translates a seeded simulator feed
and hashes its canonical export plus ``codec.encode(knowledge)``; the
digest must equal the committed one in ``tests/golden/digests.json``.  A
failure prints the stored counts (sequences, semantics, gaps filled)
beside the fresh ones, so it says what moved.  A deliberate change of
output regenerates the file with ``python scripts/golden_digests.py`` and
states the regeneration in ``CHANGES.md``.
"""

import pytest

from .golden.cases import CASES, digest, load_digests

COMMITTED = load_digests()


def test_every_case_has_a_committed_digest():
    assert sorted(COMMITTED) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_golden_digest(case):
    expected = COMMITTED[case.name]
    actual = digest(case)
    assert actual == expected, (
        f"golden case {case.name!r} drifted: committed {expected}, "
        f"now {actual}"
    )
