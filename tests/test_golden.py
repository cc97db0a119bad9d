"""The golden digests: what the reference translator outputs, pinned.

Each case in :mod:`tests.golden.cases` translates a seeded simulator feed
and hashes its canonical export and, apart, ``codec.encode(knowledge)``;
each durable case hashes the state directory the service journals.  Every
digest must equal the committed one in ``tests/golden/digests.json``.  A
failure prints the stored digests and counts (sequences, semantics, gaps
filled) beside the fresh ones, so it says what moved.  A deliberate change of
output regenerates the file with ``python scripts/golden_digests.py`` and
states the regeneration in ``CHANGES.md``.
"""

import pytest

from .golden.cases import (
    CASES,
    DURABLE_CASES,
    digest,
    durable_digest,
    journal,
    load_digests,
    state_files,
)

COMMITTED = load_digests()


def test_every_case_has_a_committed_digest():
    assert sorted(COMMITTED) == sorted(
        case.name for case in CASES + DURABLE_CASES
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_golden_digest(case):
    expected = COMMITTED[case.name]
    actual = digest(case)
    assert actual == expected, (
        f"golden case {case.name!r} drifted: committed {expected}, "
        f"now {actual}"
    )


@pytest.mark.parametrize("case", DURABLE_CASES, ids=lambda case: case.name)
def test_durable_digest(case):
    """The state files the service journals, in canonical form (timing
    fields and format version dropped), equal the committed digest."""
    expected = COMMITTED[case.name]
    actual = durable_digest(case)
    assert actual == expected, (
        f"durable golden case {case.name!r} drifted: committed "
        f"{expected}, now {actual}"
    )


@pytest.mark.parametrize("case", DURABLE_CASES, ids=lambda case: case.name)
def test_durable_state_is_byte_identical_across_runs(case, tmp_path):
    """The state files hold only what the feed decides: two runs of the
    same case write the same bytes, file for file, with nothing dropped."""
    written = []
    for run in ("first", "second"):
        state_dir = tmp_path / run
        journal(case, state_dir)
        written.append(
            {
                str(path.relative_to(state_dir)): path.read_bytes()
                for path in state_files(state_dir)
            }
        )
    assert written[0] == written[1]
