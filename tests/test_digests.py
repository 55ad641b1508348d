"""Byte-identity of every output on the fixed document list of ``digests``."""

import digests


def test_outputs_match_the_committed_digests():
    changed = digests.changed_pairs(digests.compute(), digests.load())
    assert not changed, (
        f"{len(changed)} outputs differ from {digests.DIGESTS.name} "
        "(regenerate with python tests/digests.py --write after a deliberate change):\n"
        + "\n".join(changed)
    )
