"""Every report of the equivalence fixture (`equivalence.py`) is
byte-identical, apart from the timing, to the committed digests."""

import json

from equivalence import DIGESTS, digests, requests


def test_fixture_range():
    counts = {}
    for key, _ in requests():
        command = key.split()[0]
        counts[command] = counts.get(command, 0) + 1
    assert counts["richardson"] == 512
    assert counts["classify"] == counts["verify"] == counts["pyramids"] \
        == counts["render"]


def test_reports_match_the_committed_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = digests()
    changed = sorted(k for k in expected.keys() | actual.keys()
                     if expected.get(k) != actual.get(k))
    assert not changed, f"reports differ from the fixture: {changed}"
