"""Every report of the equivalence fixture (`equivalence.py`) is
byte-identical, apart from the timing, to the committed digests."""

import json

from equivalence import DIGESTS, REFUSED, _report, digests, requests


def test_fixture_range():
    counts = {}
    for key, _ in requests():
        command = key.split()[0]
        counts[command] = counts.get(command, 0) + 1
    assert counts["richardson"] == 512
    assert counts["classify"] == counts["verify"] == counts["pyramids"] \
        == counts["render"] == counts["classify-text"] \
        == counts["verify-text"] == 243
    # two requests per orbit label (4 + 15 + 10 + 6 + 7), one unknown
    # label per algebra
    assert counts["exceptional"] == 2 * 42 + 5
    assert counts["series"] == 24
    assert counts["refused"] == len(REFUSED) == 9


def test_refused_requests_exit_2():
    for argv in REFUSED:
        report = _report(argv.split())
        assert report.startswith("exit 2\nerror: "), argv


def test_reports_match_the_committed_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = digests()
    changed = sorted(k for k in expected.keys() | actual.keys()
                     if expected.get(k) != actual.get(k))
    assert not changed, f"reports differ from the fixture: {changed}"
