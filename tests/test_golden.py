"""The golden corpus (``tests/golden``): every recorded command line gives its
recorded exit code, stdout, stderr and output bytes."""

import json

from golden.corpus import CASES, EXPECTED, replay


def test_the_golden_corpus_replays_byte_for_byte(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    assert list(expected) == [" ".join(argv) for argv in CASES]
    actual = replay(tmp_path)
    for name, record in expected.items():
        assert actual[name] == record, name
