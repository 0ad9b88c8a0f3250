"""Library outputs stay byte-identical to the committed golden digests."""

import json

import golden_corpus


def test_outputs_match_the_golden_digests():
    # golden_corpus.py --record rewrites the digests after an intended change
    expected = json.loads(golden_corpus.GOLDEN.read_text())
    found = golden_corpus.mismatches(expected, golden_corpus.corpus())
    assert not found, "\n".join(found)
