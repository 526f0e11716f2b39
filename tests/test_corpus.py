"""Byte identity of the CLI over the seeded corpus of ``corpus.py``."""

import json

from corpus import DIGEST_FILE, argvs, digest, key


def test_corpus_output_is_byte_identical(tmp_path):
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    cases = argvs()
    assert [key(a) for a in cases] == list(expected)
    changed = [key(a) for a in cases if digest(a, tmp_path) != expected[key(a)]]
    assert not changed, f"{len(changed)} argvs changed output, first: {changed[:5]}"
