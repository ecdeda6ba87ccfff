"""Frozen skip-block last docs of segment format v9, kept as a test
oracle.

Up to v9 the reducer stored each skip block's last doc id in the
catalog's ``skip_last_doc`` column: over a merged list's decoded doc
ids, the doc of each block's last posting, blocks being ``skip_block``
postings each from the list's first.  Since v10 the reader derives the
column from each fragment's Elias–Fano doc stream
(``reader.skip_lists``); the tests pin the two equal, with the doc ids
decoded bit by bit by the reference coder (``tests/ef_oracle.py``).  Do
not "fix" or speed this up.
"""

from __future__ import annotations

import numpy as np

from tests.ef_oracle import decode_list


def skip_last_doc_v9(docs: np.ndarray, skip_block: int) -> np.ndarray:
    df = docs.size
    b_start = np.arange(0, df, skip_block)
    b_end = np.minimum(b_start + skip_block, df)
    return docs[b_end - 1]


def assert_reader_matches_v9(reader) -> int:
    """Every fragment's derived ``skip_last_doc`` equals the v9 column
    over its reference-decoded doc ids, dtype included; returns the
    fragments checked."""
    skip_block = reader.manifest["config"]["skip_block"]
    n = 0
    for term in reader.get_vocabulary():
        for fr in reader.fragments(term):
            buf = reader.read_fragment_row(fr)
            x, _ = decode_list(buf[:fr.doc_len], fr.df, fr.u)
            want = skip_last_doc_v9(
                fr.lo + np.asarray(x, dtype=np.int64), skip_block)
            got = reader.skip_lists(fr, buf)["skip_last_doc"]
            assert got.dtype == want.dtype, term
            assert np.array_equal(got, want), term
            n += 1
    return n
