"""Frozen skip-block layout of segment format v7, kept as a test oracle.

Up to v7 the reducer stored each fragment's skip-block byte offsets and
posting counts in the catalog, computed from the per-posting VByte
lengths of the merged streams: a block's offset is the exclusive cumsum
of the byte lengths of the postings before it (a tf == 1 posting has no
tf exception, so it adds no tf bytes).  Since v8 the reader derives the
same arrays from the stream bytes (``reader.block_offsets``); the tests
pin the two equal.  Do not "fix" or speed this up.
"""

from __future__ import annotations

import numpy as np

from searchengine_ray import vbyte


def skip_blocks_v7(doc_bytes: bytes, tf_bytes: bytes, df: int,
                   skip_block: int) -> dict[str, np.ndarray]:
    vals = vbyte.decode(doc_bytes, count=df)
    tf_exc = (vals & np.uint64(1)) == 0
    tfs = np.ones(df, dtype=np.uint64)
    tfs[tf_exc] = vbyte.decode(tf_bytes, count=int(tf_exc.sum()))
    blen_d = vbyte.encoded_lengths(vals)
    blen_t = np.where(tf_exc, vbyte.encoded_lengths(tfs), np.uint8(0))
    b_start = np.arange(0, df, skip_block)
    b_end = np.minimum(b_start + skip_block, df)

    def block_offsets(blen: np.ndarray) -> np.ndarray:
        nbytes = np.add.reduceat(blen, b_start, dtype=np.int64)
        return np.cumsum(nbytes) - nbytes

    return {
        "skip_offset": block_offsets(blen_d),
        "skip_tf_offset": block_offsets(blen_t),
        "skip_count": (b_end - b_start).astype(np.int32),
    }


def assert_reader_matches_v7(reader) -> int:
    """Every fragment's derived skip arrays equal the v7 computation over
    its streams, dtypes included; returns the fragments checked."""
    skip_block = reader.manifest["config"]["skip_block"]
    n = 0
    for term in reader.get_vocabulary():
        for fr in reader.fragments(term):
            buf = reader.read_fragment_row(fr)
            want = skip_blocks_v7(buf[:fr.doc_len],
                                  buf[fr.doc_len:fr.doc_len + fr.tf_len],
                                  fr.df, skip_block)
            got = reader.skip_lists(fr, buf)
            for k, v in want.items():
                assert got[k].dtype == v.dtype, (term, k)
                assert np.array_equal(got[k], v), (term, k)
            n += 1
    return n
