"""Per-row content-integrity verification: index vs source corpus.

The north-star contract requires the index to preserve per-row content
sha256 equality against the source Parquet corpus (the reference builds
its index directly from the files it hashes, so equality is implicit
there; a distributed build must prove it).  The build stores every
document's ``sha256(content)`` in docstats as 32 raw bytes at tokenize
time (:func:`content_digests`, docterms v7); this module re-derives the
digests from the SOURCE parquet and compares the two sides WITHOUT a
join:

- Each side folds its rows into an order-independent multiset checksum
  ``(count, sum mod 2^60, xor)`` over 60-bit row words — two commutative
  reductions over column-pruned reads, no shuffle, O(blocks) state in
  the calling process.  A row's word is the digest's first 60 bits, so
  the same checksum replays in portable SQL over the source text (the
  DuckDB oracle of ``q_content_integrity``); sum and xor together make
  an undetected multiset difference vanishingly unlikely.
- ``check_ids=True`` additionally binds digests to doc ids: the source
  side re-runs the deterministic ``ids.assign_doc_ids`` (pytest-verified
  independent of partitioning) and both sides xor :func:`mix60` of the
  doc id into the row word, catching content attached to the wrong
  document, at the cost of the assignment's one exchange.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import ray.data

from .layout import DOCSTATS_DIR

_U64 = np.uint64
_MASK60 = np.uint64((1 << 60) - 1)
_MOD60 = 1 << 60
_DIGEST = pa.binary(32)


def content_digests(arr: pa.Array) -> pa.FixedSizeBinaryArray:
    """``sha256`` of each row as 32 raw bytes, hashed straight off the
    Arrow utf-8 data buffer (no re-encode)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1]
    data = memoryview(bufs[2] if bufs[2] is not None else b"")
    return pa.array([hashlib.sha256(data[offs[i] : offs[i + 1]]).digest()
                     for i in range(len(arr))], type=_DIGEST)


def mix60(ids: np.ndarray) -> np.ndarray:
    """60-bit doc_id mixer whose every step is expressible in portable
    SQL (HUGEINT multiply + mod 2^60, xor, integer divide).  Keeping
    intermediates under 2^60 lets the oracle stay in signed BIGINT."""
    with np.errstate(over="ignore"):
        a = (ids.astype(_U64) * _U64(2654435761)) & _MASK60
        b = a ^ (a >> _U64(30))
        c = (b * _U64(2246822519)) & _MASK60
        return c ^ (c >> _U64(30))


def _words(digests: pa.Array, ids=None) -> np.ndarray:
    """Each row's 60-bit word: the digest's first 60 bits, big-endian —
    SQL ``CAST(concat('0x', substr(sha256(text), 1, 15)) AS BIGINT)`` —
    xor-ed with ``mix60(doc_id)`` when ``ids`` is given."""
    if isinstance(digests, pa.ChunkedArray):
        digests = digests.combine_chunks()
    if len(digests) == 0:
        return np.empty(0, dtype=_U64)
    w = np.frombuffer(digests.buffers()[1], dtype=">u8",
                      count=4 * len(digests), offset=32 * digests.offset)
    w = w[::4].astype(_U64) >> _U64(4)
    if ids is not None:
        w ^= mix60(ids.to_numpy(zero_copy_only=False))
    return w


def _fold(ds: ray.data.Dataset, words) -> dict:
    """``(count, sum mod 2^60, xor)`` of ``words(batch)`` over every
    block of ``ds``: one partial row per block, summed in this process
    (a uint64 sum wraps mod 2^64, which 2^60 divides)."""

    def partial(batch: pa.Table) -> pa.Table:
        w = words(batch)
        with np.errstate(over="ignore"):
            s = int(w.sum(dtype=_U64)) % _MOD60
        x = int(np.bitwise_xor.reduce(w)) if len(w) else 0
        return pa.table({"n": [len(w)], "s": [s], "x": [x]})

    n = s = x = 0
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        n += row["n"]
        s = (s + row["s"]) % _MOD60
        x ^= row["x"]
    return {"count": n, "sum60": s, "xor60": x}


def corpus_checksum(
    ds: ray.data.Dataset,
    content_col: str = "content",
    id_col: str | None = None,
) -> dict:
    """Multiset checksum of ``sha256(content)`` over a corpus Dataset.
    With ``id_col``, mixes each row's doc id into its word."""
    return _fold(ds, lambda b: _words(
        content_digests(b.column(content_col)),
        b.column(id_col) if id_col is not None else None))


def index_checksum(index_dir: str, check_ids: bool = False) -> dict:
    """Multiset checksum of the index's stored per-doc digests
    (docstats); refuses a docstats layout whose ``sha256`` is not 32
    raw bytes instead of misreading it."""
    docstats = os.path.join(index_dir, DOCSTATS_DIR)
    ds = ray.data.read_parquet(
        docstats, columns=["sha256"] + (["doc_id"] if check_ids else []))
    typ = ds.schema().base_schema.field("sha256").type
    if typ != _DIGEST:
        raise ValueError(
            f"{docstats}: sha256 column is {typ}, not {_DIGEST} (an "
            f"index of an older docterms format): rebuild the index")
    return _fold(ds, lambda b: _words(
        b.column("sha256"), b.column("doc_id") if check_ids else None))


def index_checksum60(index_dir: str) -> pa.Table:
    """One-row (n_docs, sum60, xor60) BIGINT table of the id-bound index
    checksum — the form the DuckDB oracle SQL computes from the source
    text."""
    c = index_checksum(index_dir, check_ids=True)
    return pa.table({
        "n_docs": pa.array([c["count"]], type=pa.int64()),
        "sum60": pa.array([c["sum60"]], type=pa.int64()),
        "xor60": pa.array([c["xor60"]], type=pa.int64()),
    })


def verify_index_content(
    corpus: ray.data.Dataset | str,
    index_dir: str,
    content_col: str = "content",
    check_ids: bool = True,
) -> dict:
    """Compare source-corpus content digests against the index's stored
    ones.  Returns a report dict with ``passed`` plus both checksums.

    ``corpus`` is the SAME parquet path/Dataset the index was built from
    (pre doc-id assignment); with ``check_ids`` the deterministic
    assignment is re-derived so digests are bound to their doc ids.
    """
    idx = index_checksum(index_dir, check_ids=check_ids)
    if isinstance(corpus, str):
        corpus = ray.data.read_parquet(corpus)
    id_col = None
    if check_ids:
        # mirror build_index: assign only when the corpus doesn't already
        # carry a dense doc_id column (assignment is deterministic and
        # partitioning-independent, so a re-run reproduces the build's ids)
        if "doc_id" not in corpus.schema().names:
            from .ids import assign_doc_ids

            corpus = assign_doc_ids(corpus)
        id_col = "doc_id"
    src = corpus_checksum(corpus, content_col=content_col, id_col=id_col)
    return {
        "passed": src == idx,
        "check_ids": check_ids,
        "source": src,
        "index": idx,
    }
