"""Distributed index build — the Ray-Data-native SPIMI equivalent.

Reference pipeline (/root/reference/engine/indexing/spimi.py:56-123): one
thread streams documents, accumulates an in-memory positional index, flushes
sorted buckets at a memory limit, then k-way heap-merges buckets into one
postings file + SQLite offset catalog + docWeights.bin.

Ray-Data-native rebuild:

  read_parquet(corpus)
    -> assign_doc_ids (one explicit global decision, ids.py)
    -> map_batches(TokenizeDocs tasks)               # SPIMI block ≙ Ray block
         emits per-doc rows: doc stats + per-term (tftd, VByte pos blob)
    -> explode + group by (bucket, term, doc) per block (docterms v7)
         -> write docterms/  (exploded postings, resumable intermediate)
         -> side-write docstats/ (per-doc title/doc_length/l_d/sha256,
            incl. zero-term docs; doc-range file names, idempotent)
    -> one docstats pass: ids tile 0..N-1, corpus scalars, docweights/
       (dense doc_length and l_d arrays in doc-id order, the reference's
       docWeights.bin)
  docterms -> exchange maps derive keys (NO sort, NO gather — runs are
              already contiguous on disk; doc lengths come from
              docweights/):
              shard   = doc_id // docs_per_shard      (bounds posting lists)
              bucket  = crc32(term) % num_buckets     (merge shuffle key)
              gkey    = shard * num_buckets + bucket  (reducer = gkey % P)
    -> groupby(gkey).map_groups(merge+encode)         # replaces heap merge
    -> segments/: one posting-list *fragment* per (term, shard).
       segment_NNNNN.bin holds each fragment's three VByte streams
       back to back (doc gaps folded with a tf==1 flag / tf exceptions
       / position gaps); segment_NNNNN.parquet is the catalog: term
       dictionary, df/cf/max_wdt, the three stream byte lengths and the
       skip-block metadata (last doc id, max wdt bound, byte offsets and
       posting count per ~128 postings)
  manifest.json: corpus scalars, per-stage lineage + per-file metrics,
       committed last -> a re-run skips completed stages (resume).

``docs_per_shard`` is the only doc-range split of a posting list: a term's
fragments are doc_id-range-disjoint, so the query reader concatenates them
in first-doc order and postings stay globally doc_id-sorted with no second
merge pass.  Like the reference, a hot term is never split further.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .tokenizer import TokenTermCache, analyze_document, euclidean_weight

MANIFEST_NAME = "manifest.json"

# corpus columns the tokenize stage reads; ID_COL is assigned by
# ids.assign_doc_ids when the corpus does not carry it
CONTENT_COL = "content"
TITLE_COL = "path"
ID_COL = "doc_id"

TOKENIZE_BATCH_SIZE = 64
# docterms block size: tokenize emits small blocks (TOKENIZE_BATCH_SIZE
# docs each), and the group step rebatches them to this many docs before
# it explodes and groups each block (the parquet writer then makes one
# row group per file, not per block).
DOCTERMS_BLOCK_ROWS = 4096
SEGMENT_ROW_GROUP_SIZE = 512

# Per-document weights, written once at build time in doc-id order (the
# reference's docWeights.bin, spimi.py:359-364): dense doc_length (int64)
# and l_d (float64) arrays, indexed by doc_id - doc_id_base.  A sibling
# of docstats/, never inside it: docstats readers scan that whole dir.
DOCWEIGHTS_DIR = "docweights"
# Per-document stats (doc_id, title, doc_length, l_d, sha256), one
# parquet file per dense doc-id run (``_write_docstats_block``).
DOCSTATS_DIR = "docstats"


def _as_array(col) -> pa.Array:
    """Normalize a Table column to a single contiguous pa.Array."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            # combine_chunks returns an Array on pyarrow>=16; on versions
            # where it can still yield a ChunkedArray, concatenate rather
            # than silently dropping data past the first chunk
            if col.num_chunks == 0:
                col = pa.array([], type=col.type)
            else:
                col = pa.concat_arrays(col.chunks)
    return col


def term_bucket(term: str, num_buckets: int) -> int:
    return zlib.crc32(term.encode("utf-8")) % num_buckets


@dataclass
class IndexBuildConfig:
    docs_per_shard: int = 1 << 20
    num_buckets: int = 32
    skip_block: int = 128
    # First doc id of this build (incremental indexing): a DELTA build
    # over new docs sets this to the existing index's num_docs so its id
    # space continues the base index's; ids must be dense
    # base..base+N-1.  A non-zero-base index is a merge input only —
    # the reader refuses to serve it until merge.merge_indexes folds it
    # into a zero-based generational index.
    doc_id_base: int = 0
    analyzer: str = "reference"  # key into tokenizer.ANALYZERS
    num_reducers: int | None = None  # postings-exchange reduce partitions

    def to_json(self) -> dict:
        return asdict(self)


_WORKER_CACHES: dict[str, TokenTermCache] = {}


def _worker_cache(analyzer: str) -> TokenTermCache:
    """Process-global stemmer/token cache.  Ray reuses worker processes
    across tasks, so a module-level cache gives actor-style state reuse
    for stateless task pools — without paying actor-pool spin-up (~5s for
    32 actors, measured) on every short build."""
    cache = _WORKER_CACHES.get(analyzer)
    if cache is None:
        cache = _WORKER_CACHES[analyzer] = TokenTermCache()
    return cache


class TokenizeDocs:
    """Tokenizer stage: per-batch vector output, run as a plain task
    function whose stemmer/token cache (the north-star 'stemmer cache'
    stateful stage) is the executing worker's process-global one
    (``_worker_cache``)."""

    def __init__(self, config: IndexBuildConfig):
        self.cfg = config

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .batch_tokenize import VECTORIZED_ANALYZERS

        cfg = self.cfg
        # resolved HERE (on the worker, not at driver pickle time) so the
        # cache is the executing process's one, shared across its tasks
        cache = _worker_cache(cfg.analyzer)
        content_arr = _as_array(batch.column(CONTENT_COL))
        if cfg.analyzer in VECTORIZED_ANALYZERS:
            from .batch_tokenize import analyze_batch
            from .verify import content_digests

            cols = analyze_batch(content_arr, cfg.analyzer, cache)
            return pa.table(
                {
                    "doc_id": _as_array(batch.column(ID_COL)).cast(
                        pa.int64()),
                    "title": _as_array(batch.column(TITLE_COL)),
                    "doc_length": pa.array(cols["doc_length"]),
                    "l_d": pa.array(cols["l_d"]),
                    "sha256": content_digests(content_arr),
                    "terms": cols["terms"],
                    "tftds": cols["tftds"],
                    "pos_blob": cols["pos_blob"],
                }
            )
        return self._call_per_doc(batch, cache)

    def _call_per_doc(self, batch: pa.Table, cache) -> pa.Table:
        """Per-doc fallback for analyzers without a vectorized batch path
        (e.g. spanish); also the parity oracle for the vectorized path."""
        from .tokenizer import ANALYZERS
        from .verify import content_digests

        cfg = self.cfg
        analyze = ANALYZERS[cfg.analyzer]
        contents = batch.column(CONTENT_COL).to_pylist()
        titles = batch.column(TITLE_COL).to_pylist()
        doc_ids = batch.column(ID_COL).to_pylist()

        out_doc_id, out_title, out_len, out_ld = [], [], [], []
        out_terms, out_tftds, out_positions = [], [], []
        for doc_id, title, content in zip(doc_ids, titles, contents):
            term_pos, doc_length = analyze(content, cache)
            # L_d includes the empty term (spimi.py:72-79,110-117); the
            # index itself never stores it (postionalinvertedindex.py:28).
            l_d = euclidean_weight(len(v) for v in term_pos.values())
            term_pos.pop("", None)
            terms = sorted(term_pos)
            out_doc_id.append(doc_id)
            out_title.append(title)
            out_len.append(doc_length)
            out_ld.append(l_d)
            out_terms.append(terms)
            out_tftds.append([len(term_pos[t]) for t in terms])
            out_positions.append([term_pos[t] for t in terms])
        return pa.table(
            {
                "doc_id": pa.array(out_doc_id, type=pa.int64()),
                "title": pa.array(out_title, type=pa.string()),
                "doc_length": pa.array(out_len, type=pa.int64()),
                "l_d": pa.array(out_ld, type=pa.float64()),
                "sha256": content_digests(batch.column(CONTENT_COL)),
                "terms": pa.array(out_terms, type=pa.list_(pa.string())),
                "tftds": pa.array(out_tftds, type=pa.list_(pa.int32())),
                "pos_blob": _encode_positions_nested(out_positions),
            }
        )


def _encode_positions_nested(out_positions: list) -> pa.ListArray:
    """Per-doc python lists of per-term position lists -> list<binary>
    of VByte gap blobs (docterms format v2); the per-doc fallback path's
    counterpart of the vectorized encode in batch_tokenize."""
    from . import vbyte

    nested = pa.array(out_positions, type=pa.list_(pa.list_(pa.int32())))
    return pa.ListArray.from_arrays(
        nested.offsets, vbyte.encode_position_lists(nested.flatten()))


_BUCKET_CACHES: dict[int, dict] = {}


def _bucket_of_uniq(uniq: np.ndarray, num_buckets: int) -> np.ndarray:
    """crc32 % B per DISTINCT term, memoized per worker process (with a
    realistic vocab every block repeats most terms; recomputing per block
    cost ~0.5 s/file at 20k distinct terms, measured)."""
    cache = _BUCKET_CACHES.setdefault(num_buckets, {})
    out = np.empty(len(uniq), dtype=np.int64)
    for i, t in enumerate(uniq):
        b = cache.get(t)
        if b is None:
            b = cache[t] = zlib.crc32(t.encode("utf-8")) % num_buckets
        out[i] = b
    return out


# Docterms on-disk postings layout: one row per (doc, term), grouped
# by (bucket, term) with doc ids ascending inside each group.  ``term``
# is dictionary-encoded (parquet dictionary pages -> exchange maps read
# codes, never flat strings); ``bucket`` is redundant with crc32(term)
# but RLE-compresses to ~nothing in this order and saves the map a hash
# pass.  A posting's doc length, for the BM25 wdt bounds, is gathered
# by the exchange map from the build's docweights array (docterms v5).
_POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.dictionary(pa.int32(), pa.string())),
        ("bucket", pa.int32()),
        ("doc_id", pa.int64()),
        ("tftd", pa.int32()),
        ("pos_blob", pa.binary()),
        # dense-segment id: the FIRST doc id of the dense-consecutive doc
        # run this posting's block slice came from (docterms v4).  Two
        # dense runs can never share their first doc, so the id is
        # globally unique per segment, and the fragment encoder breaks
        # runs on seg change — without it, two ASCENDING same-term runs
        # from segments whose ranges straddle a hole owned by another
        # segment (e.g. batch composed of blocks [0], [2..3] with [1]
        # elsewhere) would merge into one fragment whose doc RANGE
        # overlaps the other segment's fragment, aborting the reduce.
        # Constant per run -> RLE/dict-encodes to ~nothing on disk.
        ("seg", pa.int64()),
    ]
)

_DOCSTATS_COLS = ["doc_id", "title", "doc_length", "l_d", "sha256"]


def _group_segment(cfg: IndexBuildConfig, tok: pa.Table) -> pa.Table:
    """Explode + group ONE dense-consecutive-doc slice of a tokenized
    block by (bucket, term); docs stay ascending inside each group via
    the stable sort."""
    terms_col = _as_array(tok.column("terms"))
    lens = pa.compute.list_value_length(terms_col).to_numpy(
        zero_copy_only=False)
    flat_terms = terms_col.flatten()
    if len(flat_terms) == 0:
        return _POSTINGS_SCHEMA.empty_table()
    doc_np = _as_array(tok.column("doc_id")).to_numpy(zero_copy_only=False)
    doc_ids = np.repeat(doc_np, lens)
    tftds = _as_array(tok.column("tftds")).flatten().to_numpy(
        zero_copy_only=False)
    pos_blob = _as_array(tok.column("pos_blob")).flatten()
    if isinstance(flat_terms, pa.DictionaryArray):
        dic = flat_terms
    else:
        dic = flat_terms.dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False)
    uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
    uniq_buckets = _bucket_of_uniq(uniq, cfg.num_buckets)
    # single packed key, stable: (bucket, term-code) groups with the
    # original (ascending-doc) order preserved inside each group.  The
    # key stays int32 when it fits (typical: vocab x buckets << 2^31) —
    # a one-pass int32 argsort moves half the bytes of an int64 one.
    V = len(uniq)
    if V * cfg.num_buckets < (1 << 31):
        key = uniq_buckets.astype(np.int32)[codes] * np.int32(V) \
            + codes.astype(np.int32)
    else:
        key = uniq_buckets[codes] * np.int64(V) + codes.astype(np.int64)
    order = np.argsort(key, kind="stable")
    codes_s = codes[order]
    return pa.table(
        {
            "term": pa.DictionaryArray.from_arrays(
                pa.array(codes_s.astype(np.int32, copy=False)),
                dic.dictionary),
            "bucket": pa.array(
                uniq_buckets[codes_s].astype(np.int32, copy=False)),
            "doc_id": pa.array(doc_ids[order], type=pa.int64()),
            "tftd": pa.array(tftds[order].astype(np.int32, copy=False)),
            "pos_blob": pos_blob.take(pa.array(order)),
            "seg": pa.array(
                np.full(order.size, doc_np[0], dtype=np.int64)),
        },
        schema=_POSTINGS_SCHEMA,
    )


def _group_postings_batch(
    cfg: IndexBuildConfig, tok: pa.Table
) -> tuple[pa.Table, pa.Table]:
    """One tokenized block (v2-shaped per-doc rows) -> (exploded postings
    grouped by (bucket, term, doc), per-doc docstats rows).

    Correctness of the grouping contract (what the exchange relies on):
    fragments of one term must cover DISJOINT doc ranges with docs
    ascending inside each fragment.  Doc ids are dense 0..N-1, so any
    position where ``diff(doc_id) != 1`` marks a seam between upstream
    blocks the (order-unconstrained) streaming executor interleaved into
    this batch; the batch is split there and each dense-CONSECUTIVE
    segment is grouped independently — two dense consecutive runs from
    different batches can never overlap (they would share a doc id).
    Within a segment, shard (= doc // docs_per_shard) is non-decreasing
    in doc, so every (gkey, term) run the exchange map derives later is
    a CONTIGUOUS ascending-doc slice of the file — no
    sort, no gather on the exchange side, and no ``preserve_order``
    pipeline throttle on this side (measured +13%% tokenize wall)."""
    docstats = tok.select(_DOCSTATS_COLS)
    doc_np = _as_array(tok.column("doc_id")).to_numpy(zero_copy_only=False)
    if doc_np.size == 0:
        return _POSTINGS_SCHEMA.empty_table(), docstats
    bounds = _dense_run_bounds(doc_np)
    if len(bounds) == 2:
        return _group_segment(cfg, tok), docstats
    parts = [
        _group_segment(cfg, tok.slice(a, b - a))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return _POSTINGS_SCHEMA.empty_table(), docstats
    if len(parts) == 1:
        return parts[0], docstats
    return pa.concat_tables(parts).combine_chunks(), docstats


def _dense_run_bounds(ids: np.ndarray) -> list[int]:
    """Slice bounds of the maximal dense-consecutive runs of ``ids``
    (ascending, step 1): returns [0, b1, ..., len].  Both the postings
    grouping (fragments must not cross a dense seam) and the docstats
    file naming (one exactly-dense [lo..hi] file per run) depend on the
    SAME seam positions — computed here once so they cannot diverge."""
    breaks = np.flatnonzero(np.diff(ids) != 1) + 1
    return [0, *breaks.tolist(), ids.size]


def _write_docstats_block(docstats_dir: str, tbl: pa.Table) -> None:
    """Side-write one block's per-doc stats, ONE FILE PER DENSE-CONSECUTIVE
    doc-id run.  A rebatched block can interleave dense segments from
    different upstream blocks (the same seam phenomenon the postings
    grouping splits on); naming a multi-segment block by its overall
    (min, max) produced files whose doc RANGES overlapped other blocks'
    even though the doc SETS were disjoint — tripping write_doc_weights'
    disjoint-range invariant on any sufficiently interleaved build.
    Writing each dense run as its own file keeps every file an exactly
    dense [lo..hi] range, so file ranges are pairwise disjoint across
    the job (two dense runs cannot overlap without sharing a doc id)
    and a retried task rewrites the SAME files via tmp + atomic rename —
    idempotent under Ray task retries."""
    if tbl.num_rows == 0:
        return
    import uuid

    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    bounds = _dense_run_bounds(ids)
    os.makedirs(docstats_dir, exist_ok=True)
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = tbl.slice(a, b - a)
        name = f"docstats_{int(ids[a]):012d}_{int(ids[b - 1]):012d}.parquet"
        tmp = os.path.join(docstats_dir, f".{name}.{uuid.uuid4().hex}.tmp")
        pq.write_table(seg, tmp)
        os.replace(tmp, os.path.join(docstats_dir, name))


def _explode_arrays(
    cfg: IndexBuildConfig, batch: pa.Table, doc_length: np.ndarray,
) -> dict | None:
    """docterms postings table -> flat per-(doc, term) arrays for the
    exchange, IN FILE ORDER (already grouped by (bucket, term, doc) at
    tokenize time — see ``_group_postings_batch``): no sort, no gather
    of the payload.  ``doc_length`` is the build's docweights array
    (indexed by doc_id - doc_id_base); each posting's length is gathered
    from it for the wdt bounds.

    Positions arrive ALREADY VByte-encoded per row (since v2) and now
    already fragment-contiguous and seam-stamped (v4), so the map slices final on-disk
    bytes straight off the parquet buffers.  Term identity comes from
    dictionary codes (parquet dictionary pages via ``read_dictionary``
    — no per-term re-hash of a flat string column), and the bucket rides
    as an RLE-compressed column, so the only per-posting compute left is
    the exchange key (shard * num_buckets + bucket) and the wdt-bound
    quantization."""
    term_col = batch.column("term")
    if isinstance(term_col, pa.ChunkedArray):
        term_col = term_col.combine_chunks()  # unifies chunk dictionaries
    if not isinstance(term_col, pa.DictionaryArray):
        term_col = term_col.dictionary_encode()
    if len(term_col) == 0:
        return None
    codes = term_col.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = np.asarray(term_col.dictionary.to_pylist(), dtype=object)

    doc_ids = _as_array(batch.column("doc_id")).to_numpy(
        zero_copy_only=False)
    dls = doc_length[doc_ids - cfg.doc_id_base]
    tftds = _as_array(batch.column("tftd")).to_numpy(zero_copy_only=False)
    pos_blob = _as_array(batch.column("pos_blob"))
    buckets = _as_array(batch.column("bucket")).to_numpy(
        zero_copy_only=False).astype(np.int64)
    segs = _as_array(batch.column("seg")).to_numpy(zero_copy_only=False)

    gkey = (doc_ids // cfg.docs_per_shard) * cfg.num_buckets + buckets

    return {
        "codes": codes,
        "uniq": uniq,
        "doc_ids": doc_ids,
        "dls": dls,
        "tftds": tftds,
        "pos_blob": pos_blob,
        "gkey": gkey,
        "seg": segs,
    }


_SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("bucket", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("max_wdt", pa.float64()),
        # byte lengths of the row's three streams in the segment's .bin,
        # stored back to back in row order (format v6): the reader
        # derives each row's offset with one cumsum at open
        ("doc_len", pa.int32()),    # VByte gap<<1 | (tf==1) stream
        ("tf_len", pa.int32()),     # VByte tf exceptions (tf != 1 only)
        ("pos_len", pa.int32()),    # VByte position gaps
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_max_wdt", pa.list_(pa.float64())),
        ("skip_offset", pa.list_(pa.int64())),     # block start, doc stream
        ("skip_tf_offset", pa.list_(pa.int64())),  # block start, tf stream
        ("skip_count", pa.list_(pa.int32())),      # postings per block (v4)
    ]
)


def segment_bin_path(parquet_path: str) -> str:
    """The postings file that belongs to a segment parquet (format v6)."""
    return os.path.splitext(parquet_path)[0] + ".bin"

# Wire schema of the postings exchange (exchange wire v2): maps ship
# PRE-ENCODED per-term posting-list fragments — the final VByte streams
# plus their skip summaries — instead of per-posting rows.  A fragment is
# one (docterms file, gkey, term) run: its doc range is contiguous and
# disjoint from every other fragment of the same (gkey, term), so the
# reducer merges fragments by pure byte concatenation (rewriting only each
# non-first fragment's leading absolute doc id into a gap) — no re-sort,
# no re-encode, ~8x fewer wire bytes than the per-posting row wire
# (measured 4.0 GB -> ~0.5 GB at 1M docs).  Offsets/stats ride in the
# narrowest dtype that fits (int32 offsets within a fragment, uint8
# quantized wdt bounds); the reducer widens to the segment schema.
_WIRE_SCHEMA = pa.schema(
    [
        ("gkey", pa.int64()),
        ("term", pa.string()),
        ("df", pa.int32()),
        ("cf", pa.int64()),
        ("max_wq", pa.uint8()),
        ("first_doc", pa.int64()),   # absolute doc id of the first posting
        ("blob", pa.binary()),       # VByte gap<<1 | (tf==1), first absolute
        ("tf_blob", pa.binary()),    # VByte tftds of the tf != 1 postings
        ("pos_blob", pa.binary()),   # concatenated per-posting VByte blobs
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_max_wq", pa.list_(pa.uint8())),
        ("skip_offset", pa.list_(pa.int32())),     # within-fragment bytes
        ("skip_tf_offset", pa.list_(pa.int32())),
    ]
)

# Segment layout version, folded into stage fingerprints so an index built
# by an older code revision is rebuilt rather than misread.  v3: the doc/tf
# stream is split into two per-term columns (blob = gaps, tf_blob = tftds)
# — the interleaved 2n-wide uint64 stream build was the single largest
# memory-traffic source on the bandwidth-bound reduce side.  v4: skip
# blocks carry an explicit per-block posting count (``skip_count``) —
# fragment-encoded exchange merges fragments by byte concat, so block
# sizes at fragment seams are irregular (coalesced up to ~skip_block).
# v5: the per-block max-tftd skip column is dropped (nothing read it; the
# WAND block bounds are ``skip_max_wdt``).  v6: the three streams leave the
# parquet for one byte-addressed ``.bin`` per segment (a term fetch is one
# ``os.pread``, not a row-group read), and the tf stream is folded into the
# doc stream Lucene-style: each doc-gap value is ``gap<<1 | (tf==1)`` and
# only tf != 1 values are stored, as VByte "exceptions" (snappy no longer
# squeezes the mostly-1 tf bytes, so the fold keeps the index size level).
# v7: the catalog's ``salt`` column is gone — ``docs_per_shard`` is the
# only doc-range split, so a build writes one row per (term, shard).
SEGMENT_FORMAT = 7

# Docterms (resumable intermediate) layout version, folded into the stage
# fingerprints the same way.  v2: positions stored as per-(doc,term) VByte
# gap blobs (list<binary> pos_blob) encoded in the tokenize stage, not raw
# list<list<int32>> encoded in the exchange maps — the encode runs in the
# embarrassingly-parallel stage and docterms shrinks ~4x on positions.
# v3: postings land on disk EXPLODED and PRE-GROUPED by (bucket, term,
# doc) — the tokenize stage pays the one unavoidable gather of the
# position payload, so the exchange maps slice fragments straight off the
# parquet buffers with no argsort and no take (the sort+gather was 60% of
# map CPU, measured, in the ONE stage that doesn't scale on a shared
# bus); per-doc metadata (title, doc_length, l_d, sha256 — including
# zero-term docs) moves to a small sibling ``docstats/`` directory.
# v4: every posting row carries its dense-segment id (``seg`` = first
# doc of its dense-consecutive run) so the fragment encoder never merges
# runs across segment seams — ascending-but-hole-straddling merges made
# fragment doc ranges overlap under interleaved executor rebatching
# (caught by the reducer backstop as a spurious build abort; found by
# the round-5 hypothesis property test over random segment packings).
# v5: the per-posting ``doc_length`` column is gone — the exchange maps
# gather it from the build's docweights array (13% of docterms bytes).
# v6: one parquet row group per file, and the stage marker carries the
# corpus scalars (num_docs, total_tokens) that the docstats pass derives
# at the end of the stage — a v5 marker has none, so its index rebuilds.
# v7: docstats store ``sha256`` as 32 raw bytes (fixed_size_binary(32)),
# not a 64-char hex string — verify refuses the old layout ("rebuild").
DOCTERMS_FORMAT = 7

BM25_K1 = 1.2
BM25_B = 0.75


def bm25_wdt(tftds: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    """Okapi wdt exactly as the reference computes it
    (/root/reference/engine/querying/rankedquery.py:22): k1=1.2, b=0.75."""
    tf = tftds.astype(np.float64)
    return (BM25_K1 + 1.0) * tf / (
        BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dls / avgdl)) + tf
    )


# wdt < k1+1 = 2.2, so ceil(wdt * 115) fits uint8 (max 253).  The exchange
# ships this 1-byte upper bound instead of the 4-byte per-row doc length:
# max_wdt / skip_max_wdt are ONLY WAND pruning bounds (ranked.py:209,244),
# and a quantized-UP bound keeps block-max WAND exact while cutting both
# shuffle bytes and the reduce-side float work (exact scorers recompute
# wdt from tftd + doc stats at query time).
WDT_QUANT = 115.0


def wdt_quantized(tftds: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    return np.ceil(bm25_wdt(tftds, dls, avgdl) * WDT_QUANT).astype(np.uint8)


def _pin_arrow_threads() -> None:
    """Cap Arrow's internal pools inside Ray tasks.  Arrow defaults to one
    thread per hardware core *per process*; with 32 concurrent single-CPU
    tasks that is 1024 threads fighting over 32 cores (measured: the
    postings exchange ran 2.4x slower at 32 CPUs than at 8 until pinned)."""
    try:
        if pa.cpu_count() > 2:
            pa.set_cpu_count(2)
            pa.set_io_thread_count(2)
    except (RuntimeError, OSError):
        pass


# Uncompressed IPC, deliberately: LZ4 frames were measured on this box
# (1M docs, 16 CPUs) to shrink blobs only 28% (gaps/tftd/pos are already
# VByte-packed) while adding ~400 CPU-s of (de)compression — a net loss,
# because plasma transfer is a single memcpy per side while the codec adds
# full extra passes over the data on a memory-bandwidth-starved host.
_IPC_OPTS = pa.ipc.IpcWriteOptions()


def _ipc_bytes(tbl: pa.Table) -> bytes:
    """Serialize a run table as an uncompressed IPC stream (see _IPC_OPTS
    note above; per-frame compression was a measured net loss here)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema, options=_IPC_OPTS) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


@ray.remote
def _map_runs(
    paths: list[str], cfg: IndexBuildConfig, num_reducers: int,
    avgdl: float, doc_length_path: str,
):
    """Map side of the postings exchange: a group of docterms files -> one
    stream of PRE-ENCODED posting-list fragments per reduce partition.

    Raw Ray task (not a Dataset op) by design: Ray Data's sort-based
    groupby materialises an M x M task grid whose fixed scheduling cost
    *grows* with parallelism — measured 2.8s @ 8 cpus vs 13.6s @ 32 cpus
    for the identical 50k-doc merge, inverting scaling.  A classic
    map/reduce exchange with ``num_returns=num_reducers`` is M + P tasks
    and M x P objects (the information-theoretic minimum for a shuffle),
    and each reducer fetches only its own partition.  A fragment goes to
    reducer ``gkey % num_reducers``: the keys ``shard * num_buckets +
    bucket`` are a dense range, so reducer key counts differ by at most
    one.  One extra return carries the task's phase profile to the
    driver.

    Wire layout (exchange v2): one Arrow IPC stream of ``_WIRE_SCHEMA``
    fragment rows per (docterms file, reducer) — each row is one
    (gkey, term) run of the file, already VByte-encoded with its skip
    summaries (see ``_WIRE_SCHEMA`` note).  The encode happens HERE, in
    the wide map wave, so the reduce side — the stage that pins scaling
    on a shared memory bus — touches ~index-sized bytes, not
    ~posting-row-sized bytes.
    """
    _pin_arrow_threads()
    t_task = time.perf_counter()
    prof = {"read": 0.0, "explode": 0.0, "encode": 0.0, "pack": 0.0,
            "bytes_out": 0}
    out: list[list[bytes]] = [[] for _ in range(num_reducers)]
    doc_length = np.load(doc_length_path, mmap_mode="r")
    for path in paths:
        t = time.perf_counter()
        tbl = pq.read_table(
            path,
            columns=["term", "bucket", "doc_id", "tftd", "pos_blob", "seg"],
            read_dictionary=["term"],
        )
        prof["read"] += time.perf_counter() - t
        t = time.perf_counter()
        arrs = _explode_arrays(cfg, tbl, doc_length)
        prof["explode"] += time.perf_counter() - t
        if arrs is None:
            continue
        # docterms v4: rows arrive grouped by (bucket, term, doc) from the
        # tokenize stage, and shard is non-decreasing in doc within each
        # group — every (gkey, term) run is ALREADY a contiguous
        # ascending-doc slice.  The sort+gather the v2 map did here (60%
        # of map CPU, measured) is gone.
        t = time.perf_counter()
        gk = arrs["gkey"]
        codes_s = arrs["codes"]
        pos_s = arrs["pos_blob"]
        doc_s = arrs["doc_ids"]
        wq_s = wdt_quantized(arrs["tftds"], arrs["dls"], avgdl)
        tf_s = arrs["tftds"]
        uniq = arrs["uniq"]
        # encode + pack per file (not per task) so each file's exploded
        # arrays can be freed before the next file is read — slices keep
        # their parent buffers alive, and holding a whole file group's
        # data made big maps page-cache hostile at the 2M-doc scale
        frag_tbl, frag_gkeys = _encode_file_fragments(
            cfg, gk, codes_s, doc_s, wq_s, tf_s, pos_s, uniq,
            seg=arrs["seg"],
        )
        prof["encode"] += time.perf_counter() - t
        t = time.perf_counter()
        reds = frag_gkeys % num_reducers
        for r in np.unique(reds):
            idx = np.flatnonzero(reds == r)
            # take() compacts the referenced buffer ranges so each wire
            # stream carries only its own fragments' bytes
            blob = _ipc_bytes(frag_tbl.take(pa.array(idx)))
            prof["bytes_out"] += len(blob)
            out[int(r)].append(blob)
        prof["pack"] += time.perf_counter() - t
    prof["wall"] = time.perf_counter() - t_task
    return [*out, prof]


def _encode_file_fragments(
    cfg: IndexBuildConfig,
    gk: np.ndarray,
    codes: np.ndarray,
    doc: np.ndarray,
    wq: np.ndarray,
    tf32: np.ndarray,
    pos_arr: pa.Array,
    uniq: np.ndarray,
    seg: np.ndarray | None = None,
) -> tuple[pa.Table, np.ndarray]:
    """One docterms file's sorted postings -> a ``_WIRE_SCHEMA`` fragment
    table, one row per (gkey, term) run, fully VByte-encoded.

    Inputs are the file's posting arrays with every (gkey, term) run
    CONTIGUOUS and doc ids ascending inside each run (docterms v4 files
    are written this way by the tokenize stage; the same run may appear
    more than once per file after block coalescing — each occurrence
    becomes its own fragment and the reducer merges them by first_doc).
    ONE global VByte encode + cumsum
    covers every run; per-run blobs are zero-copy offset slices over the
    shared buffers (compacted later by the per-reducer ``take``).
    Returns (fragment table, per-row gkey array) for reducer routing.
    """
    from . import vbyte

    skip_n = cfg.skip_block
    n = gk.size
    # doc gaps: absolute at run start, delta inside the run.  int32 when
    # every absolute doc id fits — halves encode-path memory traffic.
    if int(doc.max()) < (1 << 31):
        doc_n = doc.astype(np.int32, copy=False)
    else:
        doc_n = doc
    new = np.empty(n, dtype=bool)
    new[0] = True
    # Break a run on (gkey, term) change, on any non-ascending doc id,
    # AND on dense-segment change (docterms v4 ``seg`` column):
    # one docterms file can hold two dense segments whose group orders
    # abut on the same (gkey, term) — e.g. segment A ends with term t and
    # segment B starts with it.  Treating that as one run would either
    # delta-encode a non-positive seam gap (which _as_unsigned silently
    # wraps into a huge doc id) when B's docs are lower, or — when B's
    # docs happen to be ASCENDING past A's — produce one fragment whose
    # doc RANGE spans the hole between the segments, overlapping a third
    # segment's fragment that owns docs inside that hole and tripping
    # the reducer's disjoint-range check on perfectly legal executor
    # rebatching.  A fragment never crosses a segment seam, so its range
    # stays inside its dense run and ranges are provably pairwise
    # disjoint (two dense runs cannot overlap without sharing a doc id);
    # the reducer merges fragments by first_doc and its seam check
    # guards the inter-fragment gaps.
    new[1:] = (
        (gk[1:] != gk[:-1])
        | (codes[1:] != codes[:-1])
        | (doc_n[1:] <= doc_n[:-1])
    )
    if seg is not None:
        new[1:] |= seg[1:] != seg[:-1]
    run_starts = np.flatnonzero(new)
    run_ends = np.append(run_starts[1:], n)
    n_frag = run_starts.size

    gap = np.empty(n, dtype=doc_n.dtype)
    gap[0] = 0
    np.subtract(doc_n[1:], doc_n[:-1], out=gap[1:])
    gap[run_starts] = doc_n[run_starts]
    # By construction every intra-run gap is now > 0; keep a loud guard so
    # any future refactor of the break condition fails here instead of
    # VByte-encoding a wrapped unsigned value.
    if n > 1 and int(np.min(gap, initial=1, where=~new)) <= 0:
        raise ValueError(
            "non-positive intra-run doc gap in docterms fragment encode; "
            "run-break invariant violated"
        )
    # DocDelta fold (format v6): the low bit flags tf == 1, so only the
    # other tfs need a stream of their own.  A doc id < 2**31 still fits
    # uint32 after the shift.
    udt = np.uint32 if doc_n.dtype == np.int32 else np.uint64
    tf_one = tf32 == 1
    gap = (gap.astype(udt) << udt(1)) | tf_one.astype(udt)
    blen_d = vbyte.encoded_lengths(gap)
    dbyte_ends = np.cumsum(blen_d, dtype=np.int64)
    if int(dbyte_ends[-1]) >= 2**31 - 1:
        raise ValueError(
            "docterms file fragment stream exceeds 2 GB binary-offset "
            "range"
        )
    dbyte_ends = dbyte_ends.astype(np.int32)
    dbyte_starts = dbyte_ends - blen_d
    encoded_d = vbyte.encode(gap, blen_d)
    frag_d_start = dbyte_starts[run_starts]
    frag_d_end = dbyte_ends[run_ends - 1]

    # tf exceptions: the tftds != 1, in posting order; a posting's byte
    # start is the bytes of the exceptions before it, so fragments and
    # skip blocks address the stream like the doc stream
    blen_t = np.where(tf_one, np.uint8(0), vbyte.encoded_lengths(tf32))
    tbyte_ends = np.cumsum(blen_t, dtype=np.int64)
    if int(tbyte_ends[-1]) >= 2**31 - 1:
        raise ValueError(
            "docterms file tf stream exceeds 2 GB binary-offset range"
        )
    tbyte_ends = tbyte_ends.astype(np.int32)
    tbyte_starts = tbyte_ends - blen_t
    exc = ~tf_one
    encoded_t = vbyte.encode(tf32[exc], blen_t[exc])
    frag_t_start = tbyte_starts[run_starts]
    frag_t_end = tbyte_ends[run_ends - 1]

    # positions: rows are already doc-ordered and contiguous in pos_arr's
    # data buffer (it was gathered in sorted order), so a fragment's pos
    # stream is a pure byte range
    off_width = 8 if pa.types.is_large_binary(pos_arr.type) else 4
    pos_row_off = np.frombuffer(
        pos_arr.buffers()[1],
        dtype=np.int64 if off_width == 8 else np.int32,
        count=len(pos_arr) + 1, offset=off_width * pos_arr.offset,
    )
    if int(pos_row_off[n]) >= 2**31 - 1:
        raise ValueError(
            "docterms file position stream exceeds 2 GB binary-offset range"
        )
    frag_p_start = pos_row_off[run_starts].astype(np.int32)
    frag_p_end = pos_row_off[run_ends].astype(np.int32)
    pos_data = pos_arr.buffers()[2]

    # per-fragment stats
    tf64 = tf32.astype(np.int64)
    df32 = (run_ends - run_starts).astype(np.int32)
    cf = np.add.reduceat(tf64, run_starts)
    max_wq = np.maximum.reduceat(wq, run_starts)
    first_doc = doc[run_starts].astype(np.int64)

    # skip blocks: skip_n-regular within the fragment (the reducer
    # coalesces irregular seam blocks after concat)
    nblocks = (df32.astype(np.int64) + skip_n - 1) // skip_n
    tot_blocks = int(nblocks.sum())
    block_frag = np.repeat(np.arange(n_frag), nblocks)
    first_block = np.cumsum(nblocks) - nblocks
    within = np.arange(tot_blocks) - first_block[block_frag]
    gbs = run_starts[block_frag] + skip_n * within
    gbe = np.minimum(gbs + skip_n, run_ends[block_frag])
    skip_last_v = doc[gbe - 1].astype(np.int64)
    skip_max_wq_v = np.maximum.reduceat(wq, gbs)
    skip_off_v = (dbyte_starts[gbs] - frag_d_start[block_frag]).astype(
        np.int32)
    skip_tf_off_v = tbyte_starts[gbs] - frag_t_start[block_frag]
    list_off = pa.array(
        np.concatenate([[0], np.cumsum(nblocks)]).astype(np.int32))

    def _bin(starts: np.ndarray, end_last: int, buf) -> pa.Array:
        offs = np.empty(n_frag + 1, dtype=np.int32)
        offs[:-1] = starts
        offs[-1] = end_last
        return pa.Array.from_buffers(
            pa.binary(), n_frag,
            [None, pa.py_buffer(offs.tobytes()),
             buf if isinstance(buf, pa.Buffer) else pa.py_buffer(buf)],
        )

    term_strings = pa.array(uniq, type=pa.string()).take(
        pa.array(codes[run_starts]))
    frag_gkeys = gk[run_starts]
    tbl = pa.table(
        {
            "gkey": pa.array(frag_gkeys, type=pa.int64()),
            "term": term_strings,
            "df": pa.array(df32),
            "cf": pa.array(cf, type=pa.int64()),
            "max_wq": pa.array(max_wq, type=pa.uint8()),
            "first_doc": pa.array(first_doc, type=pa.int64()),
            "blob": _bin(frag_d_start, int(frag_d_end[-1]), encoded_d),
            "tf_blob": _bin(frag_t_start, int(frag_t_end[-1]), encoded_t),
            "pos_blob": _bin(frag_p_start, int(frag_p_end[-1]), pos_data),
            "skip_last_doc": pa.ListArray.from_arrays(
                list_off, pa.array(skip_last_v, type=pa.int64())),
            "skip_max_wq": pa.ListArray.from_arrays(
                list_off, pa.array(skip_max_wq_v, type=pa.uint8())),
            "skip_offset": pa.ListArray.from_arrays(
                list_off, pa.array(skip_off_v)),
            "skip_tf_offset": pa.ListArray.from_arrays(
                list_off, pa.array(skip_tf_off_v.astype(np.int32))),
        },
        schema=_WIRE_SCHEMA,
    )
    return tbl, frag_gkeys


def _finalize_segment(
    tables: list,
    cfg: IndexBuildConfig,
    avgdl: float,
    out_path: str,
    prof: dict,
):
    """Merge the accumulated pre-encoded fragments and write one segment
    idempotently: its ``.bin`` postings file, then its catalog parquet
    (each tmp + atomic rename; the reader refuses a ``.bin`` whose size
    disagrees with its parquet's rows).

    Fragments of the same (gkey, term) are doc-range disjoint (one per
    docterms file, files cover disjoint dense doc-id ranges), so the
    merge is ONE vectorized pass over the whole partition:

    - sort fragment rows by (gkey, term rank, first_doc);
    - the merged doc stream is the byte concatenation of the fragments'
      doc streams with each NON-first fragment's leading value rewritten
      from ``first<<1 | flag`` (an absolute doc id) to
      ``(first - prev_last)<<1 | flag`` (the gap from the previous
      fragment's last doc, tf==1 flag kept), so gaps stay continuous
      across the whole list — tf-exception and pos streams concatenate
      as-is;
    - skip summaries concatenate with byte-offset shifts, then adjacent
      sub-``skip_block`` seam blocks coalesce up to ~skip_block postings
      (``skip_count`` records each block's true size — format v4);
    - each merged row's doc, tf and pos bytes go back to back into the
      ``.bin``, and the parquet keeps their three lengths (format v6).

    No posting is decoded or re-encoded: the reduce side of the shuffle
    moves ~index-sized bytes, which is what lets the exchange scale
    past the one-bus copy roofline that pinned the row-wire design.
    """
    from . import vbyte

    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    skip_n = cfg.skip_block
    B = cfg.num_buckets
    _pt = time.perf_counter()
    try:
        T = pa.concat_tables(tables).combine_chunks()
    except pa.ArrowInvalid as e:
        # binary columns overflow int32 offsets at ~2 GB per partition —
        # surface the scale dial instead of Arrow's bare offset error
        raise ValueError(
            "reduce partition's fragment payload exceeds the 2 GB "
            "binary-offset range; raise num_reducers so partitions stay "
            f"smaller ({e})"
        ) from e
    n = T.num_rows
    gk = T.column("gkey").chunk(0).to_numpy()
    denc = T.column("term").chunk(0).dictionary_encode()
    codes = denc.indices.to_numpy().astype(np.int64)
    vocab = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    rank_of = np.empty(len(vocab), dtype=np.int64)
    rank_of[np.argsort(vocab, kind="stable")] = np.arange(len(vocab))
    ranks = rank_of[codes]
    fd = T.column("first_doc").chunk(0).to_numpy()
    order = np.lexsort((fd, ranks, gk))
    Ts = T.take(pa.array(order)).combine_chunks()
    gk_s = gk[order]
    ranks_s = ranks[order]
    fd_s = fd[order].astype(np.int64)

    def col(name: str) -> pa.Array:
        return Ts.column(name).chunk(0)

    df64 = col("df").to_numpy().astype(np.int64)
    cf_f = col("cf").to_numpy()
    maxwq_f = col("max_wq").to_numpy()
    blob_a = col("blob")
    tf_a = col("tf_blob")
    pos_a = col("pos_blob")

    # merged-term boundaries over the sorted fragment rows
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (gk_s[1:] != gk_s[:-1]) | (ranks_s[1:] != ranks_s[:-1])
    t_starts = np.flatnonzero(new)
    t_ends = np.append(t_starts[1:], n)
    n_terms = t_starts.size
    frags_per_term = t_ends - t_starts

    # skip-list columns -> flat values + per-fragment block counts
    last_col = col("skip_last_doc")
    nb = pa.compute.list_value_length(last_col).to_numpy().astype(np.int64)
    last_vals = last_col.flatten().to_numpy()
    maxwq_vals = col("skip_max_wq").flatten().to_numpy()
    off_vals = col("skip_offset").flatten().to_numpy().astype(np.int64)
    tfoff_vals = col("skip_tf_offset").flatten().to_numpy().astype(np.int64)
    frag_last = last_vals[np.cumsum(nb) - 1]

    # first-gap rewrite: non-first fragments' leading absolute doc id
    # becomes the gap from the previous fragment's last doc; the leading
    # value's low (tf==1) bit is the first byte's low bit, and it stays
    blob_off = np.frombuffer(
        blob_a.buffers()[1], dtype=np.int32, count=n + 1,
        offset=4 * blob_a.offset,
    ).astype(np.int64)
    blob_data = memoryview(blob_a.buffers()[2])
    flag = (np.frombuffer(blob_data, dtype=np.uint8)[blob_off[:-1]]
            & 1).astype(np.int64)
    prev_last = np.empty(n, dtype=np.int64)
    prev_last[0] = 0
    prev_last[1:] = frag_last[:-1]
    new_first = np.where(new, fd_s, fd_s - prev_last)
    if np.any(new_first[~new] <= 0):
        # overlapping fragment doc ranges would VByte-encode a non-
        # positive seam gap and corrupt the merged list — this means the
        # tokenize stage emitted interleaved doc ranges (preserve_order
        # violated or ids not ascending); fail loudly, never corrupt
        raise ValueError(
            "fragments of one term cover overlapping doc ranges; the "
            "docterms v4 disjoint-range invariant is broken (rebuild "
            "with ids.assign_doc_ids-ordered input)"
        )
    old_first = (fd_s << 1) | flag
    new_first = (new_first << 1) | flag
    old_len = vbyte.encoded_lengths(old_first).astype(np.int64)
    new_len8 = vbyte.encoded_lengths(new_first)
    new_len = new_len8.astype(np.int64)
    nf_buf = vbyte.encode(new_first, new_len8)
    frag_len = blob_off[1:] - blob_off[:-1]
    out_frag_len = frag_len - old_len + new_len

    # tf/pos streams are pure byte ranges: the take() above compacted
    # fragment payloads contiguous in sorted order
    def _offsets(arr: pa.Array) -> np.ndarray:
        return np.frombuffer(
            arr.buffers()[1], dtype=np.int32, count=n + 1,
            offset=4 * arr.offset,
        ).astype(np.int64)

    def _data(arr: pa.Array) -> memoryview:
        buf = arr.buffers()[2]
        return memoryview(buf if buf is not None else b"")

    tf_off_all = _offsets(tf_a)
    pos_off_all = _offsets(pos_a)
    doc_len = np.add.reduceat(out_frag_len, t_starts)
    tf_len = tf_off_all[t_ends] - tf_off_all[t_starts]
    pos_len = pos_off_all[t_ends] - pos_off_all[t_starts]

    # the .bin's byte pieces: per fragment (rewritten first value, rest
    # of its doc stream), then per term its tf and pos ranges.  ``slot``
    # places them in file order — term by term, each term's fragments'
    # doc pieces followed by its tf and pos pieces.
    nf_ends = np.cumsum(new_len)
    nf_starts = nf_ends - new_len
    nf_mv = memoryview(nf_buf)
    tf_data, pos_data = _data(tf_a), _data(pos_a)
    sources = (
        [nf_mv[a:b] for a, b in zip(nf_starts.tolist(), nf_ends.tolist())]
        + [blob_data[a:b] for a, b in zip(
            (blob_off[:-1] + old_len).tolist(), blob_off[1:].tolist())]
        + [tf_data[a:b] for a, b in zip(
            tf_off_all[t_starts].tolist(), tf_off_all[t_ends].tolist())]
        + [pos_data[a:b] for a, b in zip(
            pos_off_all[t_starts].tolist(), pos_off_all[t_ends].tolist())]
    )
    term_of_frag = np.cumsum(new) - 1
    nf_at = 2 * (np.arange(n) + term_of_frag)
    tf_at = 2 * (t_ends + np.arange(n_terms))
    slot = np.empty(len(sources), dtype=np.int64)
    slot[nf_at] = np.arange(n)
    slot[nf_at + 1] = n + np.arange(n)
    slot[tf_at] = 2 * n + np.arange(n_terms)
    slot[tf_at + 1] = 2 * n + n_terms + np.arange(n_terms)
    pieces = [sources[k] for k in slot.tolist()]

    # skip merge: shift per-fragment offsets into merged-stream coordinates
    excl = np.cumsum(out_frag_len) - out_frag_len
    base_within_term = excl - np.repeat(excl[t_starts], frags_per_term)
    delta = new_len - old_len
    tf_base_within = tf_off_all[:-1] - np.repeat(
        tf_off_all[t_starts], frags_per_term)

    tot_blocks = int(nb.sum())
    first_block = np.cumsum(nb) - nb
    block_frag = np.repeat(np.arange(n), nb)
    k_within = np.arange(tot_blocks, dtype=np.int64) - first_block[block_frag]
    counts = np.minimum(skip_n, df64[block_frag] - k_within * skip_n)
    new_off_block = (off_vals + base_within_term[block_frag]
                     + np.where(k_within > 0, delta[block_frag], 0))
    new_tfoff_block = tfoff_vals + tf_base_within[block_frag]
    term_of_block = term_of_frag[block_frag]

    # coalesce: fragment seams leave sub-skip_n blocks; group adjacent
    # blocks within a term until each group holds >= skip_n postings
    # (groups land in [skip_n, 2*skip_n) except a term's last) — byte
    # ranges stay contiguous because gaps are continuous after the
    # first-value rewrite
    csum = np.cumsum(counts)
    exc = csum - counts
    blocks_per_term = np.add.reduceat(nb, t_starts)
    term_block_first = first_block[t_starts]
    exw = exc - np.repeat(exc[term_block_first], blocks_per_term)
    grp = exw // skip_n
    gnew = np.empty(tot_blocks, dtype=bool)
    gnew[0] = True
    gnew[1:] = (term_of_block[1:] != term_of_block[:-1]) | (
        grp[1:] != grp[:-1])
    gstarts = np.flatnonzero(gnew)
    gends = np.append(gstarts[1:], tot_blocks)
    g_count = np.add.reduceat(counts, gstarts).astype(np.int32)
    g_last = last_vals[gends - 1].astype(np.int64)
    g_maxwq = np.maximum.reduceat(maxwq_vals, gstarts)
    g_off = new_off_block[gstarts]
    g_tfoff = new_tfoff_block[gstarts]
    term_of_group = term_of_block[gstarts]
    slist_off = pa.array(
        np.searchsorted(term_of_group, np.arange(n_terms + 1)).astype(
            np.int32))

    bucket_s = (gk_s % B).astype(np.int32)
    shard_s = (gk_s // B).astype(np.int32)
    sel = pa.array(t_starts)
    seg = pa.table(
        {
            "term": col("term").take(sel),
            "shard": pa.array(shard_s[t_starts]),
            "bucket": pa.array(bucket_s[t_starts]),
            "df": pa.array(np.add.reduceat(df64, t_starts),
                           type=pa.int64()),
            "cf": pa.array(np.add.reduceat(cf_f, t_starts),
                           type=pa.int64()),
            "max_wdt": pa.array(
                np.maximum.reduceat(maxwq_f, t_starts).astype(np.float64)
                / WDT_QUANT),
            "doc_len": pa.array(doc_len.astype(np.int32)),
            "tf_len": pa.array(tf_len.astype(np.int32)),
            "pos_len": pa.array(pos_len.astype(np.int32)),
            "skip_last_doc": pa.ListArray.from_arrays(
                slist_off, pa.array(g_last, type=pa.int64())),
            "skip_max_wdt": pa.ListArray.from_arrays(
                slist_off, pa.array(g_maxwq.astype(np.float64) / WDT_QUANT)),
            "skip_offset": pa.ListArray.from_arrays(
                slist_off, pa.array(g_off, type=pa.int64())),
            "skip_tf_offset": pa.ListArray.from_arrays(
                slist_off, pa.array(g_tfoff, type=pa.int64())),
            "skip_count": pa.ListArray.from_arrays(
                slist_off, pa.array(g_count)),
        },
        schema=_SEGMENT_SCHEMA,
    )
    prof["merge"] = time.perf_counter() - _pt
    _pt = time.perf_counter()
    bin_path = segment_bin_path(out_path)
    with open(bin_path + ".tmp", "wb") as f:
        f.writelines(pieces)
    os.replace(bin_path + ".tmp", bin_path)
    tmp = out_path + ".tmp"
    pq.write_table(seg, tmp, row_group_size=SEGMENT_ROW_GROUP_SIZE)
    os.replace(tmp, out_path)
    prof["write"] = time.perf_counter() - _pt
    terms_col = seg.column("term")
    return {
        "prof": prof,
        "file": os.path.basename(out_path),
        "rows": seg.num_rows,
        "buckets": sorted(set(seg.column("bucket").to_pylist())),
        "shards": sorted(set(seg.column("shard").to_pylist())),
        "term_min": pa.compute.min(terms_col).as_py(),
        "term_max": pa.compute.max(terms_col).as_py(),
    }


@ray.remote
def _reduce_runs(
    cfg: IndexBuildConfig,
    avgdl: float,
    out_path: str,
    *blob_lists: list[bytes],
):
    """Barrier reduce: all of this partition's map outputs arrive as
    resolved args (Ray schedules the task only once every map is done),
    then unpack + merge + write.

    Each blob is one Arrow IPC stream of ``_WIRE_SCHEMA`` fragment rows;
    the read is zero-copy off the wire bytes, so unpack touches only IPC
    headers, not fragment payloads."""
    _pin_arrow_threads()
    t_task = time.perf_counter()
    prof = {"merge": 0.0, "write": 0.0, "bytes_in": 0}
    tables: list = []
    for blobs in blob_lists:
        for b in blobs:
            prof["bytes_in"] += len(b)
            tbl = pa.ipc.open_stream(pa.py_buffer(b)).read_all()
            if tbl.num_rows:
                tables.append(tbl)
    prof["unpack"] = time.perf_counter() - t_task
    metrics = _finalize_segment(tables, cfg, avgdl, out_path, prof)
    prof["wall"] = time.perf_counter() - t_task  # metrics["prof"] is prof
    return metrics


def _phase_split(profs: list[dict]) -> dict:
    """{phase: {total, max, mean}} over per-task profiles: where one
    exchange side spent its time and bytes, and its skew (max vs mean
    task)."""
    out = {}
    for k in sorted({k for p in profs for k in p}):
        v = [p.get(k, 0) for p in profs]
        out[k] = {"total": round(sum(v), 6), "max": round(max(v), 6),
                  "mean": round(sum(v) / len(v), 6)}
    return out


def build_segments_exchange(
    docterms_dir: str,
    segments_dir: str,
    cfg: IndexBuildConfig,
    avgdl: float,
    doc_length_path: str,
    num_reducers: int | None = None,
) -> tuple[list[dict], dict]:
    """Run the postings exchange over the docterms files; the maps read
    each posting's doc length from the ``.npy`` at ``doc_length_path``.

    Returns ``(per_reducer_metrics, plan)`` where ``plan`` records the
    scheduling decisions (map/reducer counts, docterms bytes) and
    ``phases``, the per-task profiles of each side summed and
    skew-summarised by :func:`_phase_split` (reduce: the reducers that
    received fragments) — persisted in the segments stage marker and the
    manifest."""
    files = sorted(
        os.path.join(docterms_dir, f)
        for f in os.listdir(docterms_dir)
        if f.endswith(".parquet")
    )
    cpus = int(ray.cluster_resources().get("CPU", 8))
    if num_reducers is None:
        num_reducers = max(8, min(len(files), 2 * cpus))
    os.makedirs(segments_dir, exist_ok=True)
    # coarsen maps so the shuffle's M x P object count stays ~linear in
    # cluster size: M ~= 4 x cpus map tasks regardless of file count
    n_maps = max(1, min(len(files), 4 * cpus))
    groups = [files[i::n_maps] for i in range(n_maps)]
    total_bytes = sum(os.path.getsize(f) for f in files)
    # one extra return per map: its phase profile (read by the driver only)
    map_refs = [
        _map_runs.options(num_returns=num_reducers + 1).remote(
            g, cfg, num_reducers, avgdl, doc_length_path
        )
        for g in groups
    ]
    reduce_refs = [
        _reduce_runs.remote(
            cfg, avgdl,
            os.path.join(segments_dir, f"segment_{r:05d}.parquet"),
            *[m[r] for m in map_refs],
        )
        for r in range(num_reducers)
    ]
    metrics = [m for m in ray.get(reduce_refs) if m]
    phases = {"map": _phase_split(ray.get([m[-1] for m in map_refs])),
              "reduce": _phase_split([m.pop("prof") for m in metrics])}
    plan = {"num_maps": n_maps, "num_reducers": num_reducers,
            "docterms_bytes": total_bytes, "cluster_cpus": cpus,
            "phases": phases}
    return metrics, plan


def _stage_done(index_dir: str, stage: str, fingerprint: str) -> bool:
    marker = os.path.join(index_dir, f"_STAGE_{stage}.json")
    if not os.path.exists(marker):
        return False
    try:
        with open(marker) as f:
            return json.load(f).get("fingerprint") == fingerprint
    except (json.JSONDecodeError, OSError):
        return False


def _commit_stage(index_dir: str, stage: str, fingerprint: str, **metrics) -> None:
    marker = os.path.join(index_dir, f"_STAGE_{stage}.json")
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"stage": stage, "fingerprint": fingerprint, **metrics}, f, indent=1)
    os.replace(tmp, marker)


def _dir_lineage(path: str) -> list[dict]:
    """Per-file lineage/metrics from parquet footers (no data read)."""
    out = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".parquet"):
            continue
        full = os.path.join(path, name)
        md = pq.ParquetFile(full).metadata
        out.append(
            {"file": name, "rows": md.num_rows, "bytes": os.path.getsize(full)}
        )
    return out


def _reconcile_stale_docstats(spans: list, base: int = 0) -> list:
    """Newest-first greedy selection of non-overlapping docstats files;
    see ``write_doc_weights``.  ``spans`` is the per-file
    (lo, hi, rows, path) list, each file exactly dense, with at least
    one range overlap.  Returns the kept spans (sorted by lo, tiling
    base..N-1) and deletes the stale losers, or raises if no exact
    tiling emerges."""
    import bisect
    import warnings

    by_newness = sorted(
        spans,
        key=lambda s: (os.stat(s[3]).st_mtime_ns, s[3]),
        reverse=True,
    )
    kept: list = []          # sorted by lo
    dropped: list = []
    for s in by_newness:
        lo, hi = s[0], s[1]
        i = bisect.bisect_left(kept, (lo,))
        prev_clear = i == 0 or kept[i - 1][1] < lo
        next_clear = i == len(kept) or kept[i][0] > hi
        if prev_clear and next_clear:
            bisect.insort(kept, s)
        else:
            dropped.append(s)
    tiled = (
        kept
        and kept[0][0] == base
        and all(b[0] == a[1] + 1 for a, b in zip(kept, kept[1:]))
        # a dense tiling of [0..kept_max] covers a dropped file iff the
        # dropped range ends at or below kept_max — otherwise docs past
        # kept_max would silently vanish from N
        and max(s[1] for s in spans) == kept[-1][1]
    )
    if not tiled:
        raise ValueError(
            "docstats invariant broken: two files cover overlapping doc "
            "ranges and no newest-first subset tiles 0..N-1 — stale "
            "side-writes from a lineage re-execution; rebuild the "
            "docterms stage"
        )
    for s in dropped:
        try:
            os.remove(s[3])
        except OSError:
            pass
    warnings.warn(
        f"docstats reconciliation: dropped {len(dropped)} stale "
        f"overlapping side-file(s) left by a task retry; kept "
        f"{len(kept)} files tiling 0..{kept[-1][1]}",
        RuntimeWarning,
        stacklevel=2,
    )
    return kept


def docweights_paths(index_dir: str) -> tuple[str, str]:
    """(doc_length.npy, l_d.npy) of an index."""
    d = os.path.join(index_dir, DOCWEIGHTS_DIR)
    return (os.path.join(d, "doc_length.npy"), os.path.join(d, "l_d.npy"))


def _not_dense(path: str, lo: int, hi: int) -> ValueError:
    return ValueError(
        f"docstats invariant broken: {os.path.basename(path)} holds "
        f"duplicate doc ids or a gap in [{lo}, {hi}] — stale side-write "
        "from a lineage re-execution; rebuild the docterms stage"
    )


def write_doc_weights(docstats_dir: str, index_dir: str,
                      base: int = 0) -> tuple[int, int]:
    """The one pass over an index's docstats: checks that they tile
    base..base+N-1, writes the two dense docweights arrays in doc-id
    order and returns ``(num_docs, total_tokens)``.

    The docstats invariant: ``_write_docstats_block``'s idempotency rests
    on doc-range filenames being stable across lineage re-execution; if
    re-execution ever composed batches differently, stale files with
    overlapping doc sets would silently double-count docs.  So each file
    must hold exactly the doc ids lo..hi in order, file ranges must be
    pairwise disjoint, and their union must be dense from ``base``.
    Each file's span (rows, doc_id min/max) comes from its parquet
    footer; the data is read once, after the checks on the spans.

    On an overlap, instead of aborting outright, reconcile: per-doc
    stats are a pure function of the doc, so ANY subset of files that
    exactly tiles base..N-1 yields the correct arrays and scalars.
    Within one build, every retry write lands strictly AFTER the dead
    attempt's stale write, so keeping files newest-first (dropping any
    that overlap an already-kept range) recovers exactly the final
    pass's tiling when one exists; the stale losers are deleted, so the
    manifest lineage sees a clean dir.  Anything still inconsistent
    raises instead of producing a wrong N / avgdl / weight (observed in
    the wild: storm-window task retries on a 300k-doc corpus left one
    overlapping stale file per ~10 builds).

    The arrays are on-disk memmaps, so peak heap is one docstats file's
    columns, never the corpus; each is written to a tmp file and renamed
    into place."""
    spans = []
    for name in sorted(os.listdir(docstats_dir)):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(docstats_dir, name)
        md = pq.read_metadata(path)
        if not md.num_rows:
            continue
        col = md.schema.to_arrow_schema().get_field_index("doc_id")
        st = [md.row_group(i).column(col).statistics
              for i in range(md.num_row_groups)]
        lo, hi = min(s.min for s in st), max(s.max for s in st)
        if md.num_rows != hi - lo + 1:
            raise _not_dense(path, lo, hi)
        spans.append((lo, hi, md.num_rows, path))
    spans.sort()
    if any(b[0] <= a[1] for a, b in zip(spans, spans[1:])):
        spans = _reconcile_stale_docstats(spans, base)
    rows = sum(s[2] for s in spans)
    if spans and (spans[0][0] != base or spans[-1][1] != base + rows - 1):
        raise ValueError(
            f"docstats invariant broken: {rows} rows but doc ids span "
            f"[{spans[0][0]}, {spans[-1][1]}] (expected dense "
            f"{base}..{base + rows - 1})"
        )

    dl_p, ld_p = docweights_paths(index_dir)
    os.makedirs(os.path.dirname(dl_p), exist_ok=True)
    dl_tmp, ld_tmp = dl_p + ".tmp.npy", ld_p + ".tmp.npy"
    dl = np.lib.format.open_memmap(
        dl_tmp, mode="w+", dtype=np.int64, shape=(rows,))
    ld = np.lib.format.open_memmap(
        ld_tmp, mode="w+", dtype=np.float64, shape=(rows,))
    total_tokens = 0
    try:
        for lo, hi, _n, path in spans:
            tbl = pq.read_table(path, columns=["doc_id", "doc_length", "l_d"])
            if not np.array_equal(tbl.column("doc_id").to_numpy(),
                                  np.arange(lo, hi + 1)):
                raise _not_dense(path, lo, hi)
            dls = tbl.column("doc_length").to_numpy()
            dl[lo - base:hi + 1 - base] = dls
            ld[lo - base:hi + 1 - base] = tbl.column("l_d").to_numpy()
            total_tokens += int(dls.sum())
        dl.flush()
        ld.flush()
    except BaseException:
        del dl, ld
        os.remove(dl_tmp)
        os.remove(ld_tmp)
        raise
    del dl, ld
    os.replace(dl_tmp, dl_p)
    os.replace(ld_tmp, ld_p)
    return rows, total_tokens


def build_index(
    corpus: ray.data.Dataset,
    index_dir: str,
    cfg: IndexBuildConfig | None = None,
    input_description: str = "",
) -> dict:
    """Run the full build; returns the manifest dict.  Resumable: completed
    stages (matching fingerprint markers) are skipped on re-run."""
    cfg = cfg or IndexBuildConfig()
    os.makedirs(index_dir, exist_ok=True)
    fingerprint = json.dumps(
        {"input": input_description, "cfg": cfg.to_json(),
         "fmt": SEGMENT_FORMAT, "dfmt": DOCTERMS_FORMAT}, sort_keys=True
    )
    t0 = time.perf_counter()
    stage_seconds: dict[str, float] = {}

    docterms_dir = os.path.join(index_dir, "docterms")
    docstats_dir = os.path.join(index_dir, DOCSTATS_DIR)
    segments_dir = os.path.join(index_dir, "segments")

    # ---- stage 1: tokenize -> docterms ----
    if not _stage_done(index_dir, "docterms", fingerprint):
        expect = None
        if ID_COL not in corpus.schema().names:
            from .ids import assign_doc_ids

            corpus = assign_doc_ids(corpus, base=cfg.doc_id_base)
        else:
            # the reader indexes num_docs-sized arrays by doc_id, so a
            # pre-assigned id column must be a dense permutation of
            # base..base+N-1.  The docstats pass below checks that its
            # files tile base..: a duplicated id lands in two dense runs,
            # which either overlap or share a range and so rewrite one
            # file, and either way fewer than N distinct ids remain — so
            # the row count (footer metadata for a plain read_parquet)
            # completes the check
            expect = corpus.count()
        import shutil

        shutil.rmtree(docterms_dir, ignore_errors=True)
        shutil.rmtree(docstats_dir, ignore_errors=True)
        tokenizer = TokenizeDocs(cfg)  # plain-task stage; cache resolves
        # per worker process via _worker_cache (state without actor pools)

        def _group_and_sidewrite(batch: pa.Table, _cfg=cfg,
                                 _dir=docstats_dir) -> pa.Table:
            postings, docstats = _group_postings_batch(_cfg, batch)
            _write_docstats_block(_dir, docstats)
            return postings

        # No preserve_order needed: _group_postings_batch splits each
        # rebatched block at dense-doc-id seams, so out-of-order block
        # interleaving from the streaming executor cannot create
        # overlapping fragment doc ranges (the _finalize_segment seam
        # check is the backstop).
        file_rows = max(DOCTERMS_BLOCK_ROWS * 64, 1 << 18)
        corpus.map_batches(
            lambda batch, _t=tokenizer: _t(batch),
            batch_format="pyarrow",
            batch_size=TOKENIZE_BATCH_SIZE,
        ).map_batches(
            # rebatch to DOCTERMS_BLOCK_ROWS docs, then explode + group
            # each block by (bucket, term, doc) and side-write its per-doc
            # stats (docterms v4): the one unavoidable gather of the
            # position payload runs HERE, in the embarrassingly-parallel
            # stage, never in the exchange
            _group_and_sidewrite,
            batch_format="pyarrow",
            batch_size=DOCTERMS_BLOCK_ROWS,
        ).write_parquet(
            docterms_dir,
            # ~one grouped block per file: more blocks per file multiply
            # fragments per (term, file) — each block is its own
            # (bucket, term) grouping — measured +24% wire bytes and 2x
            # reducer merge CPU when Ray packed ~6 blocks into one file.
            # A run split ACROSS files by the row cap stays correct:
            # each side is a disjoint ascending-doc fragment the reducer
            # merges by first_doc.
            max_rows_per_file=file_rows,
            # one row group per file: Ray's default of one per incoming
            # batch repeats the term dictionary page in each (a 4,000-doc
            # corpus: 33 -> 5 row groups, ~2,170 -> ~1,390 B/doc)
            row_group_size=file_rows,
        )
        try:
            n_docs, tot = write_doc_weights(docstats_dir, index_dir,
                                            base=cfg.doc_id_base)
            if expect is not None and n_docs != expect:
                raise ValueError(
                    f"{n_docs} distinct ids from {cfg.doc_id_base} for "
                    f"{expect} rows")
        except ValueError as e:
            if expect is None:
                raise
            raise ValueError(
                f"pre-assigned {ID_COL!r} must be a dense permutation of "
                f"{cfg.doc_id_base}..{cfg.doc_id_base}+N-1 ({e}); drop "
                f"the column to have build_index assign ids, or re-assign "
                f"with searchengine_ray.ids.assign_doc_ids") from e
        stage_seconds["tokenize"] = time.perf_counter() - t0
        _commit_stage(
            index_dir, "docterms", fingerprint,
            num_docs=n_docs, total_tokens=tot,
            files=_dir_lineage(docterms_dir),
            docstats_files=_dir_lineage(docstats_dir),
        )

    # per-doc stats (incl. zero-term docs) live in docstats/ and, dense,
    # in docweights/; postings in docterms/ are exploded and pre-grouped
    # for the exchange

    # ---- stage 2: postings exchange -> segments ----
    if not _stage_done(index_dir, "segments", fingerprint):
        import shutil

        # the corpus scalars from the docterms marker: block-max BM25 wdt
        # bounds go into the segments
        with open(os.path.join(index_dir, "_STAGE_docterms.json")) as f:
            dt_marker = json.load(f)
        n_docs, tot = dt_marker["num_docs"], dt_marker["total_tokens"]
        avgdl = (tot / n_docs) if n_docs else 1.0

        shutil.rmtree(segments_dir, ignore_errors=True)
        seg_metrics, exchange_plan = build_segments_exchange(
            docterms_dir, segments_dir, cfg, avgdl,
            docweights_paths(index_dir)[0], num_reducers=cfg.num_reducers,
        )
        stage_seconds["exchange"] = (
            time.perf_counter() - t0 - sum(stage_seconds.values())
        )
        _commit_stage(
            index_dir,
            "segments",
            fingerprint,
            num_docs=n_docs,
            total_tokens=tot,
            exchange_plan=exchange_plan,
            segment_metrics=seg_metrics,
            files=[{"file": m["file"], "rows": m["rows"]}
                   for m in seg_metrics],
        )

    # ---- finalize: manifest (commit point) ----
    with open(os.path.join(index_dir, "_STAGE_segments.json")) as f:
        seg_marker = json.load(f)
    seg_files = seg_marker.get("segment_metrics", [])
    num_docs = seg_marker["num_docs"]
    total_tokens = seg_marker["total_tokens"]

    manifest = {
        "version": 1,
        "segment_format": SEGMENT_FORMAT,
        "docterms_format": DOCTERMS_FORMAT,
        "input": input_description,
        "config": cfg.to_json(),
        "fingerprint": fingerprint,
        "num_docs": num_docs,
        "doc_id_base": cfg.doc_id_base,
        "total_tokens": total_tokens,
        "avg_doc_length": (total_tokens / num_docs) if num_docs else 0.0,
        "num_buckets": cfg.num_buckets,
        "docs_per_shard": cfg.docs_per_shard,
        "exchange_plan": seg_marker.get("exchange_plan"),
        "segments": seg_files,
        "docstats_files": _dir_lineage(docstats_dir),
        "build_seconds": time.perf_counter() - t0,
        "stage_seconds": {
            **{k: round(v, 3) for k, v in stage_seconds.items()},
            "finalize": round(
                time.perf_counter() - t0 - sum(stage_seconds.values()), 3
            ),
        },
    }
    tmp = os.path.join(index_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, MANIFEST_NAME))
    return manifest
