"""Distributed index build — the Ray-Data-native SPIMI equivalent.

Reference pipeline (/root/reference/engine/indexing/spimi.py:56-123): one
thread streams documents, accumulates an in-memory positional index, flushes
sorted buckets at a memory limit, then k-way heap-merges buckets into one
postings file + SQLite offset catalog + docWeights.bin.

Ray-Data-native rebuild:

  read_parquet(corpus)
    -> assign_doc_ids (one explicit global decision, ids.py)
    -> map_batches(TokenizeDocs actor pool)          # SPIMI block ≙ Ray block
         emits per-doc rows: doc stats + per-term (tftd, VByte pos blob)
    -> explode + group by (bucket, term, doc) per block (docterms v4)
         -> write docterms/  (exploded postings, resumable intermediate)
         -> side-write docstats/ (per-doc title/doc_length/l_d/sha256,
            incl. zero-term docs; doc-range file names, idempotent)
  docstats -> doc stats parquet + corpus scalars (tiny per-doc files)
  docterms -> heavy-hitter df detection (per-block partial counts -> tiny
              groupby-sum; the combiner-before-shuffle pattern)
  docterms -> exchange maps derive keys (NO sort, NO gather — runs are
              already contiguous on disk):
              shard   = doc_id // docs_per_shard      (bounds posting lists)
              bucket  = crc32(term) % num_buckets     (merge shuffle key)
              salt    = contiguous doc-range split for heavy terms
    -> groupby(gkey).map_groups(merge+encode)         # replaces heap merge
    -> segments/ parquet: one posting-list *fragment* per (term, shard,
       salt): parallel VByte streams (doc gaps / tftds / position gaps)
       + skip-block metadata (last doc id, max tftd, byte offsets per
       128 postings)
  manifest.json: corpus scalars, per-stage lineage + per-file metrics,
       committed last -> a re-run skips completed stages (resume).

Salting uses contiguous doc sub-ranges (not hashes) so a heavy term's
fragments are doc_id-range-disjoint: the query reader concatenates fragments
in (shard, salt) order and postings stay globally doc_id-sorted with no
second merge pass.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .tokenizer import TokenTermCache, analyze_document, euclidean_weight, sha256_hex

MANIFEST_NAME = "manifest.json"
SALT_WIDTH = 4096  # max fragments per (term, shard)


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
    heavy_df_threshold: int | None = 100_000  # df within a shard before salting
    max_salt: int = 64
    skip_block: int = 128
    tokenize_batch_size: int = 64
    # docterms output block/row-group size: tokenize emits small blocks
    # (batch_size docs each) and the parquet writer makes one row group
    # per block — 63-row groups made the exchange maps re-decode the
    # terms dictionary ~65x more often than needed.  An identity rebatch
    # before the write coalesces blocks to this many rows.
    docterms_block_rows: int = 4096
    # None -> fixed pool of one actor per cluster CPU (a fixed-size pool:
    # Ray Data's autoscaling pool ramps from min and starves short stages)
    tokenize_concurrency: tuple | int | None = None
    content_col: str = "content"
    title_col: str = "path"
    id_col: str = "doc_id"  # pre-assigned dense id column (None -> assign)
    # First doc id of this build (incremental indexing): a DELTA build
    # over new docs sets this to the existing index's num_docs so its id
    # space continues the base index's; ids must be dense
    # base..base+N-1.  A non-zero-base index is a merge input only —
    # the reader refuses to serve it until merge.merge_indexes folds it
    # into a zero-based generational index.
    doc_id_base: int = 0
    segment_row_group_size: int = 512
    analyzer: str = "reference"  # key into tokenizer.ANALYZERS
    num_reducers: int | None = None  # postings-exchange reduce partitions
    # CPU slots per exchange task; None -> sized by the exchange's
    # working set (docterms bytes per CPU): 2 above 8 cluster CPUs when
    # the per-stream share exceeds the cache-thrash threshold (the
    # bandwidth-contention cap measured in BASELINE.md §3), 1 otherwise
    # — sub-cache exchanges are wave-quantization-bound, not
    # bandwidth-bound, and halving concurrency just doubles the waves
    # (16-CPU 300k-doc A/B: exchange 5.2s -> 3.1s at 1 slot; the 2.4 GB
    # 1M-doc exchange is equal-median with a worse tail at 1 slot).
    # Env SE_RAY_EXCHANGE_CPUS overrides for A/B runs.
    exchange_task_cpus: int | None = None
    # Streaming reduce: reducers launch with the maps and unpack each
    # map output as it lands (ray.wait), overlapping IPC decode with the
    # map tail.  Env SE_RAY_EXCHANGE_STREAMING=0/1 overrides for A/Bs.
    exchange_streaming: bool = False
    # Block-compress each (map, reducer) wire object ("lz4"/"zstd"/None):
    # trades idle CPU for bus bytes — the binding resource on saturated
    # hosts.  Joined-piece ratio measured 2.8x (lz4).  Env
    # SE_RAY_EXCHANGE_COMPRESS overrides ("0"/"none" disables).
    exchange_compress: str | None = None

    def to_json(self) -> dict:
        d = asdict(self)
        if isinstance(self.tokenize_concurrency, tuple):
            d["tokenize_concurrency"] = list(self.tokenize_concurrency)
        return d

    def resolved_concurrency(self):
        if self.tokenize_concurrency is None:
            return max(2, int(ray.cluster_resources().get("CPU", 8)))
        return self.tokenize_concurrency


def _sha256_column(arr: pa.Array) -> list[str]:
    """sha256 per row straight off the Arrow utf-8 data buffer (zero
    re-encode; the per-row invariant vs the source parquet).  The hash
    itself is the cost — this loop is not the hot path."""
    import hashlib

    if pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype,
                         count=len(arr) + 1, offset=arr.offset *
                         np.dtype(off_dtype).itemsize)
    data = memoryview(arr.buffers()[2]) if arr.buffers()[2] else memoryview(b"")
    return [
        hashlib.sha256(data[offs[i]:offs[i + 1]]).hexdigest()
        for i in range(len(arr))
    ]


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
    """Tokenizer stage: per-worker stemmer/token cache (the north-star
    'stemmer cache' stateful stage), per-batch vector output.  Usable both
    as an actor-pool class and, via ``tokenize_batch_factory``, as a plain
    task function with process-global cache."""

    def __init__(self, config: IndexBuildConfig):
        self.cfg = config

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .batch_tokenize import VECTORIZED_ANALYZERS

        cfg = self.cfg
        # resolved HERE (on the worker, not at driver pickle time) so the
        # cache is the executing process's one, shared across its tasks
        cache = _worker_cache(cfg.analyzer)
        content_arr = _as_array(batch.column(cfg.content_col))
        if cfg.analyzer in VECTORIZED_ANALYZERS:
            from .batch_tokenize import analyze_batch

            cols = analyze_batch(content_arr, cfg.analyzer, cache)
            return pa.table(
                {
                    "doc_id": _as_array(batch.column(cfg.id_col)).cast(
                        pa.int64()),
                    "title": _as_array(batch.column(cfg.title_col)),
                    "doc_length": pa.array(cols["doc_length"]),
                    "l_d": pa.array(cols["l_d"]),
                    "sha256": pa.array(_sha256_column(content_arr),
                                       type=pa.string()),
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

        cfg = self.cfg
        analyze = ANALYZERS[cfg.analyzer]
        contents = batch.column(cfg.content_col).to_pylist()
        titles = batch.column(cfg.title_col).to_pylist()
        doc_ids = batch.column(cfg.id_col).to_pylist()

        out_doc_id, out_title, out_len, out_ld, out_sha = [], [], [], [], []
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
            out_sha.append(sha256_hex(content))
            out_terms.append(terms)
            out_tftds.append([len(term_pos[t]) for t in terms])
            out_positions.append([term_pos[t] for t in terms])
        return pa.table(
            {
                "doc_id": pa.array(out_doc_id, type=pa.int64()),
                "title": pa.array(out_title, type=pa.string()),
                "doc_length": pa.array(out_len, type=pa.int64()),
                "l_d": pa.array(out_ld, type=pa.float64()),
                "sha256": pa.array(out_sha, type=pa.string()),
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


# Docterms v3 on-disk postings layout: one row per (doc, term), grouped
# by (bucket, term) with doc ids ascending inside each group.  ``term``
# is dictionary-encoded (parquet dictionary pages -> exchange maps read
# codes, never flat strings); ``bucket`` is redundant with crc32(term)
# but RLE-compresses to ~nothing in this order and saves the map a hash
# pass; ``doc_length`` rides per posting so the map computes BM25 wdt
# bounds without a per-doc join.
_POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.dictionary(pa.int32(), pa.string())),
        ("bucket", pa.int32()),
        ("doc_id", pa.int64()),
        ("doc_length", pa.int32()),
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
    # cast BEFORE the per-posting repeat: half the memory traffic of
    # repeating int64 then casting 50x more values
    dls = np.repeat(
        _as_array(tok.column("doc_length")).to_numpy(
            zero_copy_only=False).astype(np.int32),
        lens,
    )
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
            "doc_length": pa.array(dls[order]),
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
    Within a segment, shard (= doc // docs_per_shard) and heavy-term
    salt (= floor(rel * width / dps), width fixed per term) are
    non-decreasing in doc, so every (gkey, term) run the exchange map
    derives later is a CONTIGUOUS ascending-doc slice of the file — no
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
    even though the doc SETS were disjoint — tripping corpus_scalars'
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
    cfg: IndexBuildConfig, heavy: dict[str, int], batch: pa.Table
) -> dict | None:
    """docterms v4 postings table -> flat per-(doc, term) arrays for the
    exchange, IN FILE ORDER (already grouped by (bucket, term, doc) at
    tokenize time — see ``_group_postings_batch``): no sort, no gather.

    Positions arrive ALREADY VByte-encoded per row (since v2) and now
    already fragment-contiguous and seam-stamped (v4), so the map slices final on-disk
    bytes straight off the parquet buffers.  Term identity comes from
    dictionary codes (parquet dictionary pages via ``read_dictionary``
    — no per-term re-hash of a flat string column), and the bucket rides
    as an RLE-compressed column, so the only per-posting compute left is
    shard/salt arithmetic and the wdt-bound quantization."""
    B = cfg.num_buckets
    dps = cfg.docs_per_shard

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
    dls = _as_array(batch.column("doc_length")).to_numpy(
        zero_copy_only=False)
    tftds = _as_array(batch.column("tftd")).to_numpy(zero_copy_only=False)
    pos_blob = _as_array(batch.column("pos_blob"))
    buckets = _as_array(batch.column("bucket")).to_numpy(
        zero_copy_only=False).astype(np.int64)
    segs = _as_array(batch.column("seg")).to_numpy(zero_copy_only=False)

    shards = doc_ids // dps
    salts = np.zeros(codes.size, dtype=np.int64)
    if heavy:
        uniq_width = np.fromiter(
            (heavy.get(t, 0) for t in uniq), dtype=np.int64, count=len(uniq)
        )
        widths = uniq_width[codes]
        rel = doc_ids - shards * dps
        np.floor_divide(rel * widths, dps, out=salts, where=widths > 0)
    gkey = (shards * B + buckets) * SALT_WIDTH + salts

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
        ("salt", pa.int32()),
        ("bucket", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("max_wdt", pa.float64()),
        ("blob", pa.binary()),      # VByte doc-gap stream (format v3)
        ("tf_blob", pa.binary()),   # VByte tftd stream, same posting order
        ("pos_blob", pa.binary()),
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_max_tftd", pa.list_(pa.int64())),
        ("skip_max_wdt", pa.list_(pa.float64())),
        ("skip_offset", pa.list_(pa.int64())),     # block start in blob
        ("skip_tf_offset", pa.list_(pa.int64())),  # block start in tf_blob
        ("skip_count", pa.list_(pa.int32())),      # postings per block (v4)
    ]
)

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
        ("blob", pa.binary()),       # VByte doc gaps, first value absolute
        ("tf_blob", pa.binary()),    # VByte tftds, same posting order
        ("pos_blob", pa.binary()),   # concatenated per-posting VByte blobs
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_max_tftd", pa.list_(pa.int32())),
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
SEGMENT_FORMAT = 4

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
DOCTERMS_FORMAT = 4

# Build-CODE revision for scaling-run cohort grouping (formats above
# version the BYTES; this versions the measured job).  Bump when a
# change alters build wall-clock without touching a format.
# r1: working-set-sized exchange task slots + id validation overlapped
#     with tokenize (runs stamped dt v3/v4 without this key predate it).
BUILD_CODE_REVISION = 1

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
    note above; per-frame compression was a measured net loss here — the
    optional whole-object wire compression lives in _frame_compress)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema, options=_IPC_OPTS) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _prof_write(kind: str, rec: dict) -> None:
    """Append a per-task profile record when SE_RAY_PROF points at a dir."""
    d = os.environ.get("SE_RAY_PROF")
    if not d:
        return
    try:
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, f"{kind}_{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(rec) + "\n")
    except OSError:
        pass


@ray.remote
def _map_runs(
    paths: list[str], cfg: IndexBuildConfig, heavy: dict[str, int],
    num_reducers: int, avgdl: float,
):
    """Map side of the postings exchange: a group of docterms files -> one
    stream of PRE-ENCODED posting-list fragments per reduce partition.

    Raw Ray task (not a Dataset op) by design: Ray Data's sort-based
    groupby materialises an M x M task grid whose fixed scheduling cost
    *grows* with parallelism — measured 2.8s @ 8 cpus vs 13.6s @ 32 cpus
    for the identical 50k-doc merge, inverting scaling.  A classic
    map/reduce exchange with ``num_returns=num_reducers`` is M + P tasks
    and M x P objects (the information-theoretic minimum for a shuffle),
    and each reducer fetches only its own partition.

    Wire layout (exchange v2): one Arrow IPC stream of ``_WIRE_SCHEMA``
    fragment rows per (docterms file, reducer) — each row is one
    (gkey, term) run of the file, already VByte-encoded with its skip
    summaries (see ``_WIRE_SCHEMA`` note).  The encode happens HERE, in
    the wide map wave, so the reduce side — the stage that pins scaling
    on a shared memory bus — touches ~index-sized bytes, not
    ~posting-row-sized bytes.
    """
    _pin_arrow_threads()
    prof = {"read": 0.0, "explode": 0.0, "pack": 0.0,
            "bytes_out": 0, "t0": time.time()}
    out: list[list[bytes]] = [[] for _ in range(num_reducers)]
    for path in paths:
        t = time.perf_counter()
        tbl = pq.read_table(
            path,
            columns=["term", "bucket", "doc_id", "doc_length", "tftd",
                     "pos_blob", "seg"],
            read_dictionary=["term"],
        )
        prof["read"] += time.perf_counter() - t
        t = time.perf_counter()
        arrs = _explode_arrays(cfg, heavy, tbl)
        prof["explode"] += time.perf_counter() - t
        if arrs is None:
            continue
        # docterms v4: rows arrive grouped by (bucket, term, doc) from the
        # tokenize stage, and shard/salt are non-decreasing in doc within
        # each group — every (gkey, term) run is ALREADY a contiguous
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
        prof["encode"] = prof.get("encode", 0.0) + (time.perf_counter() - t)
        t = time.perf_counter()
        reds = _reducer_of_vec(frag_gkeys, num_reducers)
        for r in np.unique(reds):
            idx = np.flatnonzero(reds == r)
            # take() compacts the referenced buffer ranges so each wire
            # stream carries only its own fragments' bytes
            blob = _ipc_bytes(frag_tbl.take(pa.array(idx)))
            prof["bytes_out"] += len(blob)
            out[int(r)].append(blob)
        prof["pack"] += time.perf_counter() - t
    codec_name = _exchange_codec(cfg)
    if codec_name:
        t = time.perf_counter()
        out = [_frame_compress(blobs, codec_name) for blobs in out]
        prof["compress"] = time.perf_counter() - t
        prof["bytes_wire"] = sum(len(o) for o in out)
    prof["t1"] = time.time()
    _prof_write("map", prof)
    return out if num_reducers > 1 else out[0]


_EXCHANGE_MAGIC = b"SECX"
_CODEC_IDS = {"lz4": 1, "zstd": 2}
_CODEC_BY_ID = {v: k for k, v in _CODEC_IDS.items()}


def _exchange_codec(cfg: IndexBuildConfig) -> str | None:
    env = os.environ.get("SE_RAY_EXCHANGE_COMPRESS")
    if env is not None:
        return None if env.lower() in ("", "0", "none") else env.lower()
    return cfg.exchange_compress


def _frame_compress(blobs: list[bytes], codec_name: str) -> bytes:
    """One wire object per (map, reducer): length-prefixed pieces joined,
    then block-compressed.  Joining before compressing matters — pieces
    share term and IPC-schema bytes (measured 2.8x joined vs 1.4x
    per-piece with lz4), and one big buffer amortises codec call cost."""
    joined = b"".join(struct.pack("<q", len(b)) + b for b in blobs)
    comp = pa.Codec(codec_name).compress(joined, asbytes=True)
    return (_EXCHANGE_MAGIC + bytes([_CODEC_IDS[codec_name]])
            + struct.pack("<q", len(joined)) + comp)


def _iter_wire_blobs(lst):
    """Yield per-piece buffers from one map-output wire object — either
    a plain list of piece blobs (uncompressed path) or a compressed
    frame from :func:`_frame_compress`.  Yields memoryviews; piece
    parsing is zero-copy off the decompressed buffer."""
    if isinstance(lst, (bytes, bytearray, memoryview)):
        mv = memoryview(lst)
        if bytes(mv[:4]) != _EXCHANGE_MAGIC:
            raise ValueError("bad exchange wire frame")
        codec = pa.Codec(_CODEC_BY_ID[mv[4]])
        (rawlen,) = struct.unpack_from("<q", mv, 5)
        raw = memoryview(codec.decompress(mv[13:], rawlen))
        off = 0
        while off < rawlen:
            (blen,) = struct.unpack_from("<q", raw, off)
            yield raw[off + 8: off + 8 + blen]
            off += 8 + blen
    else:
        yield from lst


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
    blen_d = vbyte.encoded_lengths(gap)
    dbyte_ends = np.cumsum(blen_d, dtype=np.int64)
    if int(dbyte_ends[-1]) >= 2**31 - 1:
        raise ValueError(
            "docterms file fragment stream exceeds 2 GB binary-offset "
            "range; lower docterms_block_rows so files stay smaller"
        )
    dbyte_ends = dbyte_ends.astype(np.int32)
    dbyte_starts = dbyte_ends - blen_d
    encoded_d = vbyte.encode(gap, blen_d)
    frag_d_start = dbyte_starts[run_starts]
    frag_d_end = dbyte_ends[run_ends - 1]

    # tf stream: plain low bytes when every tftd < 128 (VByte of a value
    # < 128 IS that byte, so plain and encoded fragments concat freely)
    if int(tf32.max()) < 128:
        encoded_t = np.ascontiguousarray(tf32).astype(np.uint8).tobytes()
        tbyte_starts = None
        frag_t_start = run_starts.astype(np.int32)
        frag_t_end = run_ends.astype(np.int32)
    else:
        blen_t = vbyte.encoded_lengths(tf32)
        tbyte_ends = np.cumsum(blen_t, dtype=np.int64)
        if int(tbyte_ends[-1]) >= 2**31 - 1:
            raise ValueError(
                "docterms file tf stream exceeds 2 GB binary-offset range"
            )
        tbyte_ends = tbyte_ends.astype(np.int32)
        tbyte_starts = tbyte_ends - blen_t
        encoded_t = vbyte.encode(tf32, blen_t)
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
    skip_max_tf_v = np.maximum.reduceat(tf32, gbs)
    skip_max_wq_v = np.maximum.reduceat(wq, gbs)
    skip_off_v = (dbyte_starts[gbs] - frag_d_start[block_frag]).astype(
        np.int32)
    if tbyte_starts is None:
        skip_tf_off_v = (gbs - run_starts[block_frag]).astype(np.int32)
    else:
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
            "skip_max_tftd": pa.ListArray.from_arrays(
                list_off, pa.array(skip_max_tf_v.astype(np.int32))),
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


def _reducer_of_vec(gkeys: np.ndarray, num_reducers: int) -> np.ndarray:
    """Vectorized ``_reducer_of`` (same Fibonacci-hash route)."""
    with np.errstate(over="ignore"):
        h = gkeys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(17)) % np.uint64(num_reducers)).astype(np.int64)


def _reducer_of(gkey: int, num_reducers: int) -> int:
    """Mix before modulo: gkey is (shard*B + bucket)*SALT_WIDTH + salt, so a
    plain ``gkey % P`` with P dividing SALT_WIDTH=4096 maps every unsalted
    key to reducer 0 (this serialised the whole merge until fixed)."""
    return (((gkey * 0x9E3779B97F4A7C15) % (1 << 64)) >> 17) % num_reducers


def _unpack_blob_lists(
    tables: list,
    blob_lists,
    prof: dict,
) -> None:
    """Decode a batch of map-output wire blobs into the fragment-table
    accumulator (shared by the barrier and streaming reduce paths).

    Each blob is one Arrow IPC stream of ``_WIRE_SCHEMA`` fragment rows;
    the read is zero-copy off the wire bytes (memoryview -> py_buffer),
    so unpack touches only IPC headers, not fragment payloads."""
    _pt = time.perf_counter()
    for lst in blob_lists:
        for b in _iter_wire_blobs(lst):
            prof["bytes_in"] += len(b)
            mv = b if isinstance(b, memoryview) else memoryview(b)
            tbl = pa.ipc.open_stream(pa.py_buffer(mv)).read_all()
            if tbl.num_rows:
                tables.append(tbl)
    prof["unpack"] = prof.get("unpack", 0.0) + (time.perf_counter() - _pt)


def _finalize_segment(
    tables: list,
    cfg: IndexBuildConfig,
    avgdl: float,
    out_path: str,
    prof: dict,
):
    """Merge the accumulated pre-encoded fragments and write one segment
    parquet idempotently (tmp + atomic rename).

    Fragments of the same (gkey, term) are doc-range disjoint (one per
    docterms file, files cover disjoint dense doc-id ranges), so the
    merge is ONE vectorized pass over the whole partition:

    - sort fragment rows by (gkey, term rank, first_doc);
    - the merged doc-gap ``blob`` is the byte concatenation of the
      fragments' blobs with each NON-first fragment's leading value
      rewritten from an absolute doc id to the gap from the previous
      fragment's last doc (gaps stay continuous across the whole list,
      exactly the v3 invariant) — tf and pos streams concatenate as-is;
    - skip summaries concatenate with byte-offset shifts, then adjacent
      sub-``skip_block`` seam blocks coalesce up to ~skip_block postings
      (``skip_count`` records each block's true size — format v4).

    No posting is decoded or re-encoded: the reduce side of the shuffle
    now moves ~index-sized bytes, which is what lets the exchange scale
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
    prof["m_sort"] = prof.get("m_sort", 0.0) + (time.perf_counter() - _pt)
    _pt = time.perf_counter()

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
    maxtf_vals = col("skip_max_tftd").flatten().to_numpy().astype(np.int64)
    maxwq_vals = col("skip_max_wq").flatten().to_numpy()
    off_vals = col("skip_offset").flatten().to_numpy().astype(np.int64)
    tfoff_vals = col("skip_tf_offset").flatten().to_numpy().astype(np.int64)
    frag_last = last_vals[np.cumsum(nb) - 1]

    # first-gap rewrite: non-first fragments' leading absolute doc id
    # becomes the gap from the previous fragment's last doc
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
    old_len8 = vbyte.encoded_lengths(fd_s)
    new_len8 = vbyte.encoded_lengths(new_first)
    old_len = old_len8.astype(np.int64)
    new_len = new_len8.astype(np.int64)
    nf_buf = vbyte.encode(new_first, new_len8)

    blob_off = np.frombuffer(
        blob_a.buffers()[1], dtype=np.int32, count=n + 1,
        offset=4 * blob_a.offset,
    ).astype(np.int64)
    blob_data = memoryview(blob_a.buffers()[2])
    frag_len = blob_off[1:] - blob_off[:-1]
    out_frag_len = frag_len - old_len + new_len
    out_term_len = np.add.reduceat(out_frag_len, t_starts)
    term_blob_off = np.empty(n_terms + 1, dtype=np.int64)
    term_blob_off[0] = 0
    np.cumsum(out_term_len, out=term_blob_off[1:])
    if int(term_blob_off[-1]) >= 2**31 - 1:
        raise ValueError(
            "segment partition blob exceeds 2 GB binary-offset range; "
            "raise num_reducers so partitions stay smaller"
        )

    # assemble the merged doc-gap blob: (rewritten first value, rest of
    # fragment) byte pieces in sorted order, one join
    nf_ends = np.cumsum(new_len)
    nf_starts = nf_ends - new_len
    nf_mv = memoryview(nf_buf)
    pieces: list = [None] * (2 * n)
    pieces[0::2] = [
        nf_mv[a:b] for a, b in zip(nf_starts.tolist(), nf_ends.tolist())
    ]
    pieces[1::2] = [
        blob_data[a:b]
        for a, b in zip((blob_off[:-1] + old_len).tolist(),
                        blob_off[1:].tolist())
    ]
    merged_blob = b"".join(pieces)
    prof["m_concat"] = prof.get("m_concat", 0.0) + (
        time.perf_counter() - _pt)
    _pt = time.perf_counter()

    # tf/pos merged columns are zero-copy: the take() above compacted
    # fragment payloads contiguous in sorted order, so a merged term's
    # stream is a pure byte range of the column's data buffer
    def _term_ranges(arr: pa.Array) -> pa.Array:
        offs = np.frombuffer(
            arr.buffers()[1], dtype=np.int32, count=n + 1,
            offset=4 * arr.offset,
        )
        t_off = np.empty(n_terms + 1, dtype=np.int32)
        t_off[:-1] = offs[t_starts]
        t_off[-1] = offs[n]
        return pa.Array.from_buffers(
            pa.binary(), n_terms,
            [None, pa.py_buffer(t_off.tobytes()), arr.buffers()[2]],
        )

    tf_col_out = _term_ranges(tf_a)
    pos_col_out = _term_ranges(pos_a)

    # skip merge: shift per-fragment offsets into merged-blob coordinates
    excl = np.cumsum(out_frag_len) - out_frag_len
    base_within_term = excl - np.repeat(excl[t_starts], frags_per_term)
    delta = new_len - old_len
    tf_off_all = np.frombuffer(
        tf_a.buffers()[1], dtype=np.int32, count=n + 1,
        offset=4 * tf_a.offset,
    ).astype(np.int64)
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
    term_of_frag = np.cumsum(new) - 1
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
    g_maxtf = np.maximum.reduceat(maxtf_vals, gstarts)
    g_maxwq = np.maximum.reduceat(maxwq_vals, gstarts)
    g_off = new_off_block[gstarts]
    g_tfoff = new_tfoff_block[gstarts]
    term_of_group = term_of_block[gstarts]
    slist_off = pa.array(
        np.searchsorted(term_of_group, np.arange(n_terms + 1)).astype(
            np.int32))

    salt_s = (gk_s % SALT_WIDTH).astype(np.int32)
    rest = gk_s // SALT_WIDTH
    bucket_s = (rest % B).astype(np.int32)
    shard_s = (rest // B).astype(np.int32)
    sel = pa.array(t_starts)
    blob_off32 = term_blob_off.astype(np.int32)
    seg = pa.table(
        {
            "term": col("term").take(sel),
            "shard": pa.array(shard_s[t_starts]),
            "salt": pa.array(salt_s[t_starts]),
            "bucket": pa.array(bucket_s[t_starts]),
            "df": pa.array(np.add.reduceat(df64, t_starts),
                           type=pa.int64()),
            "cf": pa.array(np.add.reduceat(cf_f, t_starts),
                           type=pa.int64()),
            "max_wdt": pa.array(
                np.maximum.reduceat(maxwq_f, t_starts).astype(np.float64)
                / WDT_QUANT),
            "blob": pa.Array.from_buffers(
                pa.binary(), n_terms,
                [None, pa.py_buffer(blob_off32.tobytes()),
                 pa.py_buffer(merged_blob)],
            ),
            "tf_blob": tf_col_out,
            "pos_blob": pos_col_out,
            "skip_last_doc": pa.ListArray.from_arrays(
                slist_off, pa.array(g_last, type=pa.int64())),
            "skip_max_tftd": pa.ListArray.from_arrays(
                slist_off, pa.array(g_maxtf, type=pa.int64())),
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
    prof["merge"] = prof.get("m_sort", 0.0) + prof.get("m_concat", 0.0) + (
        time.perf_counter() - _pt)
    prof["m_skip_tbl"] = prof.get("m_skip_tbl", 0.0) + (
        time.perf_counter() - _pt)
    _pt = time.perf_counter()
    tmp = out_path + ".tmp"
    # no statistics on the blob columns: parquet min/max for a binary
    # column stores two whole values per row group in the footer —
    # for multi-KB posting blobs that DOUBLED the on-disk index (measured
    # 92 -> 44 KB on one segment) and nothing predicate-filters on blobs
    pq.write_table(
        seg, tmp, row_group_size=cfg.segment_row_group_size,
        write_statistics=[c for c in seg.column_names
                          if not c.endswith("blob")],
    )
    os.replace(tmp, out_path)
    prof["write"] = time.perf_counter() - _pt
    prof["t1"] = time.time()
    _prof_write("reduce", prof)
    terms_col = seg.column("term")
    return {
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
    then unpack + merge + write."""
    _pin_arrow_threads()
    prof = {"merge": 0.0, "write": 0.0, "bytes_in": 0, "t0": time.time()}
    tables: list = []
    _unpack_blob_lists(tables, blob_lists, prof)
    return _finalize_segment(tables, cfg, avgdl, out_path, prof)


@ray.remote
def _reduce_runs_streaming(
    cfg: IndexBuildConfig,
    avgdl: float,
    out_path: str,
    blob_refs: list,
):
    """Streaming reduce (the r3-verdict prefetch-overlap lever): the
    partition's map outputs arrive as a list of UNRESOLVED ObjectRefs
    (refs nested in a list are not awaited by Ray), so this task starts
    alongside the maps, ``ray.wait``s for outputs as they land, and
    unpacks each one immediately — the IPC-decode/intern phase overlaps
    the map tail instead of serialising after it.  While blocked in
    ``ray.wait`` the worker releases its CPU slots, so idle streaming
    reducers do not starve the map wave.  The merge+write still needs
    every input, so only unpack moves off the critical path."""
    _pin_arrow_threads()
    prof = {"merge": 0.0, "write": 0.0, "bytes_in": 0, "t0": time.time(),
            "streamed_batches": 0}
    tables: list = []
    pending = list(blob_refs)
    while pending:
        done, pending = ray.wait(pending, num_returns=1)
        _unpack_blob_lists(tables, ray.get(done), prof)
        prof["streamed_batches"] += 1
    return _finalize_segment(tables, cfg, avgdl, out_path, prof)


def build_segments_exchange(
    docterms_dir: str,
    segments_dir: str,
    cfg: IndexBuildConfig,
    heavy: dict[str, int],
    avgdl: float,
    num_reducers: int | None = None,
) -> tuple[list[dict], dict]:
    """Run the postings exchange over the docterms files.

    Returns ``(per_reducer_metrics, plan)`` where ``plan`` records the
    scheduling decisions (map/reducer counts, task CPU slots, docterms
    bytes) — persisted in the segments stage marker so scaling-run
    cohorts can be audited post hoc (which slot count a leg ran with)."""
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
    # exchange tasks are memory-bandwidth-heavy, and this class of host
    # saturates its bus well below one-stream-per-core: above 8 CPUs,
    # schedule each task with 2 CPU slots so at most cpus/2 run at once —
    # each gets a bigger bandwidth share instead of thrashing caches.
    # BUT only when the working set is big enough to thrash: below
    # ~96 MB of docterms per CPU the whole exchange is a few short
    # waves and halving concurrency doubles them (measured: 16-CPU
    # 300k-doc exchange 5.2s at 2 slots vs 3.1s at 1; the 150 MB/CPU
    # 1M-doc exchange equal-median with a worse tail at 1 slot).  On a
    # multi-node cluster bytes and CPUs both scale with node count, so
    # bytes-per-CPU stays the right per-node-bus proxy.
    env_cpus = os.environ.get("SE_RAY_EXCHANGE_CPUS")
    total_bytes = sum(os.path.getsize(f) for f in files)
    if env_cpus:
        task_cpus = int(env_cpus)
    elif cfg.exchange_task_cpus is not None:
        task_cpus = cfg.exchange_task_cpus
    else:
        task_cpus = (2 if cpus > 8 and total_bytes > 96e6 * cpus
                     else 1)
    map_refs = [
        _map_runs.options(num_returns=num_reducers,
                          num_cpus=task_cpus).remote(
            g, cfg, heavy, num_reducers, avgdl
        )
        for g in groups
    ]
    if num_reducers == 1:
        map_refs = [[r] for r in map_refs]
    env_streaming = os.environ.get("SE_RAY_EXCHANGE_STREAMING")
    if env_streaming is not None:
        streaming = env_streaming not in ("", "0")
    else:
        streaming = cfg.exchange_streaming
    if streaming:
        # prefetch overlap: reducers launch alongside the maps and
        # unpack outputs as they land (refs nested in a list are not
        # awaited by Ray — the reducer ray.waits on them itself)
        reduce_refs = [
            _reduce_runs_streaming.options(num_cpus=task_cpus).remote(
                cfg, avgdl,
                os.path.join(segments_dir, f"segment_{r:05d}.parquet"),
                [m[r] for m in map_refs],
            )
            for r in range(num_reducers)
        ]
    else:
        reduce_refs = [
            _reduce_runs.options(num_cpus=task_cpus).remote(
                cfg, avgdl,
                os.path.join(segments_dir, f"segment_{r:05d}.parquet"),
                *[m[r] for m in map_refs],
            )
            for r in range(num_reducers)
        ]
    plan = {"num_maps": n_maps, "num_reducers": num_reducers,
            "task_cpus": task_cpus, "docterms_bytes": total_bytes,
            "cluster_cpus": cpus, "streaming": streaming}
    return [m for m in ray.get(reduce_refs) if m], plan


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


def _sum_counts(tbls: list[pa.Table]) -> pa.Table:
    """Sum (term, n) tables by term, vectorized via dictionary codes."""
    combined = pa.concat_tables(tbls).combine_chunks()
    dic = _as_array(combined.column("term")).dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False)
    ns = combined.column("n").to_numpy(zero_copy_only=False)
    sums = np.zeros(len(dic.dictionary), dtype=np.int64)
    np.add.at(sums, codes, ns)
    keep = np.flatnonzero(sums > 0)
    return pa.table(
        {
            "term": dic.dictionary.take(pa.array(keep)),
            "n": pa.array(sums[keep], type=pa.int64()),
        }
    )


@ray.remote
def _merge_counts(*tbls) -> pa.Table:
    """Tree-reduce node: sum a fan-in of (term, n) partials."""
    _pin_arrow_threads()
    return _sum_counts([t for t in tbls if t is not None])


@ray.remote
def _filter_heavy(tbl: pa.Table, cutoff: float) -> pa.Table:
    """Tree-reduce root: keep only terms whose summed sample count
    clears the heavy cutoff — the driver then receives O(heavy set)
    rows, never the vocabulary."""
    _pin_arrow_threads()
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    keep = np.flatnonzero(ns >= cutoff)
    return tbl.take(pa.array(keep))


# engage the tree reduce above this many summed partial rows (tasks x
# per-task distinct vocab); below it the driver-side sum is faster.
# Env override for tests/A-Bs.
HEAVY_TREE_ROWS = int(os.environ.get("SE_RAY_HEAVY_TREE_ROWS", "4000000"))
_HEAVY_TREE_FANIN = 8


@ray.remote
def _heavy_partial_counts(files: list[str]) -> tuple[pa.Table | None, int]:
    """Per-task combiner for heavy-hitter detection: df counts of this
    task's sample files, summed over per-chunk dictionary codes (no flat
    term strings are ever materialized) and combined to one
    (term, n) row per distinct term before leaving the task.  Returns
    (table, row count) as two objects so the driver can inspect sizes
    (to pick driver-sum vs tree-reduce) without fetching the tables."""
    _pin_arrow_threads()
    parts = []
    for f in files:
        tbl = pq.read_table(f, columns=["term"], read_dictionary=["term"])
        for chunk in tbl.column("term").chunks:
            flat = chunk
            if not isinstance(flat, pa.DictionaryArray):
                flat = flat.dictionary_encode()
            codes = flat.indices.to_numpy(zero_copy_only=False)
            counts = np.bincount(codes[codes >= 0],
                                 minlength=len(flat.dictionary))
            keep = np.flatnonzero(counts > 0)
            parts.append(
                pa.table(
                    {
                        "term": flat.dictionary.take(pa.array(keep)),
                        "n": pa.array(counts[keep], type=pa.int64()),
                    }
                )
            )
    if not parts:
        return None, 0
    out = _sum_counts(parts)
    return out, out.num_rows


def detect_heavy_terms(
    docterms_dir: str, cfg: IndexBuildConfig
) -> dict[str, int]:
    """Heavy-hitter detection: per-task partial df counts (combiner,
    dictionary-code bincounts) -> driver final sum -> {term: salt_width}
    for terms whose df within one shard could exceed the threshold."""
    if cfg.heavy_df_threshold is None:
        return {}
    threshold = cfg.heavy_df_threshold

    # deterministic file sample: df-threshold detection only steers
    # salting (a miss means one hot reducer group, not wrong results), so
    # estimating df from ~1/10 of the files and extrapolating with a 1.5x
    # safety margin is enough — and keeps this pass O(sample) at any scale
    all_files = sorted(
        os.path.join(docterms_dir, f)
        for f in os.listdir(docterms_dir)
        if f.endswith(".parquet")
    )
    step = max(1, len(all_files) // max(4, len(all_files) // 10))
    sample_files = all_files[::step] or all_files
    scale_up = 1.5 * len(all_files) / len(sample_files)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    n_tasks = max(1, min(len(sample_files), 2 * cpus))
    groups = [sample_files[i::n_tasks] for i in range(n_tasks)]
    # raw tasks reading terms DICTIONARY-ENCODED (same idiom as
    # _map_runs): the parquet dictionary pages decode straight to codes,
    # so counting is bincount over ints — the previous Ray Data path
    # re-hashed every flat term string per batch, which made the stage a
    # fixed ~10 s at ANY cpu count at 1M docs (anti-scaling, measured)
    partial_refs = [
        _heavy_partial_counts.options(num_returns=2).remote(g)
        for g in groups
    ]
    tbl_refs = [r[0] for r in partial_refs]
    part_rows = ray.get([r[1] for r in partial_refs])
    total_rows = sum(part_rows)
    if total_rows == 0:
        return {}
    if total_rows > HEAVY_TREE_ROWS and len(tbl_refs) > 1:
        # tree reduce (VERDICT r3 #8): pairwise merge tasks sum the
        # partials and the ROOT applies the heavy cutoff, so the driver
        # receives O(heavy set) rows — never tasks x vocab
        refs = [r for r, n in zip(tbl_refs, part_rows) if n]
        while len(refs) > 1:
            refs = [
                _merge_counts.remote(*refs[i:i + _HEAVY_TREE_FANIN])
                for i in range(0, len(refs), _HEAVY_TREE_FANIN)
            ]
        heavy_tbl = ray.get(
            _filter_heavy.remote(refs[0], threshold / scale_up))
    else:
        # small vocab: one vectorized driver-side sum + local filter
        tbls = [t for t in ray.get(tbl_refs)
                if t is not None and t.num_rows]
        all_parts = _sum_counts(tbls)
        ns = all_parts.column("n").to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(ns >= threshold / scale_up)
        heavy_tbl = all_parts.take(pa.array(keep))

    ns = heavy_tbl.column("n").to_numpy(zero_copy_only=False)
    est = ns * scale_up  # extrapolate sample -> corpus df estimate
    heavy = {}
    for t, e in zip(heavy_tbl.column("term").to_pylist(), est):
        if t:
            heavy[t] = min(
                cfg.max_salt, max(2, int(np.ceil(e / threshold)))
            )
    return heavy


@ray.remote
def _sum_doc_lengths(files: list[str],
                     check_dense: bool) -> tuple[int, int, list]:
    """(rows, sum(doc_length), per-file (min_doc, max_doc, rows,
    n_unique, sum_dl, path)) over a group of docstats files — the
    distributed corpus-scalar aggregate (at most two int64 columns per
    file in memory at a time, never the corpus).  The per-file records
    feed the driver-side dense-unique invariant check and, on overlap,
    the stale-file reconciliation (skipped, and the doc_id column left
    unread, when ``check_dense`` is off)."""
    _pin_arrow_threads()
    rows, tot = 0, 0
    spans: list[tuple[int, int, int, int, int, str]] = []
    cols = ["doc_length", "doc_id"] if check_dense else ["doc_length"]
    for f in files:
        t = pq.read_table(f, columns=cols)
        rows += t.num_rows
        dl = int(pa.compute.sum(t.column("doc_length")).as_py() or 0)
        tot += dl
        if check_dense and t.num_rows:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            spans.append((int(ids.min()), int(ids.max()), t.num_rows,
                          int(np.unique(ids).size), dl, f))
    return rows, tot, spans


def corpus_scalars(docterms_dir: str,
                   check_dense: bool = True,
                   base: int = 0,
                   allow_cleanup: bool = True) -> tuple[int, int]:
    """(num_docs, total_tokens) via a small remote tree: the driver holds
    O(tasks) partials, never an O(corpus) column (VERDICT r3 #4 — the old
    single-process ``pq.read_table(columns=["doc_length"])`` materialised
    8 GB on the driver at 10^9 docs).

    Also enforces the docstats dense-unique invariant (r4 advice):
    ``_write_docstats_block``'s idempotency rests on doc-range filenames
    being stable across lineage re-execution; if re-execution ever
    composed batches differently, stale files with overlapping doc sets
    would silently double-count docs here.  Each file must hold unique
    doc ids, file doc ranges must be pairwise disjoint, and the union
    must be dense 0..N-1.

    On an overlap, instead of aborting outright, reconcile: per-doc
    stats are a pure function of the doc, so ANY subset of files that
    exactly tiles 0..N-1 yields the correct scalars.  Within one build,
    every retry write lands strictly AFTER the dead attempt's stale
    write, so keeping files newest-first (dropping any that overlap an
    already-kept range) recovers exactly the final pass's tiling when
    one exists.  Verified tilings delete the stale losers (so the
    reader's sidecar scatter and the manifest lineage see a clean dir);
    anything still inconsistent raises instead of producing a wrong
    N / avgdl / checksum.  The clean-build fast path is unchanged
    (observed in the wild: storm-window task retries on the 300k
    scaling corpus left one overlapping stale file per ~10 builds,
    aborting bench runs that are now reconciled and recorded)."""
    files = sorted(
        os.path.join(docterms_dir, f)
        for f in os.listdir(docterms_dir)
        if f.endswith(".parquet")
    )
    if not files:
        return 0, 0
    cpus = int(ray.cluster_resources().get("CPU", 8))
    n_tasks = max(1, min(len(files), 2 * cpus))
    groups = [files[i::n_tasks] for i in range(n_tasks)]
    parts = ray.get(
        [_sum_doc_lengths.remote(g, check_dense) for g in groups])
    rows = sum(p[0] for p in parts)
    tot = sum(p[1] for p in parts)
    if not check_dense:
        return rows, tot
    spans = sorted(s for p in parts for s in p[2])
    for lo, hi, n, n_uniq, _dl, _f in spans:
        if n_uniq != n:
            raise ValueError(
                f"docstats invariant broken: a file holds {n - n_uniq} "
                f"duplicate doc ids in range [{lo}, {hi}] — stale "
                "side-write from a lineage re-execution; rebuild the "
                "docterms stage"
            )
    overlap = any(b[0] <= a[1] for a, b in zip(spans, spans[1:]))
    if not overlap:
        if spans and (spans[0][0] != base
                      or spans[-1][1] != base + rows - 1):
            raise ValueError(
                f"docstats invariant broken: {rows} rows but doc ids span "
                f"[{spans[0][0]}, {spans[-1][1]}] (expected dense "
                f"{base}..{base + rows - 1})"
            )
        return rows, tot
    return _reconcile_stale_docstats(spans, base, allow_cleanup)


def _reconcile_stale_docstats(spans: list, base: int = 0,
                              allow_cleanup: bool = True) -> tuple[int, int]:
    """Newest-first greedy selection of non-overlapping docstats files;
    see ``corpus_scalars``.  ``spans`` is the per-file
    (lo, hi, rows, n_unique, sum_dl, path) list with at least one range
    overlap.  Returns (num_docs, total_tokens) over the kept tiling and
    deletes the stale losers, or raises if no exact tiling emerges.
    ``allow_cleanup=False`` (read-only callers, e.g. diagnostics like
    scripts/exchange_probe.py) computes the same scalars but leaves the
    stale files on disk for the build's own commit path to clean up."""
    import warnings

    by_newness = sorted(
        spans,
        key=lambda s: (os.stat(s[5]).st_mtime_ns, s[5]),
        reverse=True,
    )
    kept: list = []          # sorted by lo
    dropped: list = []
    import bisect

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
        and all(n == hi - lo + 1 for lo, hi, n, _u, _dl, _f in kept)
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
    if allow_cleanup:
        for s in dropped:
            try:
                os.remove(s[5])
            except OSError:
                pass
        fate = (f"dropped {len(dropped)} stale overlapping side-file(s) "
                f"left by a task retry")
    else:
        fate = (f"ignored {len(dropped)} stale overlapping side-file(s) "
                f"from a task retry (left on disk)")
    warnings.warn(
        f"docstats reconciliation: {fate}; kept "
        f"{len(kept)} files tiling 0..{kept[-1][1]}",
        RuntimeWarning,
        stacklevel=2,
    )
    return (kept[-1][1] + 1 - base,
            sum(dl for _lo, _hi, _n, _u, dl, _f in kept))


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
    docstats_dir = os.path.join(index_dir, "docstats")
    segments_dir = os.path.join(index_dir, "segments")

    # ---- stage 1: tokenize -> docterms ----
    if not _stage_done(index_dir, "docterms", fingerprint):
        id_val_thread = None
        id_val_err: list[BaseException] = []
        if cfg.id_col not in corpus.schema().names:
            from .ids import assign_doc_ids

            corpus = assign_doc_ids(corpus, base=cfg.doc_id_base)
        else:
            # the reader indexes num_docs-sized arrays by doc_id: a sparse or
            # non-zero-based pre-assigned id column would crash at query
            # time, and duplicate ids would silently overwrite range-named
            # docstats files, so validate min/max/count over the id column.
            # The pass runs CONCURRENTLY with tokenize and is joined before
            # the docterms stage commits: as a blocking pre-pass it cost
            # 4-7s of pure launch overhead per 300k-doc build (and
            # Dataset.aggregate routes through shuffle machinery — 2x the
            # cost of this map_batches partial + driver combine), while
            # overlapped its tiny per-file tasks hide behind the
            # tokenize stream.  On failure the stage never commits, so a
            # resumed build re-checks.
            import threading

            _id_col = cfg.id_col

            def _idspan_partial(b: pa.Table) -> pa.Table:
                ids = b.column(_id_col).to_numpy(
                    zero_copy_only=False).astype(np.uint64, copy=False)
                # moments accumulate mod 2^64 (numpy uint64 wraps, C
                # semantics); the driver compares in the same ring
                s1 = int(ids.sum(dtype=np.uint64))
                s2 = int((ids * ids).sum(dtype=np.uint64))
                return pa.table({"lo": [int(ids.min())],
                                 "hi": [int(ids.max())],
                                 "n": [b.num_rows],
                                 "s1": [s1], "s2": [s2]})

            def _validate_ids(ds=corpus, b=cfg.doc_id_base):
                try:
                    parts = ds.select_columns([_id_col]).map_batches(
                        _idspan_partial, batch_format="pyarrow",
                        batch_size=None,
                    ).take_all()
                    n = sum(p["n"] for p in parts)
                    if not n:
                        return
                    lo = int(min(p["lo"] for p in parts))
                    hi = int(max(p["hi"] for p in parts))
                    # min/max/count alone pass compensated duplicates
                    # (e.g. [0, 1, 1, 3]): also require the first two
                    # power sums of the ids to equal those of b..b+n-1,
                    # computed exactly in the mod-2^64 ring on both
                    # sides (numpy uint64 wraps; the closed forms below
                    # use Python big ints then reduce).  This catches
                    # every duplicate/shift/offset corruption pattern a
                    # retry or mis-assignment produces; only a
                    # deliberately constructed Prouhet-Tarry-Escott
                    # multiset (e.g. swapping {1,5,6} for {2,3,7}) can
                    # still pass, which is outside this guard's threat
                    # model (corruption, not adversarial input).
                    M = 1 << 64
                    s1 = sum(int(p["s1"]) for p in parts) % M
                    s2 = sum(int(p["s2"]) for p in parts) % M

                    def _sq_prefix(m: int) -> int:
                        return m * (m + 1) * (2 * m + 1) // 6

                    first, last = int(b), int(b) + n - 1
                    want_s1 = ((first + last) * n // 2) % M
                    want_s2 = (_sq_prefix(last)
                               - _sq_prefix(first - 1)) % M
                    if (lo != b or hi != b + n - 1
                            or s1 != want_s1 or s2 != want_s2):
                        raise ValueError(
                            f"pre-assigned {_id_col!r} must be a dense "
                            f"permutation of {b}..{b}+N-1 (got min={lo}, "
                            f"max={hi}, rows={n}; power-sum check "
                            f"{'ok' if s1 == want_s1 and s2 == want_s2 else 'FAILED - duplicate or corrupt ids'}); "
                            f"drop the column to have build_index assign "
                            f"ids, or re-assign with "
                            f"searchengine_ray.ids.assign_doc_ids"
                        )
                except BaseException as e:  # re-raised on the build thread
                    id_val_err.append(e)

            id_val_thread = threading.Thread(target=_validate_ids,
                                             daemon=True)
            id_val_thread.start()
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
        corpus.map_batches(
            lambda batch, _t=tokenizer: _t(batch),
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
        ).map_batches(
            # rebatch to docterms_block_rows DOCS, then explode + group
            # each block by (bucket, term, doc) and side-write its per-doc
            # stats (docterms v4): the one unavoidable gather of the
            # position payload runs HERE, in the embarrassingly-parallel
            # stage, never in the exchange
            _group_and_sidewrite,
            batch_format="pyarrow",
            batch_size=cfg.docterms_block_rows,
        ).write_parquet(
            docterms_dir,
            # ~one grouped block per file: more blocks per file multiply
            # fragments per (term, file) — each block is its own
            # (bucket, term) grouping — measured +24% wire bytes and 2x
            # reducer merge CPU when Ray packed ~6 blocks into one file.
            # A run split ACROSS files by the row cap stays correct:
            # each side is a disjoint ascending-doc fragment the reducer
            # merges by first_doc.
            max_rows_per_file=max(cfg.docterms_block_rows * 64, 1 << 18),
        )
        if id_val_thread is not None:
            id_val_thread.join()
            if id_val_err:
                raise id_val_err[0]
        stage_seconds["tokenize"] = time.perf_counter() - t0
        _commit_stage(
            index_dir, "docterms", fingerprint,
            files=_dir_lineage(docterms_dir),
            docstats_files=_dir_lineage(docstats_dir),
        )

    # per-doc stats (incl. zero-term docs) live in docstats/; postings in
    # docterms/ are exploded and pre-grouped for the exchange

    # ---- stage 2: heavy-hitter detection + postings merge -> segments ----
    if not _stage_done(index_dir, "segments", fingerprint):
        import shutil

        # corpus scalars via a distributed pruned-column aggregate —
        # needed now so block-max BM25 wdt bounds go into the segments
        n_docs, tot = corpus_scalars(docstats_dir, base=cfg.doc_id_base)
        avgdl = (tot / n_docs) if n_docs else 1.0

        heavy = detect_heavy_terms(docterms_dir, cfg)
        stage_seconds["heavy_detect"] = (
            time.perf_counter() - t0 - sum(stage_seconds.values())
        )
        shutil.rmtree(segments_dir, ignore_errors=True)
        seg_metrics, exchange_plan = build_segments_exchange(
            docterms_dir, segments_dir, cfg, heavy, avgdl,
            num_reducers=cfg.num_reducers,
        )
        stage_seconds["exchange"] = (
            time.perf_counter() - t0 - sum(stage_seconds.values())
        )
        _commit_stage(
            index_dir,
            "segments",
            fingerprint,
            heavy_terms={t: w for t, w in heavy.items()},
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
    num_docs = seg_marker.get("num_docs")
    total_tokens = seg_marker.get("total_tokens")
    if num_docs is None or total_tokens is None:
        num_docs, total_tokens = corpus_scalars(
            docstats_dir, base=cfg.doc_id_base)

    heavy_terms = seg_marker.get("heavy_terms", {})

    manifest = {
        "version": 1,
        "segment_format": SEGMENT_FORMAT,
        "input": input_description,
        "config": cfg.to_json(),
        "fingerprint": fingerprint,
        "num_docs": num_docs,
        "doc_id_base": cfg.doc_id_base,
        "total_tokens": total_tokens,
        "avg_doc_length": (total_tokens / num_docs) if num_docs else 0.0,
        "num_buckets": cfg.num_buckets,
        "docs_per_shard": cfg.docs_per_shard,
        "heavy_terms": heavy_terms,
        "exchange_plan": seg_marker.get("exchange_plan"),
        "segments": seg_files,
        "doc_stats_dir": "docstats",
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
