"""Distributed index build — the Ray-Data-native SPIMI equivalent.

Reference pipeline (/root/reference/engine/indexing/spimi.py:56-123): one
thread streams documents, accumulates an in-memory positional index, flushes
sorted buckets at a memory limit, then k-way heap-merges buckets into one
postings file + SQLite offset catalog + docWeights.bin.

Ray-Data-native rebuild:

  read_parquet(corpus)
    -> assign_doc_ids (one explicit global decision, ids.py)
    -> ONE map_batches(_tokenize_stage) of DOCTERMS_BLOCK_ROWS-doc batches,
       preserve_order on (docterms v10)              # SPIMI block ≙ Ray block
         analyze: batch_tokenize.analyze_batch, the one analyzer entry
           point, in slices of at most ANALYZE_SLICE_BYTES content bytes
           (memory bounded by bytes, not docs) -> per-doc stats +
           per-term (tftd, VByte pos blob)
         group + encode + write: one file pair per dense doc-id run of
         the batch, both named by the run's [lo, hi] and written tmp +
         atomic rename:
         docterms/  (the run's postings grouped by (gkey, term, doc) and
                     VByte-encoded: one posting-list fragment per
                     (gkey, term), one parquet row group per gkey, where
                       shard  = doc_id // docs_per_shard  (bounds lists)
                       bucket = crc32(term) % num_buckets
                       gkey   = shard * num_buckets + bucket)
         docstats/  (per-doc title/doc_length/l_d/sha256, incl. zero-term
                     docs)
    -> one docstats pass: ids tile 0..N-1, corpus scalars, docweights/
       (dense doc_length and l_d arrays in doc-id order, the reference's
       docWeights.bin)
  docterms -> plan_exchange on the driver routes each row group once,
              to reducer gkey % P, P sized from the corpus; each reducer
              reads its row groups, re-encodes each merged doc stream,
              bit-packs each merged position stream and derives the wdt
              bounds and skip blocks                # the heap merge
    -> segments/: one posting-list *fragment* per (term, shard).
       segment_NNNNN.bin holds each fragment's three streams back to
       back: VByte doc gaps folded with a tf==1 flag, VByte tf
       exceptions, and the position gaps bit-packed with one width per
       list (``bitpack``); segment_NNNNN.parquet is the catalog: term
       dictionary, df/cf/max_wdt, the three stream byte lengths and the
       skip-block bounds (last doc id and uint8 max wdt per block of
       ``skip_block`` postings; the reader derives the blocks' byte
       offsets from the streams)
  manifest.json: corpus scalars, per-stage lineage + per-file metrics,
       the tokenize and exchange task splits (tokenize_plan,
       exchange_plan), committed last -> a re-run skips completed stages
       (resume).

``docs_per_shard`` is the only doc-range split of a posting list: a term's
fragments are doc_id-range-disjoint, so the query reader concatenates them
in first-doc order and postings stay globally doc_id-sorted with no second
merge pass.  Like the reference, a hot term is never split further.

The tokenize stage runs with ``preserve_order`` on, so its batches, and
with them the dense runs that name its files, follow the input's block order,
not task timing: the same corpus gives the same docterms, docstats and
segment bytes, and a retried task rewrites the same files with the same
bytes.  The segments do not depend on the batch size either (a merged
list's bytes and skip blocks are a function of its postings alone), nor
on the cluster: the reducer count comes from the corpus.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, asdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from . import layout
from .batch_tokenize import analyze_batch
from .tokenizer import TokenTermCache
from .verify import content_digests

# corpus columns the tokenize stage reads; ID_COL is assigned by
# ids.assign_doc_ids when the corpus does not carry it
CONTENT_COL = "content"
TITLE_COL = "path"
ID_COL = "doc_id"

# docs per tokenize-stage batch: each batch is analyzed (in slices of
# at most batch_tokenize.ANALYZE_SLICE_BYTES content bytes), then each
# dense doc-id run of it is grouped, encoded and written.
DOCTERMS_BLOCK_ROWS = 4096
SEGMENT_ROW_GROUP_SIZE = 512


def _as_array(col) -> pa.Array:
    """Normalize a Table column to a single contiguous pa.Array."""
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


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
    analyzer: str = "reference"  # batch_tokenize.analyze_batch's analyzer
    # postings-exchange reduce partitions; None: sized from the corpus,
    # max(8, ceil(total_tokens / REDUCE_TOKENS)) (plan_exchange)
    num_reducers: int | None = None

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


_DOCSTATS_COLS = ["doc_id", "title", "doc_length", "l_d", "sha256"]


def _group_run(cfg: IndexBuildConfig, tok: pa.Table) -> pa.Table:
    """Explode ONE dense doc-id run of a tokenized batch, group its
    postings by (gkey, term) (docs stay ascending inside each group via
    the stable sort) and encode them: the run's ``_DOCTERMS_SCHEMA``
    fragment table in gkey order, which is its docterms file (docterms
    v10)."""
    terms_col = _as_array(tok.column("terms"))
    lens = pa.compute.list_value_length(terms_col).to_numpy(
        zero_copy_only=False)
    flat_terms = terms_col.flatten()
    if len(flat_terms) == 0:
        return _DOCTERMS_SCHEMA.empty_table()
    doc_np = _as_array(tok.column("doc_id")).to_numpy(zero_copy_only=False)
    doc_ids = np.repeat(doc_np, lens)
    tftds = _as_array(tok.column("tftds")).flatten().to_numpy(
        zero_copy_only=False)
    pos_blob = _as_array(tok.column("pos_blob")).flatten()
    dic = flat_terms.dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False)
    uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
    B = cfg.num_buckets
    uniq_buckets = np.fromiter((layout.term_bucket(t, B) for t in uniq),
                               dtype=np.int64, count=len(uniq))
    gk = (doc_ids // cfg.docs_per_shard) * B + uniq_buckets[codes]
    # stable (gkey, term-code) order keeps the original ascending-doc
    # order inside each group.  One packed int32 key when it fits
    # (typical: below docs_per_shard docs gkey is the bucket, and
    # vocab x buckets << 2^31) — a one-pass int32 argsort moves half the
    # bytes of an int64 one.
    V = len(uniq)
    if (int(gk.max()) + 1) * V < (1 << 31):
        order = np.argsort(gk.astype(np.int32) * np.int32(V)
                           + codes.astype(np.int32), kind="stable")
    else:
        order = np.lexsort((codes, gk))
    return _encode_file_fragments(
        gk[order], codes[order], doc_ids[order], tftds[order],
        pos_blob.take(pa.array(order)), uniq)


def _group_postings_batch(cfg: IndexBuildConfig, tok: pa.Table):
    """One tokenized batch (v2-shaped per-doc rows) -> one
    ``(span, fragments, docstats rows)`` per dense doc-id run,
    ``span`` naming the run as ``{lo:012d}_{hi:012d}``.

    Correctness of the grouping contract (what the exchange relies on):
    fragments of one term must cover DISJOINT doc ranges with docs
    ascending inside each fragment.  Doc ids are dense, so two dense runs
    can never overlap without sharing a doc id; grouping each run on its
    own keeps every fragment inside its run.  Within a run, shard
    (= doc // docs_per_shard) is non-decreasing in doc, so every
    (gkey, term) run of the grouped postings is a CONTIGUOUS
    ascending-doc slice, which the encoder turns into one fragment.
    ``preserve_order`` upstream makes a batch one run
    for ``assign_doc_ids``-ordered input (it costs no measurable
    tokenize time: perfbench's ``build.tokenize_s`` median 2.77 s with
    it against 2.81 s without, 5 seeds each on a 4-CPU host); a permuted
    pre-assigned id column still splits into several."""
    doc_np = _as_array(tok.column("doc_id")).to_numpy(zero_copy_only=False)
    bounds = _dense_run_bounds(doc_np)
    for a, b in zip(bounds[:-1], bounds[1:]):
        run = tok.slice(a, b - a)
        span = f"{int(doc_np[a]):012d}_{int(doc_np[b - 1]):012d}"
        yield span, _group_run(cfg, run), run.select(_DOCSTATS_COLS)


def _dense_run_bounds(ids: np.ndarray) -> list[int]:
    """Slice bounds of the maximal dense-consecutive runs of ``ids``
    (ascending, step 1): returns [0, b1, ..., len], or [] for no ids."""
    if ids.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(ids) != 1) + 1
    return [0, *breaks.tolist(), ids.size]


def _write_parquet_atomic(tbl: pa.Table, path: str, cuts=None,
                          **writer_kw) -> None:
    """One row group per slice between ``cuts`` (default: the whole
    table, so one dictionary page per column), written to a tmp file and
    renamed into place: a retried task that rewrites the file leaves the
    same bytes and no partial file."""
    import uuid

    d, name = os.path.split(path)
    tmp = os.path.join(d, f".{name}.{uuid.uuid4().hex}.tmp")
    cuts = [0, tbl.num_rows] if cuts is None else cuts
    with pq.ParquetWriter(tmp, tbl.schema, **writer_kw) as w:
        for a, b in zip(cuts[:-1], cuts[1:]):
            w.write_table(tbl.slice(a, b - a), row_group_size=max(1, b - a))
    os.replace(tmp, path)


def write_index_parquet(tbl: pa.Table, path: str,
                        row_group_size: int | None = None,
                        statistics: list[str] | None = None) -> None:
    """Write one of the files an index keeps (a segment catalog or a
    docstats file; segment format v8): zstd, no dictionary pages (their
    columns are near-unique or tiny), and min/max statistics only on the
    ``statistics`` columns a reader prunes by.  Row groups of
    ``row_group_size`` rows (default: one), tmp + rename."""
    n = tbl.num_rows
    step = row_group_size or max(1, n)
    _write_parquet_atomic(
        tbl, path, [*range(0, n, step), n], compression="zstd",
        use_dictionary=False, write_statistics=statistics or False)


def _write_docterms(fragments: pa.Table, path: str) -> None:
    """A docterms file (v10): the gkey-ordered fragment table with one
    row group per gkey, so reducer ``r`` reads exactly the row groups
    whose gkey is ``r`` mod P.  Only ``gkey`` carries min/max statistics:
    a reducer routes on them, and binary min/max of the term and blob
    columns would only bloat the footer."""
    gk = fragments.column("gkey").to_numpy()
    cuts = [0, *(np.flatnonzero(gk[1:] != gk[:-1]) + 1).tolist(), gk.size]
    _write_parquet_atomic(fragments, path, cuts, write_statistics=["gkey"])


def _group_and_write(batch: pa.Table, cfg: IndexBuildConfig,
                     docterms_dir: str, docstats_dir: str,
                     prof: dict | None = None) -> pa.Table:
    """For each dense doc-id run of one tokenized batch, write
    ``docterms_{span}.parquet`` (its encoded fragments, when it has any
    postings) and ``docstats_{span}.parquet`` (its per-doc rows).  Files
    are named by the run alone, so a retried task rewrites the same names
    with the same bytes.  Returns one row (the span) per run; adds its
    group and write seconds to ``prof``."""
    prof = {} if prof is None else prof
    spans = []
    t = time.perf_counter()
    for span, fragments, docstats in _group_postings_batch(cfg, batch):
        t_write = time.perf_counter()
        prof["group"] = prof.get("group", 0.0) + t_write - t
        if fragments.num_rows:
            _write_docterms(fragments, os.path.join(
                docterms_dir, f"docterms_{span}.parquet"))
        # doc_id statistics: the docstats pass reads each file's span
        # from them, and ``get_titles`` prunes by them
        write_index_parquet(docstats, os.path.join(
            docstats_dir, f"docstats_{span}.parquet"),
            statistics=["doc_id"])
        spans.append(span)
        t = time.perf_counter()
        prof["write"] = prof.get("write", 0.0) + t - t_write
    return pa.table({"span": pa.array(spans, type=pa.string())})


def _tokenize_stage(batch: pa.Table, cfg: IndexBuildConfig,
                    docterms_dir: str, docstats_dir: str) -> pa.Table:
    """The tokenize stage, one task per batch of corpus rows: analyze the
    batch (``analyze_batch``, the per-worker term cache), then group,
    encode and write each dense doc-id run (``_group_and_write``).  The
    gather of the position payload and the VByte encode run here, in the
    embarrassingly-parallel stage, never in the exchange.  Returns one
    row: the batch's doc count and its analyze, group and write
    seconds."""
    t0 = time.perf_counter()
    content = _as_array(batch.column(CONTENT_COL))
    cols = analyze_batch(content, cfg.analyzer, _worker_cache(cfg.analyzer))
    tok = pa.table({
        "doc_id": _as_array(batch.column(ID_COL)).cast(pa.int64()),
        "title": _as_array(batch.column(TITLE_COL)),
        "doc_length": pa.array(cols["doc_length"]),
        "l_d": pa.array(cols["l_d"]),
        "sha256": content_digests(content),
        "terms": cols["terms"],
        "tftds": cols["tftds"],
        "pos_blob": cols["pos_blob"],
    })
    prof = {"docs": batch.num_rows, "analyze": time.perf_counter() - t0,
            "group": 0.0, "write": 0.0}
    _group_and_write(tok, cfg, docterms_dir, docstats_dir, prof)
    return pa.table({k: [v] for k, v in prof.items()})


_SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("bucket", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        # wdt bounds as uint8 ``ceil(wdt * WDT_QUANT)`` (v9); the reader
        # divides by ``layout.WDT_QUANT`` at load
        ("max_wdt", pa.uint8()),
        # byte lengths of the row's three streams in the segment's .bin,
        # stored back to back in row order (format v6): the reader
        # derives each row's offset with one cumsum at open
        ("doc_len", pa.int32()),    # VByte gap<<1 | (tf==1) stream
        ("tf_len", pa.int32()),     # VByte tf exceptions (tf != 1 only)
        # bit-packed position gaps (v9): one width byte w, then the cf
        # gaps as w-bit fields (``bitpack``), 1 + ceil(cf * w / 8) bytes
        ("pos_len", pa.int32()),
        # per skip block of ``skip_block`` postings: its last doc id and
        # its max wdt bound.  The blocks' byte offsets and posting counts
        # are not stored (v8): the reader derives them from the streams
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_max_wdt", pa.list_(pa.uint8())),
    ]
)


# Docterms schema (docterms v10): one row per posting-list fragment, i.e.
# per (dense doc-id run, gkey, term), already VByte-encoded.  The tokenize
# task writes a run's fragments as its docterms file, one row group per
# gkey, and reducer ``gkey % P`` reads those row groups as they are.  A
# fragment's doc range is contiguous and disjoint from every other
# fragment of the same (gkey, term), so the reducer merges fragments with
# no re-sort of postings: it re-encodes the merged doc stream from the
# postings it decodes, concatenates the tf-exception bytes as they are
# and bit-packs the merged position gaps (segment v9).  No wdt bound or
# skip block rides here: the bounds need the corpus avgdl, which exists
# only once every tokenize task is done, and a merged list's blocks are
# cut from its whole postings, so the reducer derives both from the
# postings it decodes.
_DOCTERMS_SCHEMA = pa.schema(
    [
        ("gkey", pa.int64()),
        ("term", pa.string()),
        ("df", pa.int32()),
        ("cf", pa.int64()),
        ("first_doc", pa.int64()),   # absolute doc id of the first posting
        ("blob", pa.binary()),       # VByte gap<<1 | (tf==1), first absolute
        ("tf_blob", pa.binary()),    # VByte tftds of the tf != 1 postings
        ("pos_blob", pa.binary()),   # concatenated per-posting VByte blobs
    ]
)

# Segment layout history (``layout.SEGMENT_FORMAT``, folded into stage
# fingerprints so an index built by an older code revision is rebuilt
# rather than misread).  v3: the doc/tf
# stream is split into two per-term columns (blob = gaps, tf_blob = tftds)
# — the interleaved 2n-wide uint64 stream build was the single largest
# memory-traffic source on the bandwidth-bound reduce side.  v4: skip
# blocks carry an explicit per-block posting count (``skip_count``); the
# reducer cut irregular blocks at fragment seams until docterms v10, and
# cuts every ``skip_block`` postings since.
# v5: the per-block max-tftd skip column is dropped (nothing read it; the
# WAND block bounds are ``skip_max_wdt``).  v6: the three streams leave the
# parquet for one byte-addressed ``.bin`` per segment (a term fetch is one
# ``os.pread``, not a row-group read), and the tf stream is folded into the
# doc stream Lucene-style: each doc-gap value is ``gap<<1 | (tf==1)`` and
# only tf != 1 values are stored, as VByte "exceptions" (snappy no longer
# squeezes the mostly-1 tf bytes, so the fold keeps the index size level).
# v7: the catalog's ``salt`` column is gone — ``docs_per_shard`` is the
# only doc-range split, so a build writes one row per (term, shard).
# v8: ``skip_offset``, ``skip_tf_offset`` and ``skip_count`` are gone —
# blocks are regular, so a block's count follows from df and
# ``skip_block``, and its doc/tf byte starts from the VByte terminators
# of the streams the reader already holds (``reader.block_offsets``).
# The catalog and docstats are written zstd, with no dictionary pages
# and statistics only where a reader prunes (``write_index_parquet``).
# On perfbench's seed-5 corpus the catalog went from 720,612 to 410,615 B
# and docstats from 235,551 to 178,858 B, with the ``.bin`` unchanged.
# v9: each merged list's position stream is bit-packed with one width
# per list (``bitpack``: a width byte, then its cf gaps as w-bit fields)
# instead of VByte, and ``max_wdt`` / ``skip_max_wdt`` store the uint8
# ``ceil(wdt * WDT_QUANT)`` instead of its float64 quotient.  The doc
# and tf streams stay VByte (``reader.block_offsets`` scans their
# terminators).

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
# v8: one docterms file and one docstats file per dense doc-id run, both
# named by the run, from a ``preserve_order`` group stage; the ``seg``
# column is gone (a file is one run, so no fragment crosses a seam).
# v9: a docterms file holds its run's encoded fragments, not posting rows:
# the group task encodes, the exchange maps only route, and the reducers
# derive the bounds.
# v10: one row group per gkey with statistics on ``gkey`` only, rows in
# (gkey, term) order, and no skip columns: the reducers read their own
# row groups straight from the files (no exchange maps) and cut the skip
# blocks from the postings they decode.
DOCTERMS_FORMAT = 10

def bm25_wdt(tftds: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    """Okapi wdt exactly as the reference computes it
    (/root/reference/engine/querying/rankedquery.py:22): k1=1.2, b=0.75."""
    tf = tftds.astype(np.float64)
    k1, b = layout.BM25_K1, layout.BM25_B
    return (k1 + 1.0) * tf / (k1 * ((1.0 - b) + b * (dls / avgdl)) + tf)


def wdt_quantized(tftds: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    """``ceil(wdt * layout.WDT_QUANT)`` as uint8, the stored wdt bound."""
    return np.ceil(bm25_wdt(tftds, dls, avgdl)
                   * layout.WDT_QUANT).astype(np.uint8)


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


def _encode_file_fragments(
    gk: np.ndarray,
    codes: np.ndarray,
    doc: np.ndarray,
    tf32: np.ndarray,
    pos_arr: pa.Array,
    uniq: np.ndarray,
) -> pa.Table:
    """One dense doc-id run's grouped postings -> its docterms file: a
    ``_DOCTERMS_SCHEMA`` fragment table, one row per (gkey, term) run,
    fully VByte-encoded.

    Inputs are the run's posting arrays with every (gkey, term) run
    CONTIGUOUS and doc ids ascending inside each run (``_group_run``
    sorts them so).  ONE global VByte encode + cumsum covers every run;
    per-run blobs are zero-copy offset slices over the shared buffers.
    """
    from . import vbyte

    n = gk.size
    # doc gaps: absolute at run start, delta inside the run.  int32 when
    # every absolute doc id fits — halves encode-path memory traffic.
    if int(doc.max()) < (1 << 31):
        doc_n = doc.astype(np.int32, copy=False)
    else:
        doc_n = doc
    new = np.empty(n, dtype=bool)
    new[0] = True
    # Break a run on (gkey, term) change and on any non-ascending doc
    # id, so a delta is never non-positive (it would wrap to a huge
    # unsigned doc id); the reducer's overlap check guards the gaps
    # between fragments.
    new[1:] = (
        (gk[1:] != gk[:-1])
        | (codes[1:] != codes[:-1])
        | (doc_n[1:] <= doc_n[:-1])
    )
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
            "non-positive intra-run doc gap in the fragment encode; "
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
            "docterms run's doc stream exceeds 2 GB binary-offset range"
        )
    dbyte_ends = dbyte_ends.astype(np.int32)
    dbyte_starts = dbyte_ends - blen_d
    encoded_d = vbyte.encode(gap, blen_d)
    frag_d_start = dbyte_starts[run_starts]
    frag_d_end = dbyte_ends[run_ends - 1]

    # tf exceptions: the tftds != 1, in posting order; a posting's byte
    # start is the bytes of the exceptions before it, so fragments
    # address the stream like the doc stream
    blen_t = np.where(tf_one, np.uint8(0), vbyte.encoded_lengths(tf32))
    tbyte_ends = np.cumsum(blen_t, dtype=np.int64)
    if int(tbyte_ends[-1]) >= 2**31 - 1:
        raise ValueError(
            "docterms run's tf stream exceeds 2 GB binary-offset range"
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
            "docterms run's position stream exceeds 2 GB binary-offset "
            "range"
        )
    frag_p_start = pos_row_off[run_starts].astype(np.int32)
    frag_p_end = pos_row_off[run_ends].astype(np.int32)
    pos_data = pos_arr.buffers()[2]

    # per-fragment stats
    tf64 = tf32.astype(np.int64)
    df32 = (run_ends - run_starts).astype(np.int32)
    cf = np.add.reduceat(tf64, run_starts)
    first_doc = doc[run_starts].astype(np.int64)

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
    return pa.table(
        {
            "gkey": pa.array(gk[run_starts], type=pa.int64()),
            "term": term_strings,
            "df": pa.array(df32),
            "cf": pa.array(cf, type=pa.int64()),
            "first_doc": pa.array(first_doc, type=pa.int64()),
            "blob": _bin(frag_d_start, int(frag_d_end[-1]), encoded_d),
            "tf_blob": _bin(frag_t_start, int(frag_t_end[-1]), encoded_t),
            "pos_blob": _bin(frag_p_start, int(frag_p_end[-1]), pos_data),
        },
        schema=_DOCTERMS_SCHEMA,
    )


# merged lists' positions decoded and re-packed at a time: a slice holds
# the whole lists whose first position falls in one POS_SLICE window of
# the partition's positions
POS_SLICE = 1 << 20


def _pack_positions(pos_data, byte_lo: np.ndarray, byte_hi: np.ndarray,
                    list_cf: np.ndarray) -> tuple[memoryview, np.ndarray]:
    """The merged lists' position streams, bit-packed (format v9): list
    i's VByte gaps sit at ``pos_data[byte_lo[i]:byte_hi[i]]`` (its
    fragments' bytes, contiguous and in list order) and number
    ``list_cf[i]``.  Returns the packed bytes of every list back to back
    and each list's byte length.

    Decodes and packs slice by slice, so the per-position arrays span at
    most POS_SLICE positions plus one list, whatever the partition's
    size."""
    from . import bitpack, vbyte

    window = (np.cumsum(list_cf) - list_cf) // POS_SLICE
    cuts = np.flatnonzero(np.diff(window)) + 1
    packed, lens = [], []
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), list_cf.size]):
        gaps = vbyte.decode(pos_data[int(byte_lo[a]):int(byte_hi[b - 1])],
                            count=int(list_cf[a:b].sum()))
        buf, nbytes = bitpack.pack_lists(gaps, list_cf[a:b])
        packed.append(buf)
        lens.append(nbytes)
    return memoryview(b"".join(packed)), np.concatenate(lens)


def _finalize_segment(
    tables: list,
    cfg: IndexBuildConfig,
    avgdl: float,
    doc_length: np.ndarray,
    out_path: str,
    prof: dict,
):
    """Merge one reducer's pre-encoded fragments and write one segment
    idempotently: its ``.bin`` postings file, then its catalog parquet
    (each tmp + atomic rename; the reader refuses a ``.bin`` whose size
    disagrees with its parquet's rows).

    Fragments of the same (gkey, term) are doc-range disjoint (one per
    docterms file, and each file is one dense doc-id run), so the merge
    is ONE vectorized pass over the whole partition, the reference's
    k-way heap merge (spimi.py:56-276):

    - sort fragment rows by (gkey, term rank, first_doc);
    - one VByte decode of the partition's doc streams and one of its tf
      exceptions give each posting's doc id and tf; its length from
      ``doc_length`` (the build's docweights array, indexed by
      doc_id - doc_id_base) and ``avgdl`` give its quantized wdt;
    - each merged list's doc stream is re-encoded from those postings,
      in place over the decoded values: its first doc absolute, then
      gaps, each ``gap<<1 | (tf==1)``.  Every gap must be positive, so
      fragments of one term whose doc ranges overlap are refused;
    - the tf-exception stream is the fragments' bytes concatenated as
      they are;
    - each merged list's position gaps (its fragments' VByte bytes, one
      ``vbyte.decode``) are bit-packed with one width per list
      (``_pack_positions``, format v9).  It works in slices of whole
      merged lists, at most ``POS_SLICE`` (2**20) positions plus one
      list per slice, so the per-position arrays it adds (~45 B per
      position of the slice: +29 MB peak RSS for a 689,005-position
      partition) depend on the slice, not on the partition;
    - skip blocks are regular: one per ``skip_block`` postings from each
      merged list's first (its last block may be shorter).  Its last doc
      and ``skip_max_wdt`` come from the decoded postings, so blocks do
      not depend on how the tokenize stage cut the list into fragments;
      ``max_wdt`` is the list's maximum.  Their byte offsets are not
      stored: the reader derives them from the streams (format v8);
    - each merged row's doc, tf and pos bytes go back to back into the
      ``.bin``, and the parquet keeps their three lengths (format v6).

    VByte is canonical, so a re-encoded doc stream is byte-identical to
    the fragments' streams with each seam's absolute doc id turned into
    a gap.
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
            "binary-offset range; lower REDUCE_TOKENS or set "
            "IndexBuildConfig.num_reducers higher so partitions stay "
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

    def col(name: str) -> pa.Array:
        return Ts.column(name).chunk(0)

    # the three streams are pure byte ranges: the take() above compacted
    # fragment payloads contiguous in sorted order
    def _offsets(arr: pa.Array) -> np.ndarray:
        return np.frombuffer(
            arr.buffers()[1], dtype=np.int32, count=n + 1,
            offset=4 * arr.offset,
        ).astype(np.int64)

    def _data(arr: pa.Array) -> memoryview:
        buf = arr.buffers()[2]
        return memoryview(buf if buf is not None else b"")

    df64 = col("df").to_numpy().astype(np.int64)
    blob_off, tf_off_all, pos_off_all = (
        _offsets(col(c)) for c in ("blob", "tf_blob", "pos_blob"))
    blob_data, tf_data, pos_data = (
        _data(col(c)) for c in ("blob", "tf_blob", "pos_blob"))

    # merged-term boundaries over the sorted fragment rows
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (gk_s[1:] != gk_s[:-1]) | (ranks_s[1:] != ranks_s[:-1])
    t_starts = np.flatnonzero(new)
    t_ends = np.append(t_starts[1:], n)
    n_terms = t_starts.size

    # each posting's doc id, tf and quantized wdt, in merged-list order:
    # a fragment's doc stream holds df values ``gap<<1 | (tf==1)``, its
    # first gap absolute
    vals = vbyte.decode(blob_data[blob_off[0]:blob_off[-1]],
                        count=int(df64.sum())).astype(np.int64)
    post_start = np.cumsum(df64) - df64
    docs = np.cumsum(vals >> 1)
    docs -= np.repeat(docs[post_start] - (vals[post_start] >> 1), df64)
    tf_one = (vals & 1) == 1
    tfs = np.ones(vals.size, dtype=np.int64)
    tfs[~tf_one] = vbyte.decode(tf_data[tf_off_all[0]:tf_off_all[-1]],
                                count=int(vals.size - tf_one.sum()))
    wq = wdt_quantized(tfs, doc_length[docs - cfg.doc_id_base], avgdl)
    del tfs

    # re-encode each merged list's doc stream into ``vals``: first doc
    # absolute, then gaps, each ``gap<<1 | (tf==1)``
    list_start = post_start[t_starts]
    np.subtract(docs[1:], docs[:-1], out=vals[1:])
    vals[list_start] = 1
    if vals.min() <= 0:
        # overlapping fragment doc ranges would VByte-encode a non-
        # positive gap and corrupt the merged list — two docterms files
        # hold the same doc (a duplicated doc id, or a file left from
        # another build); fail loudly, never corrupt
        raise ValueError(
            "fragments of one term cover overlapping doc ranges: two "
            "docterms files hold the same doc id (rebuild the docterms "
            "stage)"
        )
    vals[list_start] = docs[list_start]
    vals <<= 1
    vals |= tf_one
    blen = vbyte.encoded_lengths(vals)
    doc_mv = memoryview(vbyte.encode(vals, blen))
    doc_len = np.add.reduceat(blen, list_start, dtype=np.int64)

    # regular skip blocks, every skip_n postings from each list's first
    list_df = np.add.reduceat(df64, t_starts)
    nblocks = (list_df + skip_n - 1) // skip_n
    first_block = np.cumsum(nblocks) - nblocks
    block_list = np.repeat(np.arange(n_terms), nblocks)
    k_in_list = np.arange(int(nblocks.sum())) - first_block[block_list]
    b_start = list_start[block_list] + skip_n * k_in_list
    b_end = np.minimum(b_start + skip_n, (list_start + list_df)[block_list])
    slist_off = pa.array(
        np.concatenate([[0], np.cumsum(nblocks)]).astype(np.int32))

    # the .bin: per merged row its doc, tf and pos bytes, back to back
    tf_len = tf_off_all[t_ends] - tf_off_all[t_starts]
    list_cf = np.add.reduceat(col("cf").to_numpy(), t_starts)
    pos_mv, pos_len = _pack_positions(
        pos_data, pos_off_all[t_starts], pos_off_all[t_ends], list_cf)
    doc_end = np.cumsum(doc_len)
    pos_end = np.cumsum(pos_len)
    pieces = [None] * (3 * n_terms)
    pieces[0::3] = [doc_mv[a:b] for a, b in zip(
        (doc_end - doc_len).tolist(), doc_end.tolist())]
    pieces[1::3] = [tf_data[a:b] for a, b in zip(
        tf_off_all[t_starts].tolist(), tf_off_all[t_ends].tolist())]
    pieces[2::3] = [pos_mv[a:b] for a, b in zip(
        (pos_end - pos_len).tolist(), pos_end.tolist())]

    def skip_list(values, dtype=None) -> pa.ListArray:
        return pa.ListArray.from_arrays(slist_off, pa.array(values, dtype))

    seg = pa.table(
        {
            "term": col("term").take(pa.array(t_starts)),
            "shard": pa.array((gk_s[t_starts] // B).astype(np.int32)),
            "bucket": pa.array((gk_s[t_starts] % B).astype(np.int32)),
            "df": pa.array(list_df, type=pa.int64()),
            "cf": pa.array(list_cf, type=pa.int64()),
            "max_wdt": pa.array(np.maximum.reduceat(wq, list_start)),
            "doc_len": pa.array(doc_len.astype(np.int32)),
            "tf_len": pa.array(tf_len.astype(np.int32)),
            "pos_len": pa.array(pos_len.astype(np.int32)),
            "skip_last_doc": skip_list(docs[b_end - 1], pa.int64()),
            "skip_max_wdt": skip_list(np.maximum.reduceat(wq, b_start)),
        },
        schema=_SEGMENT_SCHEMA,
    )
    prof["merge"] = time.perf_counter() - _pt
    _pt = time.perf_counter()
    bin_path = layout.segment_bin_path(out_path)
    with open(bin_path + ".tmp", "wb") as f:
        f.writelines(pieces)
    os.replace(bin_path + ".tmp", bin_path)
    # no statistics: nothing prunes a catalog's row groups
    write_index_parquet(seg, out_path, SEGMENT_ROW_GROUP_SIZE)
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
    doc_length_path: str,
    out_path: str,
    parts: list[tuple[str, list[int]]],
    bytes_in: int,
):
    """One reducer: reads the docterms row groups of its ``parts``
    (``bytes_in`` compressed bytes) and merges them into one segment; the
    wdt bounds read doc lengths from the memory-mapped ``.npy`` at
    ``doc_length_path``."""
    _pin_arrow_threads()
    t_task = time.perf_counter()
    prof = {"merge": 0.0, "write": 0.0, "bytes_in": bytes_in}
    doc_length = np.load(doc_length_path, mmap_mode="r")
    tables = []
    for path, row_groups in parts:
        with pq.ParquetFile(path) as pf:
            tables.append(pf.read_row_groups(row_groups))
    prof["read"] = time.perf_counter() - t_task
    metrics = _finalize_segment(tables, cfg, avgdl, doc_length, out_path,
                                prof)
    prof["wall"] = time.perf_counter() - t_task  # metrics["prof"] is prof
    return metrics


def _phase_split(profs: list[dict]) -> dict:
    """{phase: {total, max, mean}} over per-task profiles: where a
    stage's tasks spent their time and bytes, and their skew (max vs mean
    task)."""
    out = {}
    for k in sorted({k for p in profs for k in p}):
        v = [p.get(k, 0) for p in profs]
        out[k] = {"total": round(sum(v), 6), "max": round(max(v), 6),
                  "mean": round(sum(v) / len(v), 6)}
    return out


# corpus tokens per reducer when ``num_reducers`` is unset: a reducer
# peaks about 47 B per token above its input (808 MB for reducer 0 of 8
# over a 400,000-doc perfbench corpus, 17.2 M tokens), so ~0.75 GB
REDUCE_TOKENS = 16_000_000


def plan_exchange(files: list[str], total_tokens: int,
                  num_reducers: int | None = None
                  ) -> list[tuple[list[tuple[str, list[int]]], int]]:
    """The exchange plan, made once on the driver from the docterms
    footers: P = ``num_reducers`` when set, else
    ``max(8, ceil(total_tokens / REDUCE_TOKENS))``, a function of the
    corpus, never of the cluster.  Each row group names one gkey in its
    statistics (docterms v10) and goes to reducer ``gkey % P``; one that
    does not raises.  Returns P ``(parts, bytes_in)``: reducer r's
    ``[(path, row groups)]`` and their compressed bytes."""
    P = num_reducers or max(8, -(-total_tokens // REDUCE_TOKENS))
    parts: list[list] = [[] for _ in range(P)]
    nbytes = [0] * P
    for path in files:
        md = pq.read_metadata(path)
        gcol = md.schema.to_arrow_schema().get_field_index("gkey")
        mine: dict[int, list[int]] = {}
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            st = rg.column(gcol).statistics
            if st is None or not st.has_min_max or st.min != st.max:
                raise ValueError(
                    f"{os.path.basename(path)}: row group {i} does not "
                    "hold exactly one gkey (a docterms file of another "
                    "format); rebuild the docterms stage")
            r = st.min % P
            mine.setdefault(r, []).append(i)
            nbytes[r] += sum(rg.column(c).total_compressed_size
                             for c in range(rg.num_columns))
        for r, row_groups in mine.items():
            parts[r].append((path, row_groups))
    return list(zip(parts, nbytes))


def build_segments_exchange(
    docterms_dir: str,
    segments_dir: str,
    cfg: IndexBuildConfig,
    avgdl: float,
    doc_length_path: str,
    total_tokens: int = 0,
) -> tuple[list[dict], dict]:
    """Run the postings exchange over the docterms files.  The driver
    plans it alone (:func:`plan_exchange`: P from ``cfg.num_reducers`` or
    the corpus's ``total_tokens``, each footer read once, each row group
    routed once, to reducer ``gkey % P``); then every reducer with row
    groups runs as one task that reads them, merges and writes its
    segment, reading each posting's doc length from the ``.npy`` at
    ``doc_length_path``.  The keys ``shard * num_buckets + bucket`` are
    a dense range, so reducer key counts differ by at most one.

    Raw Ray tasks (not Dataset ops) by measurement: over the docterms of
    perfbench's seed-5 corpus (4,000 docs, P = 8) on a 4-CPU host, stock
    Ray Data (``read_parquet`` -> ``map_batches`` adding ``gkey % P`` ->
    ``repartition(P, keys=[...])`` under ``ShuffleStrategy.HASH_SHUFFLE``
    -> ``map_batches`` running ``_finalize_segment`` per reducer value)
    took 3.2-5.2 s, median 4.1 s, and the map/reduce exchange of docterms
    v9 (maps routing fragments to reducers as Arrow IPC) 0.15-3.6 s,
    median 1.1 s: 6 alternating pairs in one Ray session, the raw-task
    exchange faster in every pair, the segment bytes identical.  Docterms
    v10 drops the maps, since the files' row groups already route.

    Returns ``(per_reducer_metrics, plan)`` where ``plan`` records the
    reducer count, the docterms bytes and ``phases``, the reducers'
    per-task profiles (``bytes_in`` among them) summed and
    skew-summarised by :func:`_phase_split` over the reducers launched —
    persisted in the segments stage marker and the manifest."""
    files = sorted(
        os.path.join(docterms_dir, f)
        for f in os.listdir(docterms_dir)
        if f.endswith(".parquet")
    )
    reducers = plan_exchange(files, total_tokens, cfg.num_reducers)
    os.makedirs(segments_dir, exist_ok=True)
    reduce_refs = [
        _reduce_runs.remote(
            cfg, avgdl, doc_length_path,
            os.path.join(segments_dir, f"segment_{r:05d}.parquet"),
            parts, bytes_in,
        )
        for r, (parts, bytes_in) in enumerate(reducers) if parts
    ]
    metrics = ray.get(reduce_refs)
    plan = {"num_reducers": len(reducers),
            "docterms_bytes": sum(os.path.getsize(f) for f in files),
            "phases": {"reduce": _phase_split([m.pop("prof")
                                               for m in metrics])}}
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


def _not_dense(path: str, lo: int, hi: int) -> ValueError:
    return ValueError(
        f"docstats invariant broken: {os.path.basename(path)} holds "
        f"duplicate doc ids or a gap in [{lo}, {hi}]; rebuild the "
        "docterms stage"
    )


def write_doc_weights(docstats_dir: str, index_dir: str,
                      base: int = 0) -> tuple[int, int]:
    """The one pass over an index's docstats: checks that they tile
    base..base+N-1, writes the two dense docweights arrays in doc-id
    order and returns ``(num_docs, total_tokens)``.

    The docstats invariant: each file must hold exactly the doc ids
    lo..hi in order, file ranges must be pairwise disjoint, and their
    union must be dense from ``base``.  Files are named by their dense
    run, so a retried tokenize task rewrites its own files and leaves no
    stale one; an overlap means a duplicated doc id or a file from
    another build, and raises.  Each file's span (rows, doc_id min/max)
    comes from its parquet footer; the data is read once, after the
    checks on the spans.

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
    for a, b in zip(spans, spans[1:]):
        if b[0] <= a[1]:
            raise ValueError(
                f"docstats invariant broken: {os.path.basename(a[3])} and "
                f"{os.path.basename(b[3])} cover overlapping doc ranges "
                "(a duplicated doc id or a file from another build); "
                "rebuild the docterms stage")
    rows = sum(s[2] for s in spans)
    if spans and (spans[0][0] != base or spans[-1][1] != base + rows - 1):
        raise ValueError(
            f"docstats invariant broken: {rows} rows but doc ids span "
            f"[{spans[0][0]}, {spans[-1][1]}] (expected dense "
            f"{base}..{base + rows - 1})"
        )

    dl_p, ld_p = layout.docweights_paths(index_dir)
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


def _preserve_order(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` on its own copy of its DataContext, with ``preserve_order``
    on.  A derived Dataset shares its parent's context object, so setting
    the flag on ``ds.context`` would also set it on the caller's corpus;
    the copy scopes it to this build's execution."""
    out = ray.data.Dataset.copy(ds, _deep_copy=True)
    out.context.execution_options.preserve_order = True
    return out


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
         "fmt": layout.SEGMENT_FORMAT, "dfmt": DOCTERMS_FORMAT}, sort_keys=True
    )
    t0 = time.perf_counter()
    stage_seconds: dict[str, float] = {}

    docterms_dir = os.path.join(index_dir, "docterms")
    docstats_dir = os.path.join(index_dir, layout.DOCSTATS_DIR)
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
        os.makedirs(docterms_dir)
        os.makedirs(docstats_dir)
        # plain tasks: the term cache resolves per worker process via
        # _worker_cache (state without actor pools)
        batches = _preserve_order(corpus).map_batches(
            _tokenize_stage,
            fn_args=(cfg, docterms_dir, docstats_dir),
            batch_format="pyarrow",
            batch_size=DOCTERMS_BLOCK_ROWS,
        ).take_all()
        tokenize_plan = {"batches": len(batches),
                         "phases": _phase_split(batches)}
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
            tokenize_plan=tokenize_plan,
            files=_dir_lineage(docterms_dir),
            docstats_files=_dir_lineage(docstats_dir),
        )

    # per-doc stats (incl. zero-term docs) live in docstats/ and, dense,
    # in docweights/; docterms/ holds the encoded fragments, one row
    # group per gkey, that the reducers read

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
            layout.docweights_paths(index_dir)[0], total_tokens=tot,
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
    with open(os.path.join(index_dir, "_STAGE_docterms.json")) as f:
        dt_marker = json.load(f)
    with open(os.path.join(index_dir, "_STAGE_segments.json")) as f:
        seg_marker = json.load(f)
    seg_files = seg_marker.get("segment_metrics", [])
    num_docs = seg_marker["num_docs"]
    total_tokens = seg_marker["total_tokens"]

    manifest = {
        "version": 1,
        "segment_format": layout.SEGMENT_FORMAT,
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
        "tokenize_plan": dt_marker.get("tokenize_plan"),
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
    tmp = os.path.join(index_dir, layout.MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, layout.MANIFEST_NAME))
    return manifest
