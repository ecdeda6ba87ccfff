"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` exposes one entry per implemented operator family
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible entry.  Index-based queries build the
index once per (sf_dir, analyzer) under /tmp and reuse it via the build's
resume fingerprints.  SQL-checked index queries use the ``whitespace``
analyzer (ANALYZERS['whitespace'] == lower + any-whitespace split), which
DuckDB can replicate exactly; the reference analyzer (Porter2 etc.) is
covered by the pytest conformance suite instead.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# whitespace tokenization as SQL (empty tokens filtered, 1-based positions
# recomputed over non-empty tokens — matches Python str.split())
_TOK = r"""
raw AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') arr FROM documents
),
tokpos AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS p
  FROM raw
),
tok AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY p) AS pos
  FROM tokpos WHERE term <> ''
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2)
"""

_BM25_QUERY_TERMS = ["hash", "join", "merge", "scan"]
_PHRASE = ("hash", "join")
_AND_TERMS = ("merge", "sort")
_SPELL_WORDS = ["documant", "hach", "joim", "scann"]


def _index_dir_for(sf_dir: str, analyzer: str) -> str:
    key = hashlib.sha1(f"{os.path.abspath(sf_dir)}:{analyzer}".encode()).hexdigest()[:16]
    return os.path.join("/tmp", "searchengine_ray_idx", f"{analyzer}_{key}")


def _build_ws_index(sf_dir: str) -> str:
    """Build (or resume) the whitespace-analyzer index over documents."""
    from searchengine_ray.build import IndexBuildConfig, build_index
    from searchengine_ray.corpus import corpus_from_documents

    index_dir = _index_dir_for(sf_dir, "whitespace")
    cfg = IndexBuildConfig(analyzer="whitespace", num_buckets=16)
    corpus = corpus_from_documents(sf_dir)
    build_index(corpus, index_dir, cfg,
                input_description=f"{sf_dir}/documents.parquet#whitespace")
    return index_dir


def _engine_for(sf_dir: str):
    from searchengine_ray.query.engine import QueryEngine

    return QueryEngine(_build_ws_index(sf_dir))


def _documents(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def _embeddings(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _events(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/events.parquet")


# --------------------------------------------------------------- queries ----

def q_index_term_stats(sf_dir: str) -> pa.Table:
    """Full-index vocabulary statistics: df + cf per term (A6, S9)."""
    eng = _engine_for(sf_dir)
    terms, df, cf = eng.index.term_stats()
    return pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(df),
            "cf": pa.array(cf),
        }
    )


def q_merged_index_term_stats(sf_dir: str) -> pa.Table:
    """Incremental indexing end-to-end (merge.merge_indexes, r5): the
    documents table splits into a base generation (doc_id < N/2) and a
    delta built with ``doc_id_base = N/2``; the merged generational
    index must reproduce the FULL index's per-term (df, cf) exactly —
    the oracle is the same SQL as ``index_term_stats``, so a hash-green
    row pins the whole incremental path (delta id assignment, per-
    generation builds, WAND-bound rescaling merge, multi-generation
    fragment ordering in the reader) to the single-build semantics."""
    import ray.data  # noqa: F401

    from searchengine_ray.build import IndexBuildConfig, build_index
    from searchengine_ray.corpus import corpus_from_documents
    from searchengine_ray.merge import merge_indexes
    from searchengine_ray.query.reader import DiskIndexReader

    corpus = corpus_from_documents(sf_dir)
    split = corpus.count() // 2

    def _cfg(base: int = 0) -> IndexBuildConfig:
        return IndexBuildConfig(analyzer="whitespace", num_buckets=16,
                                doc_id_base=base)

    a_dir = _index_dir_for(sf_dir, "ws_gen0")
    b_dir = _index_dir_for(sf_dir, "ws_gen1")
    out_dir = _index_dir_for(sf_dir, "ws_merged")
    build_index(corpus.filter(expr=f"doc_id < {split}"), a_dir, _cfg(),
                input_description=f"{sf_dir}/documents.parquet#ws_gen0")
    build_index(corpus.filter(expr=f"doc_id >= {split}"), b_dir,
                _cfg(base=split),
                input_description=f"{sf_dir}/documents.parquet#ws_gen1")
    merge_indexes([a_dir, b_dir], out_dir)
    terms, df, cf = DiskIndexReader(out_dir).term_stats()
    return pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(df),
            "cf": pa.array(cf),
        }
    )


def q_legacy_term_stats(sf_dir: str) -> pa.Table:
    """Legacy v0 export verified end-to-end against SQL (S10, r5).

    Exports the whitespace index to the legacy fixed-4-byte format
    (`legacy.export_legacy_index`), then reads (term, df, cf,
    word_sum) back FROM THE LEGACY BYTES with pure arithmetic — no
    posting walk:

    - ``df`` is the block's first word;
    - ``cf`` falls out of the block length: words = 1 + 2*df + cf;
    - ``word_sum`` (sum of every 4-byte word in the block) telescopes:
      sum(doc_gaps) = max doc_id, sum(n_pos) = cf, and each posting's
      position gaps sum to its max position — so
      word_sum = df + max(doc_id) + cf + sum over docs of max(pos).

    The oracle recomputes all four from the source table, so a
    hash-green row pins the exported bytes (offsets, block sizes, df
    words, and the gap contents via the telescoped sums) to the SQL
    tokenization ground truth.
    """
    from searchengine_ray.legacy import export_legacy_index

    index_dir = _build_ws_index(sf_dir)
    out_dir = index_dir + "_legacy"
    if not os.path.exists(os.path.join(out_dir, "legacy_manifest.json")):
        export_legacy_index(index_dir, out_dir)
    tp = pq.read_table(os.path.join(out_dir, "term_positions.parquet"))
    terms = tp.column("term").to_pylist()
    offs = tp.column("position").to_numpy()
    with open(os.path.join(out_dir, "postings.bin"), "rb") as f:
        words = np.frombuffer(f.read(), dtype="<u4").astype(np.int64)
    starts = offs // 4
    block_words = np.append(starts[1:], words.size) - starts
    df = words[starts]
    cf = block_words - 1 - 2 * df
    word_sum = np.add.reduceat(words, starts)
    return pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(df, type=pa.int64()),
            "cf": pa.array(cf, type=pa.int64()),
            "word_sum": pa.array(word_sum, type=pa.int64()),
        }
    )


def q_doc_lengths(sf_dir: str) -> pa.Table:
    """Doc stats table (A3/S7/S8): doc_id -> token count."""
    eng = _engine_for(sf_dir)
    n = eng.index.num_docs
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "doc_length": pa.array(eng.index.doc_length, type=pa.int64()),
        }
    )


def q_content_integrity(sf_dir: str) -> pa.Table:
    """North-rule per-row invariant, driver-checked: the index's stored
    (doc_id, sha256(content)) rows folded into an order-independent
    multiset checksum (count, sum mod 2^60, xor over 60-bit words, each
    word mixed with its doc_id).  The oracle recomputes the identical
    checksum from the SOURCE documents table with DuckDB's sha256() —
    hash-green means every stored digest matches its source row AND is
    bound to the right doc_id.  No join/shuffle on either side."""
    from searchengine_ray.verify import index_checksum60

    return index_checksum60(_build_ws_index(sf_dir))


def q_bm25_topk(sf_dir: str) -> pa.Table:
    """BM25 (k1=1.2, b=0.75) top-20 over the whitespace index (§2.6)."""
    eng = _engine_for(sf_dir)
    ranked = eng.ranked_query(" ".join(_BM25_QUERY_TERMS), use_okapi=True,
                              top_k=20, use_wand=True)
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in ranked], type=pa.int64()),
            "score": pa.array([round(s, 6) for _, s in ranked],
                              type=pa.float64()),
        }
    )


def q_boolean_and(sf_dir: str) -> pa.Table:
    """Sorted-merge AND intersection (J1) on raw whitespace terms."""
    from searchengine_ray.query.ast import AndQuery, TermLiteral

    eng = _engine_for(sf_dir)
    node = AndQuery([TermLiteral(t) for t in _AND_TERMS])
    docs = node.get_postings(eng.index).doc_ids
    return pa.table({"doc_id": pa.array(docs, type=pa.int64())})


def q_boolean_and_not(sf_dir: str) -> pa.Table:
    """AND-NOT anti-join (J2): docs with 'merge' but not 'sort'."""
    from searchengine_ray.query.ast import AndQuery, NotQuery, TermLiteral

    eng = _engine_for(sf_dir)
    node = AndQuery([TermLiteral("merge"), NotQuery(TermLiteral("sort"))])
    docs = node.get_postings(eng.index).doc_ids
    return pa.table({"doc_id": pa.array(docs, type=pa.int64())})


def q_boolean_or(sf_dir: str) -> pa.Table:
    """OR union with first-wins dedup (J3/D1)."""
    from searchengine_ray.query.ast import OrQuery, TermLiteral

    eng = _engine_for(sf_dir)
    node = OrQuery([TermLiteral(t) for t in _AND_TERMS])
    docs = node.get_postings(eng.index).doc_ids
    return pa.table({"doc_id": pa.array(docs, type=pa.int64())})


def q_phrase_search(sf_dir: str) -> pa.Table:
    """Positional phrase intersect (J4): adjacent 'hash join'."""
    from searchengine_ray.query.ast import PhraseLiteral, TermLiteral

    eng = _engine_for(sf_dir)
    node = PhraseLiteral([TermLiteral(t) for t in _PHRASE])
    docs = node.get_postings(eng.index).doc_ids
    return pa.table({"doc_id": pa.array(docs, type=pa.int64())})


def q_spelling_suggest(sf_dir: str) -> pa.Table:
    """Spelling correction (ST6/O6): top-5 vocabulary candidates per
    misspelled word, ranked by Levenshtein distance then candidate
    (deterministic tie-break; the reference iterates a set, so its tie
    order is unspecified — /root/reference/engine/text/spellingcorrection.py:20-31)."""
    from searchengine_ray.query.reader import DiskIndexReader
    from searchengine_ray.query.spelling import SpellingCorrection

    sc = SpellingCorrection(DiskIndexReader(_build_ws_index(sf_dir)))
    words, ranks, sugg, dist = [], [], [], []
    for w in _SPELL_WORDS:
        d = sc.distances(w)
        order = np.lexsort((np.arange(d.size), d))[:5]
        for r, i in enumerate(order, 1):
            words.append(w)
            ranks.append(r)
            sugg.append(sc.vocabulary[int(i)])
            dist.append(int(d[i]))
    return pa.table(
        {
            "word": pa.array(words, type=pa.string()),
            "rank": pa.array(ranks, type=pa.int64()),
            "suggestion": pa.array(sugg, type=pa.string()),
            "distance": pa.array(dist, type=pa.int64()),
        }
    )


def q_exact_dedup(sf_dir: str):
    """Exact dedup: min doc_id per sha256(text) group."""
    from searchengine_ray.ops.dedup import exact_dedup

    out = exact_dedup(_documents(sf_dir))
    import ray.data  # noqa: F401

    tbl = pa.concat_tables(
        [pa.table({"doc_id": b.column("doc_id")})
         for b in out.map_batches(lambda b: b.select(["doc_id"]),
                                  batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow")]
    )
    return tbl.sort_by("doc_id")


def q_token_counts(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.textstats import token_counts

    out = token_counts(_documents(sf_dir))
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_doc_quality(sf_dir: str) -> pa.Table:
    """SQL-checkable quality subset: chars, tokens, mean token length."""
    from searchengine_ray.ops.textstats import quality_scores

    out = quality_scores(_documents(sf_dir))

    def pick(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": b.column("n_chars"),
                "n_tokens": b.column("n_tokens"),
                "mean_token_len": pa.array(
                    np.round(b.column("mean_token_len").to_numpy(), 6)
                ),
            }
        )

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_quality_full(sf_dir: str) -> pa.Table:
    """Full quality signals incl. composite score; floats rounded to 6dp
    to match the DuckDB oracle's rounding."""
    from searchengine_ray.ops.textstats import quality_scores

    tbl = pa.concat_tables(
        list(quality_scores(_documents(sf_dir))
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")
    cols = {}
    for name in tbl.column_names:
        col = tbl.column(name)
        if pa.types.is_floating(col.type):
            col = pa.array(np.round(col.to_numpy(zero_copy_only=False), 6))
        cols[name] = col
    return pa.table(cols)


def q_detect_language(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.textstats import detect_language

    tbl = pa.concat_tables(
        list(detect_language(_documents(sf_dir))
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")
    return tbl.set_column(
        tbl.schema.get_field_index("lang_confidence"),
        "lang_confidence",
        pa.array(np.round(tbl.column("lang_confidence")
                          .to_numpy(zero_copy_only=False), 6)),
    )


def q_fingerprints(sf_dir: str) -> pa.Table:
    """(doc_id, content_md5): md5 is SQL-checkable; the rolling-hash
    fingerprint is in q_fingerprints_rolling (rows-only)."""
    from searchengine_ray.ops.textstats import fingerprints

    out = fingerprints(_documents(sf_dir))

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "content_md5"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_fingerprints_rolling(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.textstats import fingerprints

    return pa.concat_tables(
        list(fingerprints(_documents(sf_dir))
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_minhash_dedup(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.dedup import minhash_lsh_dedup

    out = minhash_lsh_dedup(_documents(sf_dir), threshold=0.8)

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["doc_id"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_ngram_jaccard_dedup(sf_dir: str) -> pa.Table:
    """MinHash-LSH candidates + EXACT distinct-gram Jaccard verification
    (the no-estimator-error dedup variant)."""
    from searchengine_ray.ops.dedup import ngram_jaccard_dedup

    out = ngram_jaccard_dedup(_documents(sf_dir), threshold=0.8)

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["doc_id"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_simhash_dedup(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.dedup import simhash_dedup

    out = simhash_dedup(_documents(sf_dir), max_hamming=2)

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["doc_id"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_embedding_dedup(sf_dir: str) -> pa.Table:
    from searchengine_ray.ops.dedup import embedding_dedup

    out = embedding_dedup(_embeddings(sf_dir), threshold=0.97)

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["vec_id"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("vec_id")


def _query_vectors(sf_dir: str) -> tuple[np.ndarray, list[int]]:
    """Fetch the 3 query vectors with the vec_id predicate pushed into
    the parquet scan (row-group pruning; VERDICT r4 #4) — the driver
    never reads the whole embeddings table."""
    from searchengine_ray.ops.similarity import read_query_vectors

    qids = [0, 1, 2]
    return read_query_vectors(f"{sf_dir}/embeddings.parquet", qids)[0], qids


def q_knn_bruteforce(sf_dir: str) -> pa.Table:
    """Exact cosine top-10 for query vectors vec_id 0,1,2."""
    from searchengine_ray.ops.similarity import knn_bruteforce

    vecs, qids = _query_vectors(sf_dir)
    tbl = knn_bruteforce(_embeddings(sf_dir), vecs, qids, k=10)
    return pa.table(
        {
            "query_id": tbl.column("query_id"),
            "vec_id": tbl.column("vec_id"),
            "rank": tbl.column("rank"),
            "score": pa.array(np.round(tbl.column("score").to_numpy(), 5)),
        }
    )


def q_knn_ivf(sf_dir: str) -> pa.Table:
    """IVF approximate top-10 (rows-only; recall tested in pytest)."""
    from searchengine_ray.ops.similarity import knn_ivf

    vecs, qids = _query_vectors(sf_dir)
    return knn_ivf(_embeddings(sf_dir), vecs, qids, k=10)


def q_knn_ivf_full_probe(sf_dir: str) -> pa.Table:
    """IVF with nprobe == n_clusters: probing every cell of the
    materialized index must reproduce exact brute-force cosine top-k —
    an end-to-end SQL-checkable oracle for the cell-partitioned build +
    read path (coverage completeness, partition reassembly, scoring)."""
    from searchengine_ray.ops.similarity import knn_ivf

    vecs, qids = _query_vectors(sf_dir)
    tbl = knn_ivf(_embeddings(sf_dir), vecs, qids, k=10, n_clusters=16,
                  nprobe=16)
    return pa.table(
        {
            "query_id": tbl.column("query_id"),
            "vec_id": tbl.column("vec_id"),
            "rank": tbl.column("rank"),
            "score": pa.array(np.round(tbl.column("score").to_numpy(), 5)),
        }
    )


def q_events_windowed(sf_dir: str) -> pa.Table:
    """Hourly windowed aggregate over events with a partial-aggregate
    (combiner) before the shuffle."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        bucket = pc.floor_temporal(batch.column("ts"), unit="hour")
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "bucket": bucket,
                "value": batch.column("value"),
            }
        )
        g = t.group_by(["event_type", "bucket"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return g.rename_columns(["event_type", "bucket", "n_events", "sum_value"])

    ds = _events(sf_dir).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby(["event_type", "bucket"]).sum(["n_events", "sum_value"])
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    tbl = tbl.rename_columns(["event_type", "bucket", "n_events", "sum_value"])
    return pa.table(
        {
            "event_type": tbl.column("event_type"),
            "bucket": tbl.column("bucket"),
            "n_events": tbl.column("n_events"),
            "sum_value": pa.array(
                np.round(tbl.column("sum_value").to_numpy(zero_copy_only=False), 6)
            ),
        }
    ).sort_by([("event_type", "ascending"), ("bucket", "ascending")])


def q_sessionize(sf_dir: str) -> pa.Table:
    """Per-user session count (30-min inactivity gap) via
    groupby(user_id).map_groups."""

    def sessions(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = group.sort_by("ts")
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        if len(ts) == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "n_sessions": pa.array([], type=pa.int64())})
        gaps = np.diff(ts.astype("datetime64[us]").astype(np.int64))
        n = 1 + int((gaps > 30 * 60 * 1_000_000).sum())
        return pa.table(
            {
                "user_id": pa.array([g.column("user_id")[0].as_py()],
                                    type=pa.int64()),
                "n_sessions": pa.array([n], type=pa.int64()),
            }
        )

    out = _events(sf_dir).groupby("user_id").map_groups(
        sessions, batch_format="pyarrow"
    )
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow"))
    ).sort_by("user_id")


def q_pricing_summary(sf_dir: str) -> pa.Table:
    """Combiner-first grouped aggregate (TPC-H Q1 shape) over lineitem."""
    import ray.data

    from searchengine_ray.ops.relational import pricing_summary

    return pricing_summary(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet")
    )


def q_supplier_revenue(sf_dir: str) -> pa.Table:
    """Broadcast hash join (small side via ray.put) + top-N."""
    import pyarrow.parquet as pq
    import ray.data

    from searchengine_ray.ops.relational import supplier_revenue

    return supplier_revenue(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
        ),
        pq.read_table(f"{sf_dir}/supplier.parquet"),
        top_n=10,
    )


def q_media_pipeline(sf_dir: str) -> pa.Table:
    """Multimodal plumbing: synthesize media rows from documents, run the
    image decode/resize actor stage (fake backend = tiled sha256 digest
    pixels), return per-media mean intensity — which equals the mean of
    the 32 digest bytes exactly, so this path is fully SQL-oracled."""
    from searchengine_ray.ops.multimodal import (
        ImageDecodeResize,
        media_stage,
        synthesize_media,
    )

    media = synthesize_media(_documents(sf_dir))
    out = media_stage(media, ImageDecodeResize, "image", batch_size=32)

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["media_id", "mean_intensity"])

    return pa.concat_tables(
        list(out.map_batches(pick, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("media_id")


def q_curated_corpus(sf_dir: str) -> pa.Table:
    """The composed training-data curation pipeline: quality gate ->
    language gate -> exact dedup -> MinHash near-dup dedup; surviving
    doc_ids, fully SQL-oracled end to end."""
    from searchengine_ray.ops.curate import curate_corpus

    out = curate_corpus(_documents(sf_dir))
    return pa.concat_tables(
        list(out.map_batches(lambda b: b.select(["doc_id"]),
                             batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")


def q_media_frames(sf_dir: str) -> pa.Table:
    """Video frame-offset sampling through the actor-pool stage.  The
    fake backend is pure arithmetic over sha256-derived metadata, so this
    media path IS SQL-checkable end-to-end (synthesize -> kind dispatch
    -> per-video offsets), unlike the hash-seeded image/audio fakes."""
    from searchengine_ray.ops.multimodal import (
        VideoFrameSample,
        media_stage,
        synthesize_media,
    )

    media = synthesize_media(_documents(sf_dir))
    out = media_stage(media, VideoFrameSample, "video", batch_size=64)

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("media_id").to_numpy(zero_copy_only=False)
        col = b.column("frame_offsets_ms")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = np.asarray([len(x) for x in col], dtype=np.int64)
        flat = col.flatten().to_numpy(zero_copy_only=False)
        idx = np.concatenate([np.arange(n) for n in lens]) if len(lens) else \
            np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "media_id": pa.array(np.repeat(ids, lens), type=pa.int64()),
                "frame_idx": pa.array(idx.astype(np.int64)),
                "offset_ms": pa.array(flat.astype(np.int64)),
            }
        )

    return pa.concat_tables(
        list(out.map_batches(explode, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by([("media_id", "ascending"), ("frame_idx", "ascending")])


def q_media_audio(sf_dir: str) -> pa.Table:
    """Audio feature extraction through the actor-pool stage (fake
    backend = centered/scaled sha256 digest bytes), exploded to
    (media_id, feature_idx, feature) rows — fully SQL-oracled."""
    from searchengine_ray.ops.multimodal import (
        AudioFeatures,
        media_stage,
        synthesize_media,
    )

    media = synthesize_media(_documents(sf_dir))
    out = media_stage(media, AudioFeatures, "audio", batch_size=64)

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("media_id").to_numpy(zero_copy_only=False)
        col = b.column("features")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col[0]) if len(col) else 0
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "media_id": pa.array(np.repeat(ids, n), type=pa.int64()),
                "feature_idx": pa.array(np.tile(np.arange(n), len(ids)),
                                        type=pa.int64()),
                "feature": pa.array(flat, type=pa.float64()),
            }
        )

    return pa.concat_tables(
        list(out.map_batches(explode, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow"))
    ).sort_by([("media_id", "ascending"), ("feature_idx", "ascending")])


def entry() -> Any:
    """Flagship: reference-analyzer index over sf0.001 documents + one BM25
    query; returns the scored top-k as a pandas DataFrame."""
    import pandas as pd

    from searchengine_ray.build import IndexBuildConfig, build_index
    from searchengine_ray.corpus import corpus_from_documents
    from searchengine_ray.query.engine import QueryEngine

    sf_dir = "/root/testdata/sf0.001"
    index_dir = _index_dir_for(sf_dir, "reference")
    cfg = IndexBuildConfig(num_buckets=8)
    corpus = corpus_from_documents(sf_dir)
    build_index(corpus, index_dir, cfg,
                input_description=f"{sf_dir}/documents.parquet#reference")
    eng = QueryEngine(index_dir)
    ranked = eng.ranked_query("hash join merge scan", use_okapi=True, top_k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in ranked],
            "score": [s for _, s in ranked],
            "title": eng.titles([d for d, _ in ranked]),
        }
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "index_term_stats": q_index_term_stats,
        "merged_index_term_stats": q_merged_index_term_stats,
        "legacy_term_stats": q_legacy_term_stats,
        "doc_lengths": q_doc_lengths,
        "content_integrity": q_content_integrity,
        "bm25_topk": q_bm25_topk,
        "boolean_and": q_boolean_and,
        "boolean_and_not": q_boolean_and_not,
        "boolean_or": q_boolean_or,
        "phrase_search": q_phrase_search,
        "spelling_suggest": q_spelling_suggest,
        "exact_dedup": q_exact_dedup,
        "token_counts": q_token_counts,
        "doc_quality": q_doc_quality,
        "quality_full": q_quality_full,
        "detect_language": q_detect_language,
        "fingerprints": q_fingerprints,
        "fingerprints_rolling": q_fingerprints_rolling,
        "minhash_dedup": q_minhash_dedup,
        "ngram_jaccard_dedup": q_ngram_jaccard_dedup,
        "simhash_dedup": q_simhash_dedup,
        "embedding_dedup": q_embedding_dedup,
        "knn_bruteforce": q_knn_bruteforce,
        "knn_ivf": q_knn_ivf,
        "knn_ivf_full_probe": q_knn_ivf_full_probe,
        "events_windowed": q_events_windowed,
        "sessionize": q_sessionize,
        "pricing_summary": q_pricing_summary,
        "supplier_revenue": q_supplier_revenue,
        "media_pipeline": q_media_pipeline,
        "media_frames": q_media_frames,
        "media_audio": q_media_audio,
        "curated_corpus": q_curated_corpus,
    }


def oracle_sql() -> dict[str, str]:
    from searchengine_ray import oracles

    terms_list = ", ".join(f"'{t}'" for t in _BM25_QUERY_TERMS)
    and_a, and_b = _AND_TERMS
    ph_a, ph_b = _PHRASE
    return {
        # full SQL replays of the dedup / textstats pipelines (same md5
        # token hashes, folds, minhash family, LSH bands, thresholds and
        # recursive-CTE connected components) — see searchengine_ray/oracles.py
        "minhash_dedup": oracles.minhash_dedup_sql(threshold=0.8),
        "ngram_jaccard_dedup": oracles.minhash_dedup_sql(
            threshold=0.8, verify="exact"),
        "curated_corpus": oracles.curated_corpus_sql(),
        "simhash_dedup": oracles.simhash_dedup_sql(max_hamming=2),
        # driver test tables carry 64-dim embeddings at every sf
        "embedding_dedup": oracles.embedding_dedup_sql(64, threshold=0.97),
        "fingerprints_rolling": oracles.fingerprints_rolling_sql(),
        "quality_full": oracles.quality_full_sql(),
        "detect_language": oracles.detect_language_sql(),
        # every media fake backend is exact arithmetic over the sha256
        # payload digest, so the whole media family is SQL-replayable:
        # image mean intensity = mean of the 32 digest bytes (tiled
        # pixels, 3072 = 96*32), audio feature j = (byte j - 127.5)/128,
        # video frame offsets = duration arithmetic
        "media_pipeline": """
            WITH m AS (
              SELECT doc_id AS media_id, sha256(text) AS hx
              FROM documents
              WHERE ('0x' || substring(sha256(text), 1, 2))::INT % 3 = 0
            ),
            b AS (
              SELECT media_id,
                     ('0x' || substring(hx, 2 * i.range + 1, 2))::INT AS byte
              FROM m CROSS JOIN range(0, 32) i
            )
            SELECT media_id, avg(byte) AS mean_intensity
            FROM b GROUP BY media_id ORDER BY media_id
        """,
        "media_audio": """
            WITH m AS (
              SELECT doc_id AS media_id, sha256(text) AS hx
              FROM documents
              WHERE ('0x' || substring(sha256(text), 1, 2))::INT % 3 = 1
            )
            SELECT media_id, i.range::BIGINT AS feature_idx,
                   (('0x' || substring(hx, 2 * i.range + 1, 2))::INT
                    - 127.5) / 128.0 AS feature
            FROM m CROSS JOIN range(0, 16) i
            ORDER BY media_id, feature_idx
        """,
        "media_frames": """
            WITH m AS (
              SELECT doc_id AS media_id,
                     ('0x' || substring(sha256(text), 1, 2))::INT % 3
                         AS kindnum,
                     100 + ('0x' || substring(sha256(text), 7, 2))::INT * 10
                         AS duration_ms
              FROM documents
            )
            SELECT media_id, i.range::BIGINT AS frame_idx,
                   cast(floor(duration_ms * (i.range + 0.5) / 4)
                        AS BIGINT) AS offset_ms
            FROM m CROSS JOIN range(0, 4) i
            WHERE kindnum = 2
            ORDER BY media_id, frame_idx
        """,
        "index_term_stats": f"""
            WITH {_TOK}
            SELECT term, count(*) AS df, sum(tf)::BIGINT AS cf
            FROM tf GROUP BY term ORDER BY term
        """,
        # the merged generational index must reproduce the full-build
        # stats bit-for-bit, so its oracle IS the full-index SQL
        "merged_index_term_stats": f"""
            WITH {_TOK}
            SELECT term, count(*) AS df, sum(tf)::BIGINT AS cf
            FROM tf GROUP BY term ORDER BY term
        """,
        # legacy v0 block arithmetic from source: the block's word sum
        # telescopes to df + max(doc_id) + cf + sum(max pos per doc)
        # (doc gaps and per-posting position gaps are deltas, so they
        # sum to their final absolute values)
        "legacy_term_stats": f"""
            WITH {_TOK},
            agg AS (
              SELECT term, doc_id, count(*) AS tf, max(pos) AS maxpos
              FROM tok GROUP BY 1, 2
            )
            SELECT term, count(*) AS df, sum(tf)::BIGINT AS cf,
                   (count(*) + max(doc_id) + sum(tf)
                    + sum(maxpos))::BIGINT AS word_sum
            FROM agg GROUP BY term ORDER BY term
        """,
        "doc_lengths": f"""
            WITH {_TOK},
            dl AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id)
            SELECT d.doc_id, coalesce(dl.n, 0) AS doc_length
            FROM documents d LEFT JOIN dl USING (doc_id) ORDER BY doc_id
        """,
        # 60-bit multiset checksum over (doc_id, sha256(text)): the mixer
        # mirrors verify.mix60 step for step (HUGEINT multiply mod 2^60,
        # xor with the >>30 halves); w is the big-endian 15-hex-char
        # digest prefix.  Hash-green == the index preserved every row's
        # content AND its doc_id binding.
        "content_integrity": """
            WITH base AS (
              SELECT CAST(concat('0x', substr(sha256(text), 1, 15))
                          AS BIGINT) AS w,
                     CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                          % 1152921504606846976 AS BIGINT) AS a
              FROM documents
            ), m1 AS (
              SELECT w, xor(a, a // 1073741824) AS b FROM base
            ), m2 AS (
              SELECT w, CAST((CAST(b AS HUGEINT) * 2246822519)
                             % 1152921504606846976 AS BIGINT) AS c
              FROM m1
            ), mixed AS (
              SELECT xor(w, xor(c, c // 1073741824)) AS v FROM m2
            )
            SELECT count(*) AS n_docs,
                   CAST(sum(CAST(v AS HUGEINT))
                        % 1152921504606846976 AS BIGINT) AS sum60,
                   bit_xor(v) AS xor60
            FROM mixed
        """,
        "bm25_topk": f"""
            WITH {_TOK},
            dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0 /
                     (SELECT count(*) FROM documents) AS avgdl
            ),
            qt AS (SELECT unnest([{terms_list}]) AS term),
            df AS (
              SELECT term, count(*) AS df FROM tf
              WHERE term IN (SELECT term FROM qt) GROUP BY term
            ),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       greatest(0.1, ln((s.n - df.df + 0.5) / (df.df + 0.5))) *
                       (2.2 * tf.tf /
                        (1.2 * (0.25 + 0.75 * (dl.dl / s.avgdl)) + tf.tf))
                     ) AS score
              FROM tf
              JOIN qt ON tf.term = qt.term
              JOIN df ON tf.term = df.term
              JOIN dl ON tf.doc_id = dl.doc_id
              CROSS JOIN stats s
              GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 6) AS score
            FROM scores ORDER BY score DESC, doc_id LIMIT 20
        """,
        "boolean_and": f"""
            WITH {_TOK}
            SELECT DISTINCT doc_id FROM tok WHERE term = '{and_a}'
            INTERSECT
            SELECT DISTINCT doc_id FROM tok WHERE term = '{and_b}'
            ORDER BY doc_id
        """,
        "boolean_and_not": f"""
            WITH {_TOK}
            SELECT DISTINCT doc_id FROM tok WHERE term = '{and_a}'
            EXCEPT
            SELECT DISTINCT doc_id FROM tok WHERE term = '{and_b}'
            ORDER BY doc_id
        """,
        "boolean_or": f"""
            WITH {_TOK}
            SELECT DISTINCT doc_id FROM tok
            WHERE term IN ('{and_a}', '{and_b}') ORDER BY doc_id
        """,
        "phrase_search": f"""
            WITH {_TOK}
            SELECT DISTINCT a.doc_id
            FROM tok a JOIN tok b
              ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            WHERE a.term = '{ph_a}' AND b.term = '{ph_b}'
            ORDER BY a.doc_id
        """,
        "spelling_suggest": f"""
            WITH {_TOK},
            vocab AS (SELECT DISTINCT term FROM tok),
            w AS (SELECT unnest([{", ".join(f"'{w}'" for w in _SPELL_WORDS)}])
                         AS word),
            scored AS (
              SELECT w.word, v.term AS suggestion,
                     levenshtein(w.word, v.term)::BIGINT AS distance,
                     row_number() OVER (
                       PARTITION BY w.word
                       ORDER BY levenshtein(w.word, v.term), v.term
                     ) AS rank
              FROM w CROSS JOIN vocab v
            )
            SELECT word, rank, suggestion, distance
            FROM scored WHERE rank <= 5 ORDER BY word, rank
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id FROM documents
            GROUP BY text ORDER BY doc_id
        """,
        "token_counts": r"""
            SELECT doc_id,
                   len(list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x <> '')) AS ws_tokens,
                   len(regexp_extract_all(text,
                       '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+'))
                       AS bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "doc_quality": r"""
            WITH toks AS (
              SELECT doc_id, length(text) AS n_chars,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS arr
              FROM documents
            )
            SELECT doc_id, n_chars, len(arr) AS n_tokens,
                   round(CASE WHEN len(arr) = 0 THEN 0.0
                         ELSE list_sum(list_transform(arr, x -> length(x)))
                              * 1.0 / len(arr) END, 6) AS mean_token_len
            FROM toks ORDER BY doc_id
        """,
        "fingerprints": """
            SELECT doc_id, md5(text) AS content_md5
            FROM documents ORDER BY doc_id
        """,
        "knn_bruteforce": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
              FROM embeddings WHERE vec_id IN (0, 1, 2)
            ),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(e.embedding::DOUBLE[], q.qv) AS s
              FROM embeddings e CROSS JOIN q
            ),
            ranked AS (
              SELECT query_id, vec_id, s,
                     row_number() OVER (
                       PARTITION BY query_id ORDER BY s DESC, vec_id
                     ) AS rank
              FROM scored
            )
            SELECT query_id, vec_id, rank, round(s, 5) AS score
            FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
        """,
        "knn_ivf_full_probe": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
              FROM embeddings WHERE vec_id IN (0, 1, 2)
            ),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(e.embedding::DOUBLE[], q.qv) AS s
              FROM embeddings e CROSS JOIN q
            ),
            ranked AS (
              SELECT query_id, vec_id, s,
                     row_number() OVER (
                       PARTITION BY query_id ORDER BY s DESC, vec_id
                     ) AS rank
              FROM scored
            )
            SELECT query_id, vec_id, rank, round(s, 5) AS score
            FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
        """,
        "events_windowed": """
            SELECT event_type, date_trunc('hour', ts) AS bucket,
                   count(*) AS n_events, round(sum(value), 6) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY event_type, bucket
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   round(sum(l_extendedprice), 4) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       AS sum_disc_price,
                   round(sum(l_extendedprice * (1 - l_discount)
                             * (1 + l_tax)), 4) AS sum_charge,
                   round(avg(l_quantity), 6) AS avg_qty,
                   round(avg(l_extendedprice), 6) AS avg_price,
                   round(avg(l_discount), 6) AS avg_disc,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "supplier_revenue": """
            SELECT s.s_suppkey, s.s_name,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 4)
                       AS revenue
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
            GROUP BY s.s_suppkey, s.s_name
            ORDER BY revenue DESC, s.s_suppkey
            LIMIT 10
        """,
        "sessionize": """
            WITH gaps AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (
                            PARTITION BY user_id ORDER BY ts
                          ) > INTERVAL 30 MINUTE
                          OR lag(ts) OVER (
                            PARTITION BY user_id ORDER BY ts
                          ) IS NULL
                     THEN 1 ELSE 0 END AS new_session
              FROM events
            )
            SELECT user_id, sum(new_session)::BIGINT AS n_sessions
            FROM gaps GROUP BY user_id ORDER BY user_id
        """,
    }
