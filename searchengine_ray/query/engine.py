"""Query engine facade + Ray actor-pool serving.

``QueryEngine`` is the single-process facade combining the disk reader,
Boolean parser/evaluator and ranked scorers — the analogue of the
reference's SearchManager (/root/reference/engine/interface/model.py:109-151)
minus the GUI.  ``QueryActor`` wraps it as a ``map_batches`` callable for
parallel serving (``sharded.ShardedQueryPool`` is the bucket-sharded
actor pool): each actor loads the term dictionary + doc stats once
(ST3–ST5 state) and answers many queries.
"""

from __future__ import annotations

import numpy as np

from ..tokenizer import ranked_query_terms
from .ast import contains_phrase
from .parser import parse_query
from .ranked import rank_bm25_wand, rank_documents_exact
from .reader import DiskIndexReader

#: ``use_wand="auto"`` takes block-max WAND at this many candidate postings
WAND_MIN_POSTINGS = 500_000


class QueryEngine:
    def __init__(self, index_dir: str, buckets: list[int] | None = None):
        self.index = DiskIndexReader(index_dir, buckets=buckets)

    # ---- Boolean ----

    def boolean_query(self, raw_query: str) -> np.ndarray:
        """doc_ids matching a Boolean query (sorted ascending).  Query
        terms normalize with the analyzer that built the index (from the
        manifest), so Boolean search works on whitespace / Spanish
        indexes, not just the reference chain."""
        ast = parse_query(raw_query, analyzer=self.index.analyzer)
        with_positions = contains_phrase(ast)
        return ast.get_postings(self.index, with_positions).doc_ids

    # ---- ranked ----

    def ranked_query(
        self,
        raw_query: str,
        use_okapi: bool = True,
        top_k: int | None = 10,
        use_wand: bool | str = "auto",
    ) -> list[tuple[int, float]]:
        """BM25/tf-idf ranking.  ``use_wand="auto"`` picks block-max WAND
        only when the query's total candidate postings reach
        ``WAND_MIN_POSTINGS``, where skipping beats the exact
        term-at-a-time scorer (WAND's document-at-a-time loop is
        per-posting Python; the exact scorer computes weights in numpy
        but sums them per posting in a Python dict).  Both paths are
        rank-identical."""
        if use_okapi and top_k is not None and use_wand:
            if use_wand == "auto":
                total = sum(
                    self.index.df(t) for t in ranked_query_terms(raw_query)
                )
                if total >= WAND_MIN_POSTINGS:
                    return rank_bm25_wand(self.index, raw_query, top_k=top_k)
            else:
                return rank_bm25_wand(self.index, raw_query, top_k=top_k)
        return rank_documents_exact(self.index, raw_query, use_okapi, top_k=top_k)

    def titles(self, doc_ids) -> list[str]:
        return self.index.get_titles([int(d) for d in doc_ids])


class QueryActor:
    """map_batches-callable: one engine per actor, a batch of query strings
    in, top-k results out.  Columns: query, mode ('bm25'|'default'|'bool')."""

    def __init__(self, index_dir: str, top_k: int = 10):
        self.engine = QueryEngine(index_dir)
        self.top_k = top_k

    def __call__(self, batch: dict) -> dict:
        queries = list(batch["query"])
        modes = list(batch.get("mode", ["bm25"] * len(queries)))
        out_q, out_mode, out_docs, out_scores = [], [], [], []
        for q, mode in zip(queries, modes):
            if mode == "bool":
                docs = self.engine.boolean_query(q)
                out_docs.append(docs.astype(np.int64))
                out_scores.append(np.zeros(docs.size, dtype=np.float64))
            else:
                ranked = self.engine.ranked_query(
                    q, use_okapi=(mode == "bm25"), top_k=self.top_k
                )
                out_docs.append(np.array([d for d, _ in ranked], dtype=np.int64))
                out_scores.append(np.array([s for _, s in ranked], dtype=np.float64))
            out_q.append(q)
            out_mode.append(mode)
        return {
            "query": np.array(out_q, dtype=object),
            "mode": np.array(out_mode, dtype=object),
            "doc_ids": np.array(out_docs, dtype=object),
            "scores": np.array(out_scores, dtype=object),
        }
