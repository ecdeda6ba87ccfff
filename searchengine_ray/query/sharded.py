"""Sharded query serving: an actor pool where each actor loads only a
subset of the index's term buckets (the ``DiskIndexReader(buckets=...)``
path), the deployment shape for a dictionary too large for one node.

Terms are hash-partitioned by bucket (layout.term_bucket), so one term's
postings live wholly in one shard.  Correct multi-term scoring therefore
fans a query out to every shard, collects each shard's per-doc score
*contributions* for the terms it owns (both BM25 and the reference's
tf-idf/L_d are sums of per-term contributions, so partials add), and
sums + top-ks on the coordinator.  Boolean queries route each term's
postings fetch to its owning shard and evaluate the AST locally.

The merge volume per query is O(matching docs) per shard — at serving
scale you would cap it with per-shard top-m + re-fetch, but exactness is
the point here (rank-identical to the single-process engine modulo
floating-point summation order).
"""

from __future__ import annotations

import numpy as np
import ray

from .engine import QueryEngine
from .parser import parse_query
from .ast import contains_phrase
from .ranked import rank_documents_exact


class IndexShard:
    """One shard actor: a QueryEngine restricted to a bucket subset."""

    def __init__(self, index_dir: str, buckets: list[int]):
        self.engine = QueryEngine(index_dir, buckets=buckets)

    def partial_scores(
        self, raw_query: str, use_okapi: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, contributions) for the query terms this shard owns
        (df of un-owned terms is 0 locally, so they drop out)."""
        pairs = rank_documents_exact(
            self.engine.index, raw_query, use_okapi, top_k=None
        )
        if not pairs:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        docs = np.fromiter((d for d, _ in pairs), dtype=np.int64,
                           count=len(pairs))
        scores = np.fromiter((s for _, s in pairs), dtype=np.float64,
                             count=len(pairs))
        return docs, scores

    def term_postings(self, term: str, with_positions: bool):
        return self.engine.index.get_postings(term, with_positions)

    def df(self, term: str) -> int:
        return self.engine.index.df(term)


class _RoutedIndex:
    """Index facade for Boolean ASTs: term reads route to the owning
    shard (bucket hash), doc stats come from the local manifest copy."""

    def __init__(self, pool: "ShardedQueryPool"):
        self.pool = pool

    def get_postings(self, term: str, with_positions: bool = False):
        shard = self.pool.shard_of(term)
        return ray.get(shard.term_postings.remote(term, with_positions))

    def df(self, term: str) -> int:
        return int(ray.get(self.pool.shard_of(term).df.remote(term)))


class ShardedQueryPool:
    """num_shards actors, each serving num_buckets/num_shards buckets."""

    def __init__(self, index_dir: str, num_shards: int = 4):
        import json
        import os

        with open(os.path.join(index_dir, "manifest.json")) as f:
            manifest = json.load(f)
        self.num_buckets = int(manifest["num_buckets"])
        self.analyzer = manifest.get("config", {}).get("analyzer",
                                                       "reference")
        num_shards = min(num_shards, self.num_buckets)
        self.assignments = [
            list(range(s, self.num_buckets, num_shards))
            for s in range(num_shards)
        ]
        Shard = ray.remote(IndexShard)
        self.actors = [
            Shard.remote(index_dir, b) for b in self.assignments
        ]
        # bucket -> actor
        self._actor_of_bucket = {}
        for actor, bs in zip(self.actors, self.assignments):
            for b in bs:
                self._actor_of_bucket[b] = actor
        self._routed = _RoutedIndex(self)

    def shard_of(self, term: str):
        from ..layout import term_bucket

        return self._actor_of_bucket[term_bucket(term, self.num_buckets)]

    def shutdown(self) -> None:
        """Kill the shard actors (frees their dictionaries immediately —
        needed when a process builds several pools, e.g. bench reps)."""
        for a in self.actors:
            ray.kill(a)
        self.actors = []
        self._actor_of_bucket = {}

    # ---- ranked ----

    def _submit_ranked(self, raw_query: str, use_okapi: bool):
        # fan out to every shard: each computes contributions for the
        # terms it owns (ranked-mode term variants — the reference's
        # no-stem quirk — make driver-side bucket routing unreliable, and
        # the per-shard no-op costs nothing)
        return [a.partial_scores.remote(raw_query, use_okapi)
                for a in self.actors]

    @staticmethod
    def _merge_ranked(parts, top_k: int | None):
        docs = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        scores = np.concatenate([p[1] for p in parts]) if parts else np.empty(0)
        if docs.size == 0:
            return []
        uniq, inv = np.unique(docs, return_inverse=True)
        total = np.bincount(inv, weights=scores)
        order = np.lexsort((uniq, -total))
        if top_k is not None:
            order = order[:top_k]
        return [(int(uniq[i]), float(total[i])) for i in order]

    def ranked_query(self, raw_query: str, use_okapi: bool = True,
                     top_k: int | None = 10) -> list[tuple[int, float]]:
        parts = ray.get(self._submit_ranked(raw_query, use_okapi))
        return self._merge_ranked(parts, top_k)

    def ranked_many(
        self, queries: list[str], use_okapi: bool = True,
        top_k: int | None = 10,
    ) -> list[list[tuple[int, float]]]:
        """Throughput path: all queries' shard calls in flight at once."""
        submitted = [self._submit_ranked(q, use_okapi) for q in queries]
        return [self._merge_ranked(ray.get(refs), top_k)
                for refs in submitted]

    # ---- Boolean ----

    def boolean_query(self, raw_query: str) -> np.ndarray:
        ast = parse_query(raw_query, analyzer=self.analyzer)
        return ast.get_postings(
            self._routed, contains_phrase(ast)
        ).doc_ids
