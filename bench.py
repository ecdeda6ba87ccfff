"""Benchmark harness.

Runs the headline pipeline over $GRAFT_SF_DIR (default: the sf0.1 test
data, see SF_DIR) with num_cpus=$RAY_GRAFT_CPUS (default: the CPUs this
process may run on) three times in one Ray session and prints ONE JSON
line, the median-``value`` rep's: index build, engine open, and the BM25,
Boolean and sharded query sets.

perfbench/ is the oracle-checked benchmark; this is the quick headline.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))

BM25_QUERIES = [
    "hash join merge scan",
    "table row value",
    "agg slow fast",
    "batch part key",
    "merge sort scan table",
    "value hash agg row",
    "fast slow key part",
    "scan scan scan",
    "join value",
    "row batch merge",
]

BOOL_QUERIES = [
    "hash join", "merge + sort", "table -row", '"hash join"', "scan value part",
]


def _build(num_cpus: int, index_dir: str, analyzer: str = "reference"):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    from searchengine_ray.build import IndexBuildConfig, build_index
    from searchengine_ray.corpus import corpus_from_documents

    shutil.rmtree(index_dir, ignore_errors=True)
    corpus = corpus_from_documents(SF_DIR)
    n_docs = corpus.count()
    cfg = IndexBuildConfig(analyzer=analyzer, num_buckets=max(16, num_cpus))
    t0 = time.perf_counter()
    manifest = build_index(
        corpus, index_dir, cfg,
        input_description=f"{SF_DIR}#bench-{num_cpus}",
    )
    build_s = time.perf_counter() - t0
    return n_docs, build_s, manifest


def run_single(num_cpus: int) -> dict:
    """One full bench pass; returns the metrics dict."""
    index_dir = f"/tmp/bench_idx_{num_cpus}"
    n_docs, build_s, manifest = _build(num_cpus, index_dir)
    out: dict = {
        "sf": SF_DIR,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "queries": {},
    }
    out["queries"]["index_build"] = round(build_s, 3)
    out["build_files_per_sec"] = round(n_docs / build_s, 1)

    from searchengine_ray.query.engine import QueryEngine

    t0 = time.perf_counter()
    eng = QueryEngine(index_dir)
    out["queries"]["engine_init"] = round(time.perf_counter() - t0, 3)

    lat = []
    for q in BM25_QUERIES:
        t0 = time.perf_counter()
        eng.ranked_query(q, use_okapi=True, top_k=10)
        lat.append(time.perf_counter() - t0)
    out["bm25_p50_ms"] = round(1000 * statistics.median(lat), 2)
    out["bm25_p95_ms"] = round(
        1000 * sorted(lat)[max(0, int(len(lat) * 0.95) - 1)], 2
    )
    out["queries"]["bm25_queryset"] = round(sum(lat), 3)

    lat_b = []
    for q in BOOL_QUERIES:
        t0 = time.perf_counter()
        eng.boolean_query(q)
        lat_b.append(time.perf_counter() - t0)
    out["queries"]["boolean_queryset"] = round(sum(lat_b), 3)

    # sharded serving: 4 shard actors, each owning 1/4 of the term
    # buckets (DiskIndexReader(buckets=...)); throughput over the BM25
    # query set with all shard calls in flight
    from searchengine_ray.query.sharded import ShardedQueryPool

    pool = ShardedQueryPool(index_dir, num_shards=4)
    pool.ranked_query(BM25_QUERIES[0])  # actor + dictionary warmup
    reps = 20
    t0 = time.perf_counter()
    pool.ranked_many(BM25_QUERIES * reps, top_k=10)
    dt = time.perf_counter() - t0
    out["queries"]["sharded_queryset"] = round(dt, 3)
    out["sharded_pool_qps"] = round(len(BM25_QUERIES) * reps / dt, 1)
    pool.shutdown()  # reps share one Ray session; don't accumulate actors

    # index size accounting
    seg_bytes = sum(
        os.path.getsize(os.path.join(index_dir, "segments", f))
        for f in os.listdir(os.path.join(index_dir, "segments"))
    )
    out["index_bytes_per_doc"] = round(seg_bytes / max(1, n_docs), 1)
    out["value"] = round(sum(out["queries"].values()), 3)
    out["metric"] = ("total engine seconds (build + engine open + "
                     "BM25/Boolean/sharded query sets)")
    out["unit"] = "sec"
    return out


BENCH_REPS = 3


def run_default() -> dict:
    """BENCH_REPS passes in one Ray session (warm workers after the
    first); returns the median-``value`` rep's metrics with every rep's
    summary attached."""
    outs = [run_single(NUM_CPUS) for _ in range(BENCH_REPS)]
    reps = [{"rep": i, "value": o["value"],
             "build_files_per_sec": o["build_files_per_sec"],
             "bm25_p50_ms": o["bm25_p50_ms"], "queries": o["queries"]}
            for i, o in enumerate(outs)]
    median = sorted(outs, key=lambda o: o["value"])[len(outs) // 2]
    median["reps"] = reps
    return median


_USAGE = """\
usage: bench.py
  3-rep bench over $GRAFT_SF_DIR at $RAY_GRAFT_CPUS; prints the median
  rep as one JSON line (index build, engine open, BM25/Boolean/sharded
  query sets)
"""


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] in ("--help", "-h"):
        print(_USAGE, end="")
        return
    if len(sys.argv) > 1:
        # an unrecognised flag must NOT silently fall through to the
        # full bench (it spins up a Ray session)
        print(_USAGE, end="", file=sys.stderr)
        sys.exit(2)
    out = run_default()
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
