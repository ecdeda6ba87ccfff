"""Benchmark for searchengine_ray: build -> index -> BM25/Boolean query.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (closed loop, one client thread; see README.md):

- ``build``: repeated full ``build_index`` over the seeded corpus;
- ``query_hot``: ``QueryEngine`` ranked queries over a cache-resident
  pool of high-df terms;
- ``query_cold``: ``QueryEngine`` ranked + Boolean queries whose terms
  outgrow the reader's caches;
- ``serve``: ``ShardedQueryPool(num_shards=4)`` with batches of 4 hot
  queries through ``ranked_many``.

Every output is checked against ``oracle.Oracle`` after the timed window.
Readable ``name = value unit`` lines go to stdout, and the last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import ray  # noqa: E402

from perfbench import gen  # noqa: E402
from perfbench.oracle import Oracle, digest  # noqa: E402
from perfbench.trace import Patches, Tracer, TracedIndexShard, summarize  # noqa: E402
from searchengine_ray.batch_tokenize import analyze_batch  # noqa: E402
from searchengine_ray.build import IndexBuildConfig, build_index  # noqa: E402
from searchengine_ray.query import sharded  # noqa: E402
from searchengine_ray.query.engine import QueryEngine  # noqa: E402
from searchengine_ray.query.reader import DiskIndexReader  # noqa: E402
from searchengine_ray.tokenizer import TokenTermCache, process_query_terms  # noqa: E402
from searchengine_ray.verify import verify_index_content  # noqa: E402

WORKLOADS = ("build", "query_hot", "query_cold", "serve")
NUM_DOCS = 4000
TOP_K = 10
NUM_SHARDS = 4
SERVE_BATCH = 4
SETUP_REPEATS = 3            # engine opens per run; setup_s uses the median
POOL_REPEATS = 2             # pool starts per run (each starts NUM_SHARDS actors)
COLD_WARMUP_QUERIES = 32
TRACE_BLOCK = 8              # serve: batches per traced/untraced block
TOKENIZE_SAMPLE_DOCS = 500
OBJECT_STORE_BYTES = 512 << 20


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


_PAGE = os.sysconf("SC_PAGE_SIZE")
RSS_EVERY = 32               # operations between RSS samples


class RssPeak:
    """Peak resident set of this process over the samples taken (the
    timed window's, unlike ``ru_maxrss``, which also covers the
    benchmark's own set-up and oracle)."""

    def __init__(self):
        self.mb = 0.0
        self.sample()

    def sample(self) -> None:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        self.mb = max(self.mb, pages * _PAGE / 2**20)


class CpuRotation:
    """Moves the calling process round-robin over its allowed cores every
    ROTATE_S seconds.  On a shared host one core can run much slower than
    the others for seconds at a time; rotating makes a run sample every
    core instead of whichever one the scheduler happened to keep it on."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next = 0
        self._last = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= ROTATE_S:
            os.sched_setaffinity(0, {self.cpus[self._next]})
            self._next = (self._next + 1) % len(self.cpus)
            self._last = now

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


ROTATE_S = 0.05


def tail_percentile(samples, want: float = 95.0, min_beyond: int = 10):
    """(percentile, value) for ``want`` if at least ``min_beyond``
    samples lie strictly above it, else the highest of 90/75/50 that
    does; None when none qualifies."""
    a = np.asarray(samples, dtype=np.float64)
    if not a.size:
        return None
    for pct in [want] + [p for p in (90.0, 75.0, 50.0) if p < want]:
        v = float(np.percentile(a, pct))
        if int((a > v).sum()) >= min_beyond:
            return pct, v
    return None


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Session:
    """Ray runtime plus the run's scratch directory inside the checkout.
    ``close`` shuts Ray down and removes both, also after a failure."""

    def __init__(self, seed: int):
        self.work = ROOT / ".perfbench_work" / f"{os.getpid()}_{seed}"
        ray_tmp = ROOT / ".perfbench_ray"
        # Ray's unix socket paths, which it nests ~65 bytes below its temp
        # dir, must stay under 108 bytes: a deep checkout falls back to a
        # private directory in the system temp dir
        self.ray_tmp = (ray_tmp if len(str(ray_tmp)) <= 40
                        else Path(tempfile.mkdtemp(prefix="pbray_")))
        self.ray_up = False
        self.ray_init_s = 0.0

    def start_ray(self) -> None:
        t0 = time.perf_counter()
        ray.init(
            num_cpus=len(os.sched_getaffinity(0)),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level=logging.ERROR,
            _temp_dir=str(self.ray_tmp),
            runtime_env={"env_vars": {"PYTHONPATH": str(ROOT)}},
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.ray_init_s = time.perf_counter() - t0
        self.ray_up = True

    def stop_ray(self) -> None:
        if self.ray_up:
            ray.shutdown()
            self.ray_up = False

    def close(self) -> None:
        self.stop_ray()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run's work dir is still there
            pass


class Inputs:
    """The seeded corpus on disk plus the per-word term tuples."""

    def __init__(self, session: Session, seed: int):
        self.seed = seed
        self.corpus = gen.make_corpus(NUM_DOCS, seed)
        self.corpus_dir = gen.write_corpus(
            self.corpus, str(session.work / "corpus"))
        cache = TokenTermCache()
        self.word_terms = [cache.terms_for(w) for w in self.corpus.words]
        self.first_read_s = None
        self._builds = 0
        self.session = session

    def build(self) -> tuple[str, dict, float]:
        """One timed build (read_parquet through manifest commit) into a
        fresh directory: (index_dir, manifest, seconds)."""
        self._builds += 1
        index_dir = str(self.session.work / f"index_{self._builds}")
        t0 = time.perf_counter()
        ds = ray.data.read_parquet(self.corpus_dir)
        t1 = time.perf_counter()
        manifest = build_index(ds, index_dir, IndexBuildConfig(),
                               input_description=f"perfbench:{self.seed}")
        t2 = time.perf_counter()
        if self.first_read_s is None:
            self.first_read_s = t1 - t0
        return index_dir, manifest, t2 - t0

    def candidates(self, index_dir: str) -> list[str]:
        terms, df, _ = DiskIndexReader(index_dir).term_stats()
        return gen.query_candidates(
            terms, df, lambda t: process_query_terms(t) == [t])

    def oracle(self) -> Oracle:
        return Oracle(self.corpus, self.word_terms)


def check_build(inputs: Inputs, oracle: Oracle, index_dir: str,
                manifest: dict, digests: bool = True) -> bool:
    """Manifest scalars, every term's df/cf and, with ``digests``, the
    per-doc content digests (``verify_index_content``, a Ray job)."""
    if (manifest["num_docs"] != oracle.num_docs
            or manifest["total_tokens"] != oracle.total_tokens):
        return False
    terms, df, cf = DiskIndexReader(index_dir).term_stats()
    want_terms, want_df, want_cf = oracle.term_stats
    if (terms != want_terms or not np.array_equal(df, want_df)
            or not np.array_equal(cf, want_cf)):
        return False
    return (not digests
            or bool(verify_index_content(inputs.corpus_dir, index_dir)["passed"]))


def index_bytes_per_doc(index_dir: str, manifest: dict) -> float:
    return (dir_bytes(os.path.join(index_dir, "segments"))
            + dir_bytes(os.path.join(index_dir, "docstats"))
            ) / manifest["num_docs"]


def build_layers(manifests: list[dict]) -> dict:
    """Per-layer build numbers the program publishes in its manifest
    (median over the builds of the run)."""
    def med(f):
        return statistics.median(f(m) for m in manifests) if manifests else 0.0

    st = lambda k: med(lambda m: m["stage_seconds"].get(k, 0.0))  # noqa: E731
    plan = lambda k: med(lambda m: (m.get("exchange_plan") or {}).get(k, 0))  # noqa: E731
    return {
        "build.tokenize_s": st("tokenize"),
        "build.heavy_detect_s": st("heavy_detect"),
        "build.exchange_s": st("exchange"),
        "build.finalize_s": st("finalize"),
        "build.docterms_bytes_per_doc": med(
            lambda m: (m.get("exchange_plan") or {}).get("docterms_bytes", 0)
            / m["num_docs"]),
        "build.exchange_maps": plan("num_maps"),
        "build.exchange_reducers": plan("num_reducers"),
    }


def tokenize_docs_per_s(inputs: Inputs) -> float:
    """Single-process ``analyze_batch`` over the first documents, with a
    fresh term cache (outside every timed window)."""
    tbl = gen.corpus_table(gen.Corpus(
        inputs.corpus.words, inputs.corpus.word_ids,
        inputs.corpus.doc_offsets[:TOKENIZE_SAMPLE_DOCS + 1]))
    contents = tbl.column("content").combine_chunks()
    t0 = time.perf_counter()
    analyze_batch(contents, "reference", TokenTermCache())
    return TOKENIZE_SAMPLE_DOCS / (time.perf_counter() - t0)


def query_layers(tot: dict, n_queries: int) -> dict:
    n = max(n_queries, 1)
    nb = max(tot["batches"], 1)
    calls = tot["get_postings_calls"]
    return {
        "reader.open_s": (statistics.median(tot["reader_opens"])
                          if tot["reader_opens"] else 0.0),
        "reader.get_postings_calls": calls / n,
        "reader.cache_hit_ratio": tot["cache_hits"] / calls if calls else 0.0,
        "reader.fetch_self_ms": tot["fetch_self_s"] * 1e3 / n,
        "reader.row_reads": tot["row_reads"] / n,
        "reader.row_read_ms": tot["row_read_s"] * 1e3 / n,
        "reader.bytes_read": tot["bytes_read"] / n,
        "vbyte.decode_calls": tot["decode_calls"] / n,
        "vbyte.decode_ms": tot["decode_s"] * 1e3 / n,
        "vbyte.values_decoded": tot["values_decoded"] / n,
        "parser.ms": tot["parser_s"] * 1e3 / n,
        "ast.eval_self_ms": tot["ast_eval_self_s"] * 1e3 / n,
        "ranked.score_self_ms": tot["score_self_s"] * 1e3 / n,
        "ranked.postings_scored": tot["postings_scored"] / n,
        "ranked.wand_queries": tot["wand_queries"],
        "sharded.batch_ms": tot["batch_s"] * 1e3 / nb,
        "sharded.merge_ms": tot["merge_s"] * 1e3 / nb,
        "sharded.actor_wait_ms": tot["actor_wait_s"] * 1e3 / nb,
    }


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100


class Result:
    """What a workload hands back to ``main``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.lines: list[tuple[str, float, str, str]] = []
        self.layers: dict[str, float] = {}

    def line(self, name, value, unit, note=""):
        self.lines.append((name, value, unit, note))


def latency_lines(res: Result, prefix: str, lat_s: list[float]) -> None:
    if not lat_s:
        return
    ms = [x * 1e3 for x in lat_s]
    res.line(f"{prefix}_p50_ms", statistics.median(ms), "ms",
             f"n={len(ms)}")
    tail = tail_percentile(ms)
    if tail is not None:
        pct, v = tail
        res.line(f"{prefix}_p{pct:g}_ms", v, "ms",
                 f"n={len(ms)}, >=10 samples beyond")


# ---- workloads ----

def _finish(res: Result, done, lat, elapsed, setup_s, rss, bpd, note):
    """End-to-end numbers shared by the query workloads."""
    qps = len(done) / elapsed
    res.e2e = {"setup_s": setup_s, "throughput": qps,
               "p50_ms": statistics.median(lat) * 1e3,
               "index_bytes_per_doc": bpd, "rss_mb": rss}
    res.line("setup_s", setup_s, "s", note)
    res.line("qps", qps, "queries/s", f"{len(done)} queries")
    latency_lines(res, "ranked", [x for (q, _), x in zip(done, lat)
                                  if q.ranked])
    latency_lines(res, "boolean", [x for (q, _), x in zip(done, lat)
                                   if not q.ranked])
    res.line("index_bytes_per_doc", bpd, "B/doc")
    res.line("rss_mb", rss, "MB", "peak of this process over the timed window")


def _check_queries(res: Result, oracle: Oracle, done) -> None:
    for q, out in done:
        res.attempted += 1
        ok = (oracle.check_ranked(q, out) if q.ranked
              else oracle.check_boolean(q, out))
        if not ok:
            res.failed += 1
            log(f"query mismatch: {q.text!r} okapi={q.okapi}")


def _check_index(res: Result, oracle: Oracle, inputs: Inputs, index_dir: str,
                 manifest: dict, digests: bool = True) -> None:
    res.attempted += 1
    if not check_build(inputs, oracle, index_dir, manifest, digests):
        res.failed += 1
        log(f"build output mismatch: {index_dir}")


def run_build(session: Session, inputs: Inputs, seconds: float,
              trace: bool) -> Result:
    res = Result()
    session.start_ray()
    warm = inputs.build()
    setup_s = session.ray_init_s + warm[2]
    rss = RssPeak()
    builds, traced_s, plain_s = [], [], []
    while sum(b[2] for b in builds) < seconds or len(builds) < 2:
        # traced runs alternate traced and plain builds; the build runs
        # in Ray workers, so tracing adds only the span around the call
        tracer = Tracer() if trace and len(builds) % 2 == 1 else None
        span = tracer.begin("build") if tracer else None
        b = inputs.build()
        if tracer:
            tracer.end(span)
        (traced_s if tracer else plain_s).append(b[2])
        builds.append(b)
        rss.sample()
    oracle = inputs.oracle()
    _check_index(res, oracle, inputs, warm[0], warm[1], digests=False)
    for index_dir, manifest, _ in builds:
        _check_index(res, oracle, inputs, index_dir, manifest)
    times = [b[2] for b in builds]
    docs_per_s = NUM_DOCS / statistics.median(times)
    bpd = index_bytes_per_doc(builds[-1][0], builds[-1][1])
    res.e2e = {"setup_s": setup_s, "throughput": docs_per_s,
               "p50_ms": statistics.median(times) * 1e3,
               "index_bytes_per_doc": bpd, "rss_mb": rss.mb}
    res.line("setup_s", setup_s, "s", "Ray init + first build")
    res.line("build_docs_per_s", docs_per_s, "docs/s",
             f"median of {len(builds)} builds of {NUM_DOCS} docs")
    res.line("build_p50_ms", statistics.median(times) * 1e3, "ms",
             f"n={len(times)}")
    res.line("index_bytes_per_doc", bpd, "B/doc")
    res.line("rss_mb", rss.mb, "MB", "peak of this process over the timed window")
    if trace:
        res.layers = build_layers([b[1] for b in builds])
        res.layers.update(query_layers(summarize([]), 0))
        res.layers["trace.overhead_pct"] = overhead_pct(traced_s, plain_s)
        res.layers["trace.traced_ops"] = len(traced_s)
    return res


def _run_query(engine: QueryEngine, q: gen.Query):
    if q.ranked:
        return engine.ranked_query(q.text, use_okapi=q.okapi, top_k=TOP_K)
    return digest(engine.boolean_query(q.text))


def run_engine(session: Session, inputs: Inputs, seconds: float,
               trace: bool, cold: bool) -> Result:
    res = Result()
    session.start_ray()
    index_dir, manifest, build_s = inputs.build()
    setup_s = session.ray_init_s + build_s
    cands = inputs.candidates(index_dir)
    if cold:
        stream = gen.cold_queries(cands, inputs.corpus, inputs.word_terms,
                                  inputs.seed)
        warm_stream = gen.cold_queries(cands, inputs.corpus,
                                       inputs.word_terms, inputs.seed + 1)
    else:
        stream = gen.hot_queries(cands, inputs.seed)
    # the query path needs no Ray: stop it so nothing else runs while timing
    session.stop_ray()

    tracer = Tracer() if trace else None
    patches = Patches(tracer) if trace else None
    t0 = time.perf_counter()
    if cold:
        # warm the code paths on a throwaway engine; the timed engine is
        # fresh, with empty caches
        warm_engine = QueryEngine(index_dir)
        for _ in range(COLD_WARMUP_QUERIES):
            _run_query(warm_engine, next(warm_stream))
        del warm_engine, warm_stream
    opens = []
    for _ in range(SETUP_REPEATS):
        t1 = time.perf_counter()
        engine = QueryEngine(index_dir)
        opens.append(time.perf_counter() - t1)
    if not cold:
        for term in cands[:gen.HOT_POOL]:
            engine.ranked_query(term, top_k=TOP_K)
    setup_s += time.perf_counter() - t0 - sum(opens) + statistics.median(opens)
    if trace:
        patches.remove()
        setup_spans = tracer.take()

    done, lat, traced_lat, plain_lat = [], [], [], []
    rss = RssPeak()
    cpu = CpuRotation()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        cpu.tick()
        q = next(stream)
        # traced runs alternate traced and plain queries
        on = trace and len(done) % 2 == 1
        if on:
            patches = Patches(tracer)
        t0 = time.perf_counter()
        out = _run_query(engine, q)
        dt = time.perf_counter() - t0
        if on:
            patches.remove()
            traced_lat.append(dt)
        elif trace:
            plain_lat.append(dt)
        lat.append(dt)
        done.append((q, out))
        if len(done) % RSS_EVERY == 0:
            rss.sample()
    elapsed = time.perf_counter() - start
    cpu.restore()
    rss.sample()
    del engine

    oracle = inputs.oracle()
    _check_queries(res, oracle, done)
    # Ray is down: the content-digest check runs in the build workload
    _check_index(res, oracle, inputs, index_dir, manifest, digests=False)
    _finish(res, done, lat, elapsed, setup_s, rss.mb,
            index_bytes_per_doc(index_dir, manifest),
            "Ray init + build + engine open + warm-up")
    if cold:
        res.line("distinct_query_terms",
                 len({t for q, _ in done for t in q.terms}), "count")
    if trace:
        res.layers = build_layers([manifest])
        tot = summarize([tracer.spans])
        tot["reader_opens"] = summarize([setup_spans])["reader_opens"]
        res.layers.update(query_layers(tot, len(traced_lat)))
        res.layers["trace.overhead_pct"] = overhead_pct(traced_lat, plain_lat)
        res.layers["trace.traced_ops"] = len(traced_lat)
    return res


def run_serve(session: Session, inputs: Inputs, seconds: float,
              trace: bool) -> Result:
    res = Result()
    session.start_ray()
    index_dir, manifest, build_s = inputs.build()
    setup_s = session.ray_init_s + build_s
    cands = inputs.candidates(index_dir)
    batches = gen.serve_batches(cands, inputs.seed, SERVE_BATCH)
    warm = cands[:gen.HOT_POOL]
    tracer = Tracer() if trace else None
    saved_shard = sharded.IndexShard
    if trace:
        sharded.IndexShard = TracedIndexShard
    try:
        opens = []
        for _ in range(POOL_REPEATS):
            t0 = time.perf_counter()
            pool = sharded.ShardedQueryPool(index_dir, num_shards=NUM_SHARDS)
            pool.ranked_many(warm[:1])        # every shard is up
            opens.append(time.perf_counter() - t0)
            if len(opens) < POOL_REPEATS:
                pool.shutdown()
    finally:
        sharded.IndexShard = saved_shard
    t0 = time.perf_counter()
    for i in range(0, len(warm), SERVE_BATCH):
        pool.ranked_many(warm[i:i + SERVE_BATCH], top_k=TOP_K)
    setup_s += statistics.median(opens) + time.perf_counter() - t0
    if trace:
        setup_spans = [s for a in pool.actors
                       for s in ray.get(a.perfbench_spans.remote())]

    done, lat, traced_lat, plain_lat = [], [], [], []
    traced_queries = 0
    patches = None
    rss = RssPeak()
    cpu = CpuRotation()
    start = time.perf_counter()
    deadline = start + seconds
    nb = 0
    while time.perf_counter() < deadline:
        cpu.tick()
        # traced runs alternate blocks of traced and plain batches
        on = trace and (nb // TRACE_BLOCK) % 2 == 1
        if trace and nb % TRACE_BLOCK == 0:
            ray.get([a.perfbench_trace.remote(on) for a in pool.actors])
            if on:
                patches = Patches(tracer)
            elif patches is not None:
                patches.remove()
                patches = None
        batch = next(batches)
        t0 = time.perf_counter()
        outs = pool.ranked_many([q.text for q in batch],
                                use_okapi=batch[0].okapi, top_k=TOP_K)
        dt = time.perf_counter() - t0
        for q, out in zip(batch, outs):
            done.append((q, out))
            lat.append(dt)
        if on:
            traced_lat.append(dt)
            traced_queries += len(batch)
        elif trace:
            plain_lat.append(dt)
        nb += 1
        if nb % RSS_EVERY == 0:
            rss.sample()
    elapsed = time.perf_counter() - start
    cpu.restore()
    rss.sample()
    if patches is not None:
        patches.remove()
    actor_spans = ([ray.get(a.perfbench_spans.remote()) for a in pool.actors]
                   if trace else [])
    pool.shutdown()

    oracle = inputs.oracle()
    _check_queries(res, oracle, done)
    _check_index(res, oracle, inputs, index_dir, manifest)
    _finish(res, done, lat, elapsed, setup_s, rss.mb,
            index_bytes_per_doc(index_dir, manifest),
            "Ray init + build + pool start + warm-up")
    if trace:
        res.layers = build_layers([manifest])
        tot = summarize([tracer.spans] + actor_spans)
        tot["reader_opens"] = summarize([setup_spans])["reader_opens"]
        res.layers.update(query_layers(tot, traced_queries))
        res.layers["trace.overhead_pct"] = overhead_pct(traced_lat, plain_lat)
        res.layers["trace.traced_ops"] = traced_queries
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    session = Session(seed)
    try:
        session.work.mkdir(parents=True, exist_ok=True)
        inputs = Inputs(session, seed)
        if name == "build":
            res = run_build(session, inputs, seconds, trace)
        elif name == "serve":
            res = run_serve(session, inputs, seconds, trace)
        else:
            res = run_engine(session, inputs, seconds, trace,
                             cold=(name == "query_cold"))
        if trace:
            res.layers["corpus.read_s"] = inputs.first_read_s
            res.layers["batch_tokenize.docs_per_s"] = tokenize_docs_per_s(
                inputs)
        return res
    finally:
        session.close()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main_one(args) -> int:
    spec = load_spec()
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for name, value, unit, note in res.lines:
        print(f"[{args.workload}] {name} = {value:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"[{args.workload}] failed_frac = "
          f"{res.failed / res.attempted:.6g}  ({res.failed} of "
          f"{res.attempted} operations: every query result and every "
          f"build checked against the oracle)")
    if args.trace:
        wanted = spec["per_layer"]
        values = res.layers
        for m in wanted:
            print(f"[{args.workload}] {m['name']} = "
                  f"{values[m['name']]:.6g} {m['unit']}")
    else:
        wanted = spec["end_to_end"]
        values = res.e2e
    out = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0


def main_all(args) -> int:
    """Every workload untraced then traced, each in its own process;
    prints their lines and the tracing overhead per workload."""
    status = 0
    summary = []
    for w in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        if len(results) == 2:
            summary.append(
                f"{w}: correct={results[0]['correct'] and results[1]['correct']}"
                f" failed={results[0]['failed']}/{results[0]['attempted']}"
                f" trace.overhead_pct="
                f"{results[1]['metrics']['trace.overhead_pct']['value']:.3g}")
    print("\n".join(summary))
    return status


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so Ray is shut down and the work
    # directories are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
