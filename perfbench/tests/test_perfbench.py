"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import itertools
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gen, trace  # noqa: E402
from perfbench.oracle import Oracle, digest  # noqa: E402
from perfbench.run import tail_percentile  # noqa: E402
from searchengine_ray.tokenizer import TokenTermCache, process_query_terms  # noqa: E402


def _word_terms(corpus):
    cache = TokenTermCache()
    return [cache.terms_for(w) for w in corpus.words]


def _candidates(oracle: Oracle) -> list[str]:
    terms, df, _ = oracle.term_stats
    return gen.query_candidates(
        terms, df, lambda t: process_query_terms(t) == [t])


# ---- percentile rule ----

def test_tail_keeps_p95_with_ten_beyond():
    pct, v = tail_percentile(np.arange(1, 1001))
    assert pct == 95.0 and v == pytest.approx(950.05)


def test_tail_falls_back_to_highest_qualifying():
    # 100 samples: 5 lie beyond p95, exactly 10 beyond p90
    pct, v = tail_percentile(np.arange(1, 101))
    assert pct == 90.0 and v == pytest.approx(90.1)
    # 30 samples: only p50 has >= 10 beyond
    assert tail_percentile(np.arange(30))[0] == 50.0
    assert tail_percentile(np.arange(15)) is None


# ---- self time ----

def _span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_union_of_children():
    spans = [_span("p", 0.0, 10.0), _span("a", 1.0, 3.0, 0),
             _span("b", 2.0, 4.0, 0), _span("c", 6.0, 7.0, 0),
             _span("d", 9.5, 12.0, 0)]
    children = [[1, 2, 3, 4], [], [], [], []]
    # covered: [1,4] + [6,7] + [9.5,10] (clipped) = 4.5
    assert trace.self_time(spans, children, 0) == pytest.approx(5.5)
    assert trace.self_time(spans, children, 1) == pytest.approx(2.0)


def test_summarize_self_times_and_hits():
    spans = [
        _span("ranked.exact", 0.0, 10.0),
        _span("reader.get_postings", 1.0, 5.0, 0),     # miss: has children
        _span("reader.fragment_row", 1.5, 3.0, 1),
        _span("vbyte.decode", 3.0, 4.0, 1),
        _span("reader.get_postings", 6.0, 6.5, 0),     # hit: no children
    ]
    spans[1][trace.COUNT] = 7
    spans[4][trace.COUNT] = 3
    tot = trace.summarize([spans])
    assert tot["get_postings_calls"] == 2 and tot["cache_hits"] == 1
    assert tot["score_self_s"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert tot["fetch_self_s"] == pytest.approx((4.0 - 2.5) + 0.5)
    assert tot["postings_scored"] == 10


# ---- seeded inputs ----

def test_seed_gives_identical_corpus_files(tmp_path):
    a = gen.write_corpus(gen.make_corpus(120, seed=9), str(tmp_path / "a"))
    b = gen.write_corpus(gen.make_corpus(120, seed=9), str(tmp_path / "b"))
    c = gen.write_corpus(gen.make_corpus(120, seed=10), str(tmp_path / "c"))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and len(names) == gen.NUM_FILES
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errors
    assert filecmp.cmpfiles(a, c, names, shallow=False)[1]


def test_seed_gives_identical_query_streams():
    corpus = gen.make_corpus(300, seed=4)
    wt = _word_terms(corpus)
    cands = _candidates(Oracle(corpus, wt))

    def streams(seed):
        return (
            list(itertools.islice(gen.hot_queries(cands, seed), 300)),
            list(itertools.islice(
                gen.cold_queries(cands, corpus, wt, seed), 300)),
            list(itertools.islice(gen.serve_batches(cands, seed), 50)),
        )

    first, again, other = streams(4), streams(4), streams(5)
    assert [[q.text for q in s] for s in first[:2]] == \
        [[q.text for q in s] for s in again[:2]]
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]
    kinds = {q.kind for q in first[1]}
    assert kinds == {"ranked", "and", "or", "andnot", "phrase"}
    assert all(gen.QUERY_TERM_RE.fullmatch(t)
               for s in first[:2] for q in s for t in q.terms)


# ---- oracle ----

@pytest.fixture(scope="module")
def small():
    corpus = gen.make_corpus(200, seed=3)
    oracle = Oracle(corpus, _word_terms(corpus))
    return corpus, oracle, _candidates(oracle)


def test_oracle_accepts_its_own_answers(small):
    _, oracle, cands = small
    for okapi in (True, False):
        q = gen.Query("ranked", tuple(cands[:3]), okapi=okapi)
        assert oracle.check_ranked(q, oracle.top_k(q))
    q = gen.Query("or", tuple(cands[5:8]))
    assert oracle.check_boolean(q, digest(oracle.boolean(q)))


def test_oracle_flags_wrong_score(small):
    _, oracle, cands = small
    q = gen.Query("ranked", (cands[0], cands[40]))
    got = oracle.top_k(q)
    d, s = got[4]
    got[4] = (d, s * (1 + 1e-6))
    assert not oracle.check_ranked(q, got)


def test_oracle_flags_missing_doc(small):
    _, oracle, cands = small
    q = gen.Query("ranked", (cands[0], cands[40]))
    got = oracle.top_k(q)
    assert not oracle.check_ranked(q, got[:3] + got[4:])
    full = oracle.top_k(q, k=oracle.num_docs)
    # the doc ranked 11th slides into the gap: same length, wrong doc
    assert not oracle.check_ranked(q, got[:3] + got[4:] + [full[10]])
    qb = gen.Query("and", (cands[1], cands[2]))
    docs = oracle.boolean(qb)
    assert docs.size > 1
    assert not oracle.check_boolean(qb, digest(docs[1:]))


def test_oracle_phrase_is_adjacency(small):
    corpus, oracle, _ = small
    wt = _word_terms(corpus)
    ws = corpus.doc_words(0)
    for p in range(len(ws) - 1):
        a, b = wt[ws[p]], wt[ws[p + 1]]
        if len(a) == len(b) == 1 and a[0] and b[0]:
            assert 0 in oracle.phrase_docs(a[0], b[0])
            break
    else:
        pytest.skip("doc 0 has no single-term bigram")


# ---- tracing on a real index ----

@pytest.fixture(scope="module")
def tiny_index(tmp_path_factory):
    import ray
    from searchengine_ray.build import IndexBuildConfig, build_index

    work = tmp_path_factory.mktemp("perfbench")
    corpus = gen.make_corpus(64, seed=2)
    corpus_dir = gen.write_corpus(corpus, str(work / "corpus"))
    ray.init(num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False,
             runtime_env={"env_vars": {"PYTHONPATH": str(ROOT)}})
    try:
        index_dir = str(work / "index")
        build_index(ray.data.read_parquet(corpus_dir), index_dir,
                    IndexBuildConfig())
        yield corpus, index_dir
    finally:
        ray.shutdown()


def test_every_boundary_records_a_span(tiny_index):
    import ray
    from searchengine_ray.query import sharded
    from searchengine_ray.query.engine import QueryEngine

    corpus, index_dir = tiny_index
    wt = _word_terms(corpus)
    oracle = Oracle(corpus, wt)
    cands = _candidates(oracle)
    originals = [(o, a, o.__dict__[a]) for o, a, _, _ in trace.boundaries()]
    originals.append((sharded, "ray", sharded.ray))

    tracer = trace.Tracer()
    patches = trace.Patches(tracer)
    try:
        engine = QueryEngine(index_dir)
        q = gen.Query("ranked", tuple(cands[:2]))
        assert oracle.check_ranked(q, engine.ranked_query(q.text))
        engine.ranked_query(q.text, use_wand=True)
        phrase = next(p for p in itertools.islice(
            gen.cold_queries(cands, corpus, wt, 1), 500)
            if p.kind == "phrase")
        assert oracle.check_boolean(
            phrase, digest(engine.boolean_query(phrase.text)))
        saved = sharded.IndexShard
        sharded.IndexShard = trace.TracedIndexShard
        try:
            pool = sharded.ShardedQueryPool(index_dir, num_shards=2)
        finally:
            sharded.IndexShard = saved
        out = pool.ranked_many([q.text, cands[3]])
        assert oracle.check_ranked(q, out[0])
        actor_spans = [ray.get(a.perfbench_spans.remote())
                       for a in pool.actors]
        pool.shutdown()
    finally:
        patches.remove()
    assert all(o.__dict__[a] is orig for o, a, orig in originals[:-1])
    assert sharded.ray is originals[-1][2]

    names = {s[trace.NAME] for s in tracer.spans}
    wanted = {name for _, _, name, _ in trace.boundaries()}
    assert wanted | {"sharded.actor_wait"} <= names
    for spans in actor_spans:
        assert {"reader.open", "ranked.exact"} <= {s[trace.NAME] for s in spans}
    # a shard fetches postings only for the query terms it owns
    assert any(s[trace.NAME] == "reader.get_postings"
               for spans in actor_spans for s in spans)
