"""End-to-end query conformance: the distributed index + query engine vs
the independent in-memory oracle (tests/oracle.py) on a 300-doc corpus.

Covers: Boolean AND/OR/NOT/phrase (J1-J4), ranked tf-idf + BM25 (§2.6),
WAND-vs-exact rank identity, df/vocabulary/doc-stats parity.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from searchengine_ray.porter2 import stem

BOOL_QUERIES = [
    "search",
    "search engine",
    "search + engine",
    "search -engine",
    "tokenize index + engine -search",
    '"search engine"',
    '"def return"',
    "running",            # stems to 'run' at parse time
    "zzznotaterm",
    'engine "foo bar"',
]

RANKED_QUERIES = [
    "search engine",
    "def return import",
    "tokenize",
    "self lambda yield async await",
    "if else elif while for in",
    "engine engine engine",
    "SEARCH Engine",
    "running",            # T9: not stemmed -> matches nothing
    "zzznotaterm search",
]


def boolean_oracle(oracle, raw):
    """Evaluate the surface grammar with set algebra over the oracle."""
    groups = [g for g in raw.split("+") if g.strip()]
    result = set()
    for g in groups:
        acc = None
        i, n = 0, len(g)
        while i < n:
            if g[i] == " ":
                i += 1
                continue
            neg = False
            if g[i] == "-":
                neg = True
                i += 1
            from searchengine_ray.tokenizer import process_query_terms

            if i < n and g[i] == '"':
                end = g.find('"', i + 1)
                terms = process_query_terms(g[i + 1:end])
                docs = oracle.docs_with_phrase(terms)
                i = end + 1
            else:
                end = g.find(" ", i)
                end = n if end < 0 else end
                word = g[i:end]
                i = end
                processed = " ".join(process_query_terms(word))
                docs = oracle.docs_with_term(processed)
            if acc is None:
                # reference quirk: a leading NotQuery's postings are its
                # child's (andquery.py:15 starts from components[0] as-is)
                acc = docs
            else:
                acc = (acc - docs) if neg else (acc & docs)
        result |= acc or set()
    return result


class TestBoolean:
    @pytest.mark.parametrize("q", BOOL_QUERIES)
    def test_matches_oracle(self, engine, oracle, q):
        got = set(int(d) for d in engine.boolean_query(q))
        want = boolean_oracle(oracle, q)
        assert got == want

    def test_results_sorted(self, engine):
        docs = engine.boolean_query("search + engine")
        assert np.all(np.diff(docs) > 0)


class TestRanked:
    @pytest.mark.parametrize("q", RANKED_QUERIES)
    @pytest.mark.parametrize("use_okapi", [True, False])
    def test_exact_matches_oracle(self, engine, oracle, q, use_okapi):
        got = engine.ranked_query(q, use_okapi=use_okapi, top_k=20, use_wand=False)
        want = oracle.rank(q, use_okapi=use_okapi, top_k=20)
        assert len(got) == len(want)
        for (gd, gs), (wd, ws) in zip(got, want):
            assert gd == wd
            assert gs == pytest.approx(ws, rel=1e-12)

    @pytest.mark.parametrize("q", RANKED_QUERIES)
    def test_wand_identical_to_exact(self, engine, q):
        exact = engine.ranked_query(q, use_okapi=True, top_k=10, use_wand=False)
        wand = engine.ranked_query(q, use_okapi=True, top_k=10, use_wand=True)
        assert len(exact) == len(wand)
        for (ed, es), (wd, ws) in zip(exact, wand):
            assert ed == wd
            assert es == pytest.approx(ws, abs=1e-9)

    @pytest.mark.parametrize(
        "q", RANKED_QUERIES + ["apostroph data import quot"])
    def test_wand_scores_bit_equal_to_exact(self, engine, q):
        """WAND sums a doc's term weights in query-term order with the
        exact scorer's arithmetic, so scores are bit-equal and tied scores
        order alike.  "apostroph data import quot" has a three-way tie at
        rank 8 that another summation order split by one ulp."""
        for k in (10, 15):
            assert (engine.ranked_query(q, True, k, use_wand=True)
                    == engine.ranked_query(q, True, k, use_wand=False))

    def test_returns_all_when_no_topk(self, engine, oracle):
        got = engine.ranked_query("search", use_okapi=True, top_k=None)
        assert len(got) == len(oracle.rank("search", True))


class TestIndexParity:
    def test_vocabulary(self, engine, oracle):
        assert engine.index.get_vocabulary() == sorted(oracle.index.keys())

    def test_df_and_cf(self, engine, oracle):
        for term in ["search", "engine", "def", "import", "run"]:
            postings = oracle.index.get(term, {})
            assert engine.index.df(term) == len(postings)
            assert engine.index.cf(term) == sum(len(v) for v in postings.values())

    def test_term_stats_vectorized(self, engine, oracle):
        """The reduceat-based term_stats() must agree with per-term
        df()/cf() (which sum Fragment objects) over the WHOLE vocabulary
        of a multi-shard, salted index."""
        terms, df, cf = engine.index.term_stats()
        assert terms == sorted(oracle.index.keys())
        for i, t in enumerate(terms):
            postings = oracle.index[t]
            assert df[i] == len(postings), t
            assert cf[i] == sum(len(v) for v in postings.values()), t

    def test_doc_stats(self, engine, oracle):
        for d in range(0, oracle.num_docs, 37):
            assert engine.index.get_document_length(d) == oracle.doc_length[d]
            assert engine.index.l_d[d] == pytest.approx(oracle.l_d[d], rel=1e-12)
        assert engine.index.num_docs == oracle.num_docs
        assert engine.index.total_tokens == oracle.total_tokens
        assert engine.index.avg_doc_length == pytest.approx(oracle.avg_doc_length)

    def test_positions_parity(self, engine, oracle):
        for term in ["search", "engine", "def"]:
            pl = engine.index.get_postings(term, with_positions=True)
            want = oracle.index.get(term, {})
            assert pl.doc_ids.tolist() == sorted(want)
            for i, d in enumerate(pl.doc_ids.tolist()):
                assert pl.positions_of(i).tolist() == want[d]


class TestDocStatsSidecars:
    def test_memmap_sidecars_and_fingerprint_guard(self, built_index, oracle):
        """Readers share write-once .npy sidecars; a stale fingerprint
        marker (e.g. after an index rebuild) forces re-derivation."""
        import os

        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        r1 = DiskIndexReader(index_dir)
        cache = os.path.join(index_dir, "docstats_cache")
        assert os.path.exists(os.path.join(cache, "doc_length.npy"))
        assert os.path.exists(os.path.join(cache, "_FINGERPRINT"))
        # values match the independent oracle through the memmap
        for d in range(0, oracle.num_docs, 53):
            assert r1.get_document_length(d) == oracle.doc_length[d]
        # second reader reuses the files (marker untouched)
        before = os.path.getmtime(os.path.join(cache, "doc_length.npy"))
        r2 = DiskIndexReader(index_dir)
        assert os.path.getmtime(
            os.path.join(cache, "doc_length.npy")) == before
        assert r2.get_document_length(7) == r1.get_document_length(7)
        # stale marker -> rebuild, same values
        with open(os.path.join(cache, "_FINGERPRINT"), "w") as f:
            f.write("stale")
        r3 = DiskIndexReader(index_dir)
        assert open(os.path.join(cache, "_FINGERPRINT")).read() != "stale"
        assert r3.get_document_length(7) == r1.get_document_length(7)

    def test_readonly_dir_falls_back_to_memory(self, built_index,
                                                monkeypatch, oracle):
        """ADVICE r3: a reader on a read-only index dir (ro-mounted
        shared artifact) must serve from in-memory stats instead of
        crashing in the sidecar build."""
        import shutil

        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        shutil.rmtree(os.path.join(index_dir, "docstats_cache"),
                      ignore_errors=True)
        monkeypatch.setattr(
            DiskIndexReader, "_build_sidecars",
            lambda self, *a, **k: (_ for _ in ()).throw(
                OSError("read-only file system")),
        )
        r = DiskIndexReader(index_dir)
        for d in range(0, oracle.num_docs, 53):
            assert r.get_document_length(d) == oracle.doc_length[d]

    def test_segment_format_mismatch_raises(self, built_index, tmp_path):
        """ADVICE r3: an index written by a pre-v3 layout fails with a
        clear 'rebuild required' error, not a missing-column crash."""
        import json
        import shutil

        import pytest as _pytest

        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        clone = str(tmp_path / "oldfmt")
        shutil.copytree(index_dir, clone)
        mpath = os.path.join(clone, "manifest.json")
        with open(mpath) as f:
            m = json.load(f)
        m.pop("segment_format", None)
        with open(mpath, "w") as f:
            json.dump(m, f)
        with _pytest.raises(ValueError, match="rebuild"):
            DiskIndexReader(clone)

    def test_get_titles_more_than_cache_capacity(self, built_index):
        """ADVICE r3: one call requesting more distinct ids than the
        title-LRU capacity must not KeyError (eviction used to run
        before the return lookup), and absent ids get a placeholder."""
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        r = DiskIndexReader(index_dir, cache_size=4)  # capacity 16 titles
        ids = list(range(100))
        titles = r.get_titles(ids)
        assert len(titles) == 100
        assert all(t for t in titles)
        # an id beyond the corpus resolves to a placeholder, not a crash
        assert r.get_titles([10**9]) == [f"<doc {10**9}>"]

    def test_lazy_titles_batch(self, engine):
        """get_titles point-reads must agree with a direct scan of the
        docstats parquet (the lazy path replaced a resident array)."""
        import pyarrow.parquet as pq

        tbl = pq.read_table(engine.index._docstats_dir,
                            columns=["doc_id", "title"])
        want = dict(zip(tbl.column("doc_id").to_pylist(),
                        tbl.column("title").to_pylist()))
        ids = sorted(want)[::41]
        titles = engine.index.get_titles(ids)
        assert titles == [want[d] for d in ids]
        # single lookup hits the cache path
        assert engine.index.get_title(ids[0]) == titles[0]

class TestRandomizedQueries:
    """Property fuzz of the full query surface vs the in-memory oracle:
    random Boolean compositions (groups, negation incl. the leading-NOT
    quirk, phrases) and random ranked queries, drawn from the corpus's
    own vocabulary plus unknown words.  Extends the fixed-query
    conformance tables above with generative coverage."""

    @staticmethod
    def _pool(oracle):
        # grammar-safe vocabulary sample: strictly alnum so the surface
        # split on '+'/'-'/quotes cannot disagree between the engine
        # parser and the test's set-algebra evaluator
        vocab = [t for t in sorted(oracle.index) if t.isalnum()]
        return vocab[::5][:80] + ["zzznotaterm", "qqqmissing"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_boolean_random_vs_oracle(self, engine, oracle, data):
        pool = self._pool(oracle)
        groups = []
        for _ in range(data.draw(st.integers(1, 3), label="n_groups")):
            items = []
            for i in range(data.draw(st.integers(1, 4), label="n_items")):
                kind = data.draw(
                    st.sampled_from(["word", "neg", "phrase"]), label="kind")
                if kind == "phrase":
                    ws = data.draw(
                        st.lists(st.sampled_from(pool), min_size=2,
                                 max_size=3), label="phrase")
                    items.append('"' + " ".join(ws) + '"')
                else:
                    w = data.draw(st.sampled_from(pool), label="word")
                    items.append(("-" if kind == "neg" else "") + w)
            groups.append(" ".join(items))
        q = " + ".join(groups)
        got = set(int(d) for d in engine.boolean_query(q))
        assert got == boolean_oracle(oracle, q), q

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ranked_random_vs_oracle(self, engine, oracle, data):
        pool = self._pool(oracle)
        q = " ".join(data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=5),
            label="terms"))
        use_okapi = data.draw(st.booleans(), label="okapi")
        got = engine.ranked_query(q, use_okapi=use_okapi, top_k=15,
                                  use_wand=False)
        want = oracle.rank(q, use_okapi=use_okapi, top_k=15)
        assert len(got) == len(want), q
        for (gd, gs), (wd, ws) in zip(got, want):
            assert gd == wd, q
            assert gs == pytest.approx(ws, rel=1e-12), q
        if use_okapi:
            wand = engine.ranked_query(q, use_okapi=True, top_k=15,
                                       use_wand=True)
            assert [d for d, _ in wand] == [d for d, _ in got], q

