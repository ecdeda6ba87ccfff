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
        of a multi-shard index."""
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


class TestDocWeights:
    """The build writes doc_length / l_d once, as two dense arrays in
    docweights/; the reader memory-maps them and writes nothing."""

    def test_arrays_match_oracle(self, built_index, oracle):
        from searchengine_ray.layout import docweights_paths

        index_dir, _ = built_index
        dl_p, ld_p = docweights_paths(index_dir)
        dl, ld = np.load(dl_p), np.load(ld_p)
        assert dl.shape == ld.shape == (oracle.num_docs,)
        assert dl.dtype == np.int64 and ld.dtype == np.float64
        assert dl.tolist() == [oracle.doc_length[d]
                               for d in range(oracle.num_docs)]
        assert ld == pytest.approx(
            [oracle.l_d[d] for d in range(oracle.num_docs)], rel=1e-12)

    def test_queries_leave_index_untouched(self, ray_session, small_corpus,
                                           tmp_path):
        """A fresh index that no reader has opened: a QueryEngine and
        every query kind change no path, size or mtime under it."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index
        from searchengine_ray.query.engine import QueryEngine

        index_dir = str(tmp_path / "fresh")
        build_index(ray.data.from_arrow(small_corpus.slice(0, 60)),
                    index_dir, IndexBuildConfig(num_buckets=4, skip_block=8),
                    input_description="fresh60")

        def snapshot():
            out = {}
            for root, dirs, files in os.walk(index_dir):
                for name in dirs + files:
                    path = os.path.join(root, name)
                    st_ = os.stat(path)
                    out[path] = (st_.st_size, st_.st_mtime_ns)
            return out

        before = snapshot()
        eng = QueryEngine(index_dir)
        for q in RANKED_QUERIES:
            eng.ranked_query(q, use_okapi=True, use_wand=False)
            eng.ranked_query(q, use_okapi=True, use_wand=True)
            eng.ranked_query(q, use_okapi=False)
        hits = []
        for q in BOOL_QUERIES:
            hits.extend(eng.boolean_query(q).tolist())
        assert hits
        eng.titles(hits[:20])
        assert snapshot() == before

    @staticmethod
    def _clone(built_index, tmp_path, edit):
        import shutil

        from searchengine_ray.layout import docweights_paths

        index_dir, _ = built_index
        clone = str(tmp_path / "torn")
        shutil.copytree(index_dir, clone)
        path = docweights_paths(clone)[1]
        edit(path)
        return clone, path

    def test_missing_array_refused(self, built_index, tmp_path):
        from searchengine_ray.query.reader import DiskIndexReader

        clone, path = self._clone(built_index, tmp_path, os.remove)
        with pytest.raises(ValueError, match="missing") as e:
            DiskIndexReader(clone)
        assert path in str(e.value)

    @pytest.mark.parametrize("keep", [8, -8])
    def test_truncated_array_refused(self, built_index, tmp_path, keep):
        """Cut inside the .npy header (8 B left) or inside its data
        (8 B short)."""
        from searchengine_ray.query.reader import DiskIndexReader

        def truncate(path):
            os.truncate(path, keep if keep > 0
                        else os.path.getsize(path) + keep)

        clone, path = self._clone(built_index, tmp_path, truncate)
        with pytest.raises(ValueError, match="torn") as e:
            DiskIndexReader(clone)
        assert path in str(e.value)


class TestDocStatsSidecars:
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

    @staticmethod
    def _assert_format_refused(built_index, tmp_path, fmt):
        import json
        import shutil

        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        clone = str(tmp_path / f"v{fmt}")
        shutil.copytree(index_dir, clone)
        mpath = os.path.join(clone, "manifest.json")
        with open(mpath) as f:
            m = json.load(f)
        m["segment_format"] = fmt
        with open(mpath, "w") as f:
            json.dump(m, f)
        with pytest.raises(ValueError, match=f"format {fmt}.*rebuild"):
            DiskIndexReader(clone)

    def test_segment_format_v7_refused(self, built_index, tmp_path):
        """A v7 index (skip offsets stored in the catalog, snappy files)
        is refused with "rebuild", not read with v8 offsets."""
        self._assert_format_refused(built_index, tmp_path, 7)

    def test_segment_format_v8_refused(self, built_index, tmp_path):
        """A v8 index (VByte position streams, float64 wdt bounds) is
        refused with "rebuild", not read as bit-packed positions and
        uint8 bounds."""
        self._assert_format_refused(built_index, tmp_path, 8)

    def test_segment_format_v9_refused(self, built_index, tmp_path):
        """A v9 index (VByte doc streams, stored ``skip_last_doc``, no
        segment doc ranges) is refused with "rebuild", not read as
        Elias–Fano doc streams."""
        self._assert_format_refused(built_index, tmp_path, 9)

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

class TestSegmentBin:
    """Format v6: postings live in one byte-addressed ``.bin`` per
    segment, fetched by ``os.pread``."""

    @staticmethod
    def _clone_with_bin(built_index, tmp_path, edit):
        import shutil

        from searchengine_ray.layout import segment_bin_path

        index_dir, manifest = built_index
        clone = str(tmp_path / "torn")
        shutil.copytree(index_dir, clone)
        path = segment_bin_path(os.path.join(
            clone, "segments", manifest["segments"][0]["file"]))
        edit(path)
        return clone, path

    def test_truncated_bin_refused(self, built_index, tmp_path):
        from searchengine_ray.query.reader import DiskIndexReader

        def truncate(path):
            os.truncate(path, os.path.getsize(path) - 1)

        clone, path = self._clone_with_bin(built_index, tmp_path, truncate)
        with pytest.raises(ValueError, match="torn") as e:
            DiskIndexReader(clone)
        assert path in str(e.value)

    def test_missing_bin_refused(self, built_index, tmp_path):
        from searchengine_ray.query.reader import DiskIndexReader

        clone, path = self._clone_with_bin(built_index, tmp_path, os.remove)
        with pytest.raises(ValueError, match="missing") as e:
            DiskIndexReader(clone)
        assert path in str(e.value)

    def test_flipped_width_byte_refused(self, built_index, tmp_path):
        """Format v9: a position stream whose width byte disagrees with
        its length is refused by a phrase fetch with "rebuild", never
        decoded to wrong positions.  The fragment has cf >= 8, so any
        other width changes its byte count; its doc and tf streams are
        untouched, so the fetch without positions still reads."""
        import shutil

        from searchengine_ray.layout import segment_bin_path
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        clone = str(tmp_path / "flipped")
        shutil.copytree(index_dir, clone)
        r = DiskIndexReader(clone)
        term, fr = next((t, f) for t in r.get_vocabulary()
                        for f in r.fragments(t) if f.cf >= 8)
        want = r.fetch_postings(term)
        with open(segment_bin_path(r._files[fr.file_idx]), "r+b") as f:
            f.seek(fr.offset + fr.doc_len + fr.tf_len)
            width = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([width ^ 1]))
        r = DiskIndexReader(clone)
        with pytest.raises(ValueError, match="torn.*rebuild"):
            r.fetch_postings(term, with_positions=True)
        got = r.fetch_postings(term)
        assert np.array_equal(got.doc_ids, want.doc_ids)
        assert np.array_equal(got.tftds, want.tftds)

    def test_flipped_high_bits_byte_refused(self, built_index, tmp_path):
        """Format v10: a doc stream whose high bits no longer hold one
        one per posting is refused by a fetch, with or without
        positions, and by WAND's block index, with "rebuild", never
        decoded to wrong doc ids.  The flipped byte lies wholly inside
        the high bits and does not hold four ones, so inverting it
        changes their count."""
        import shutil

        from searchengine_ray import eliasfano
        from searchengine_ray.layout import segment_bin_path
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        clone = str(tmp_path / "flipped_high")
        shutil.copytree(index_dir, clone)
        r = DiskIndexReader(clone)

        def high_byte(fr):
            low, high, _ = eliasfano.params(fr.df, fr.u)
            buf = r.read_fragment_row(fr)
            for k in range(-(-fr.df * low // 8),
                           (fr.df * low + high) // 8):
                if bin(buf[k]).count("1") != 4:
                    return k
            return None

        term, fr, k = next((t, f, high_byte(f))
                           for t in r.get_vocabulary()
                           for f in r.fragments(t)
                           if high_byte(f) is not None)
        with open(segment_bin_path(r._files[fr.file_idx]), "r+b") as f:
            f.seek(fr.offset + k)
            byte = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte ^ 0xFF]))
        r = DiskIndexReader(clone)
        for with_positions in (False, True):
            with pytest.raises(ValueError, match="torn.*rebuild"):
                r.fetch_postings(term, with_positions)
        with pytest.raises(ValueError, match="torn.*rebuild"):
            r.skip_lists(fr, r.read_fragment_row(fr))

    def test_postings_equal_docterms_every_term(self, built_index):
        """Content parity of the exchange: for every term, the postings
        the reader decodes (doc ids, tf, positions) are exactly the
        postings of the docterms fragments the exchange consumed, each
        fragment decoded here on its own (first doc id absolute, tf==1
        folded into the doc stream, per-posting position gaps)."""
        import pyarrow.parquet as pq

        from searchengine_ray import vbyte
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, _ = built_index
        tbl = pq.read_table(
            os.path.join(index_dir, "docterms"),
            columns=["term", "df", "blob", "tf_blob", "pos_blob"])
        want: dict = {}
        for t, df, blob, tf_blob, pos_blob in zip(
                *(tbl.column(c).to_pylist() for c in tbl.column_names)):
            vals = vbyte.decode(blob, count=df).astype(np.int64)
            tfs = np.ones(df, dtype=np.int64)
            exc = (vals & 1) == 0
            tfs[exc] = vbyte.decode(tf_blob, count=int(exc.sum()))
            gaps = vbyte.decode(pos_blob, count=int(tfs.sum()))
            for d, tf, g in zip(np.cumsum(vals >> 1).tolist(), tfs.tolist(),
                                np.split(gaps.astype(np.int64),
                                         np.cumsum(tfs)[:-1])):
                want.setdefault(t, []).append((d, tf, np.cumsum(g).tolist()))
        r = DiskIndexReader(index_dir)
        assert r.get_vocabulary() == sorted(want)
        for term, rows in want.items():
            rows.sort()
            pl = r.fetch_postings(term, with_positions=True)
            assert pl.doc_ids.tolist() == [d for d, _, _ in rows], term
            assert pl.tftds.tolist() == [tf for _, tf, _ in rows], term
            assert pl.positions.tolist() == [
                p for _, _, ps in rows for p in ps], term
            bare = r.fetch_postings(term)
            assert np.array_equal(bare.doc_ids, pl.doc_ids)
            assert np.array_equal(bare.tftds, pl.tftds)

    def test_posting_cache_bounded_by_bytes(self, built_index, monkeypatch):
        from searchengine_ray.query import reader as reader_mod

        index_dir, _ = built_index
        budget = 4 << 10
        monkeypatch.setattr(reader_mod, "POSTING_CACHE_BYTES", budget)
        r = reader_mod.DiskIndexReader(index_dir)
        vocab = r.get_vocabulary()
        big = max(vocab, key=r.cf)
        assert reader_mod._nbytes(
            r.fetch_postings(big, with_positions=True)) > budget
        for i, term in enumerate(vocab + [big]):
            pos = i % 2 == 0
            got = r.get_postings(term, with_positions=pos)
            want = r.fetch_postings(term, with_positions=pos)
            assert np.array_equal(got.doc_ids, want.doc_ids)
            assert np.array_equal(got.tftds, want.tftds)
            if pos:
                assert np.array_equal(got.positions, want.positions)
            assert r._cache_bytes <= budget
            assert r._cache_bytes == sum(
                reader_mod._nbytes(v) for v in r._cache.values())
        # entries were evicted by bytes, far below the 1,024-entry cap,
        # and a list larger than the whole budget is served uncached
        assert 0 < len(r._cache) < len(vocab)
        r.get_postings(big, with_positions=True)
        assert (big, True) not in r._cache


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



def test_query_path_imports_no_ray_data():
    """The query modules take the index's shared names from
    ``searchengine_ray.layout``, so a query process or shard actor never
    imports Ray Data (``build.py`` does)."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, searchengine_ray.query.sharded, "
         "searchengine_ray.query.spelling; "
         "print('ray.data' in sys.modules, "
         "'searchengine_ray.build' in sys.modules)"],
        cwd=root, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
