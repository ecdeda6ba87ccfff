"""Build pipeline invariants: deterministic doc ids, sha256 row invariant,
manifest metrics, resume-from-checkpoint semantics."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st


class TestDocIds:
    def test_dense_and_key_ordered(self, ray_session, small_corpus):
        import ray.data

        from searchengine_ray.ids import assign_doc_ids

        ds = ray.data.from_arrow(small_corpus).repartition(5)
        out = assign_doc_ids(ds).to_pandas().sort_values("doc_id")
        n = len(small_corpus)
        assert list(out["doc_id"]) == list(range(n))
        keys = list(zip(out["repo"], out["path"], out["commit"]))
        assert keys == sorted(keys)

    def test_independent_of_partitioning(self, ray_session, small_corpus):
        import ray.data

        from searchengine_ray.ids import assign_doc_ids

        a = (
            assign_doc_ids(ray.data.from_arrow(small_corpus).repartition(2))
            .to_pandas()
            .sort_values("path")
        )
        b = (
            assign_doc_ids(ray.data.from_arrow(small_corpus).repartition(9))
            .to_pandas()
            .sort_values("path")
        )
        assert list(a["doc_id"]) == list(b["doc_id"])

    def test_boundary_sample_independent_of_rows(self, ray_session):
        """VERDICT r3 #3 + r4 #6: the driver-side boundary sample is ONE
        pass (no count) holding O(blocks) weighted keys, not O(corpus) —
        the same block config yields the same bounded sample size at 10x
        the rows, and the weights sum to the row count exactly."""
        import pyarrow as pa
        import ray.data

        from searchengine_ray.ids import DEFAULT_KEY, boundary_sample

        def make(n):
            tbl = pa.table(
                {
                    "repo": pa.array([f"r{i % 13}" for i in range(n)]),
                    "path": pa.array([f"f{i:06d}" for i in range(n)]),
                    "commit": pa.array(["c"] * n),
                }
            )
            return ray.data.from_arrow(tbl).repartition(8)

        per_block = 16
        small, w_small = boundary_sample(make(5_000), DEFAULT_KEY, per_block)
        big, w_big = boundary_sample(make(50_000), DEFAULT_KEY, per_block)
        # bounded per block (the streaming executor may rebatch 8
        # partitions into somewhat more map batches, never more than 2x)
        cap = per_block * 16
        assert len(small) <= cap
        assert len(big) <= cap
        # the sample is a sorted key list usable for boundaries, and its
        # weights account for every row exactly once
        assert big == sorted(big)
        assert w_small.sum() == 5_000
        assert w_big.sum() == 50_000

    def test_200k_rows_vectorized(self, ray_session):
        """VERDICT r1 #7 'done' criterion: dense key-ordered ids at 200k
        rows through the vectorized key/bucket path."""
        import numpy as np
        import pyarrow as pa
        import ray.data

        from searchengine_ray.ids import assign_doc_ids

        n = 200_000
        rng = np.random.default_rng(3)
        perm = rng.permutation(n)
        tbl = pa.table(
            {
                "repo": pa.array([f"r{i % 97:03d}" for i in perm]),
                "path": pa.array([f"src/f{i:07d}.py" for i in perm]),
                "commit": pa.array(["c0"] * n),
                "content": pa.array(["x"] * n),
            }
        )
        out = (
            assign_doc_ids(ray.data.from_arrow(tbl).repartition(16))
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(out["doc_id"]) == list(range(n))
        keys = list(zip(out["repo"], out["path"], out["commit"]))
        assert keys == sorted(keys)


class TestBuildArtifacts:
    def test_manifest_counts(self, built_index, oracle):
        _, manifest = built_index
        assert manifest["num_docs"] == oracle.num_docs
        assert manifest["total_tokens"] == oracle.total_tokens

    def test_manifest_exchange_plan(self, built_index):
        """The segments stage records its scheduling decisions (map /
        reducer counts, task CPU slots, docterms bytes) so scaling-run
        cohorts can be audited post hoc; tiny test corpora are far
        below the 96 MB/CPU bandwidth-sharing threshold, so the plan
        must have picked 1 CPU slot per exchange task."""
        _, manifest = built_index
        plan = manifest["exchange_plan"]
        assert plan["num_maps"] >= 1
        assert plan["num_reducers"] >= 1
        assert plan["task_cpus"] == 1
        assert plan["docterms_bytes"] > 0

    def test_sha256_invariant(self, built_index, small_corpus):
        index_dir, _ = built_index
        stats = pq.read_table(
            os.path.join(index_dir, "docstats"), columns=["doc_id", "sha256"]
        ).to_pylist()
        rows = small_corpus.to_pylist()
        rows.sort(key=lambda r: (r["repo"], r["path"], r["commit"]))
        want = {
            i: hashlib.sha256(r["content"].encode()).hexdigest()
            for i, r in enumerate(rows)
        }
        assert len(stats) == len(rows)
        for rec in stats:
            assert rec["sha256"] == want[rec["doc_id"]]

    def test_heavy_tree_reduce_matches_driver_sum(
        self, built_index, monkeypatch
    ):
        """VERDICT r3 #8: above the vocab threshold, heavy-hitter
        detection tree-reduces in remote tasks and the driver receives
        only the heavy set — and the result is identical to the
        driver-sum path."""
        import searchengine_ray.build as b

        index_dir, _ = built_index
        docterms = os.path.join(index_dir, "docterms")
        cfg = b.IndexBuildConfig(heavy_df_threshold=50)
        driver_path = b.detect_heavy_terms(docterms, cfg)
        monkeypatch.setattr(b, "HEAVY_TREE_ROWS", 0)  # force the tree
        tree_path = b.detect_heavy_terms(docterms, cfg)
        assert driver_path == tree_path
        assert tree_path  # threshold=50 over 300 docs salts something

    def test_heavy_tree_root_filters_synthetic_million_vocab(
        self, ray_session
    ):
        """The tree root returns O(heavy) rows from a 10^6-term vocab
        split across partials: the driver never sees the vocabulary."""
        import ray

        import searchengine_ray.build as b

        n_terms, n_parts = 1_000_000, 8
        heavy_terms = {f"hh_{i}": 5_000 + i for i in range(20)}
        parts = []
        for p in range(n_parts):
            terms = [f"t{p}_{i:06d}" for i in range(n_terms // n_parts)]
            ns = np.ones(len(terms), dtype=np.int64)
            # every partial also carries a share of each heavy term
            terms += list(heavy_terms)
            ns = np.concatenate(
                [ns, np.array([v // n_parts + 1 for v in
                               heavy_terms.values()], dtype=np.int64)])
            parts.append(ray.put(pa.table(
                {"term": pa.array(terms), "n": pa.array(ns)})))
        refs = parts
        while len(refs) > 1:
            refs = [
                b._merge_counts.remote(*refs[i:i + b._HEAVY_TREE_FANIN])
                for i in range(0, len(refs), b._HEAVY_TREE_FANIN)
            ]
        root = ray.get(b._filter_heavy.remote(refs[0], 4_000))
        got = dict(zip(root.column("term").to_pylist(),
                       root.column("n").to_pylist()))
        want = {t: (v // n_parts + 1) * n_parts
                for t, v in heavy_terms.items()}
        assert got == want  # exactly the heavy set, nothing else

    def test_heavy_terms_were_salted(self, built_index, engine):
        _, manifest = built_index
        # threshold=50 on a 45-word pool over 300 docs must salt something
        assert manifest["heavy_terms"]
        term = next(iter(manifest["heavy_terms"]))
        frags = engine.index.fragments(term)
        assert len(frags) > 1
        # fragments are doc-range disjoint and ordered
        pl = engine.index.get_postings(term)
        assert all(b > a for a, b in zip(pl.doc_ids, pl.doc_ids[1:]))

    def test_segment_lineage_recorded(self, built_index):
        index_dir, manifest = built_index
        for seg in manifest["segments"]:
            assert os.path.exists(os.path.join(index_dir, "segments", seg["file"]))
            assert seg["rows"] > 0

    def test_streaming_exchange_segment_parity(
        self, ray_session, small_corpus, built_index, tmp_path,
        monkeypatch,
    ):
        """VERDICT r3 #2 lever: the streaming reduce path (reducers
        launched with the maps, ray.wait-fed unpack) must produce
        byte-identical segments to the barrier path regardless of the
        order map outputs land in."""
        import hashlib

        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        index_dir, _ = built_index
        monkeypatch.setenv("SE_RAY_EXCHANGE_STREAMING", "1")
        stream_dir = str(tmp_path / "streamed")
        cfg = IndexBuildConfig(
            num_buckets=4,
            tokenize_concurrency=(1, 2),
            skip_block=8,
            heavy_df_threshold=50,
            docs_per_shard=128,
        )
        ds = ray.data.from_arrow(small_corpus).repartition(4)
        build_index(ds, stream_dir, cfg, input_description="test300")

        def seg_hash(d):
            segs = sorted(
                f for f in os.listdir(os.path.join(d, "segments"))
                if f.endswith(".parquet")
            )
            h = hashlib.sha256()
            for s in segs:
                t = pq.read_table(os.path.join(d, "segments", s))
                t = t.take(pc.sort_indices(t, sort_keys=[
                    ("term", "ascending"), ("shard", "ascending"),
                    ("bucket", "ascending"), ("salt", "ascending")]))
                for col in sorted(t.column_names):
                    h.update(str(t.column(col).to_pylist()).encode())
            return len(segs), h.hexdigest()

        assert seg_hash(stream_dir) == seg_hash(index_dir)


class TestResume:
    def test_rerun_skips_completed_stages(
        self, ray_session, small_corpus, built_index
    ):
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        index_dir, manifest = built_index
        cfg = IndexBuildConfig(**{
            k: (tuple(v) if k == "tokenize_concurrency" else v)
            for k, v in manifest["config"].items()
        })
        before = {
            f: os.path.getmtime(os.path.join(index_dir, "segments", f))
            for f in os.listdir(os.path.join(index_dir, "segments"))
        }
        ds = ray.data.from_arrow(small_corpus).repartition(4)
        m2 = build_index(ds, index_dir, cfg, input_description="test300")
        after = {
            f: os.path.getmtime(os.path.join(index_dir, "segments", f))
            for f in os.listdir(os.path.join(index_dir, "segments"))
        }
        assert before == after  # nothing rebuilt
        assert m2["num_docs"] == manifest["num_docs"]

    def test_interrupted_segment_stage_resumes(self, ray_session, tmp_path):
        """Mid-build crash between the two checkpoints: docterms stage
        committed, segments stage interrupted (its marker and output
        gone).  The re-run must skip tokenize entirely — the docterms
        and docstats files stay byte-untouched on disk — and rebuild
        only the exchange, landing on segment content identical to the
        uninterrupted build (the exchange is deterministic)."""
        import shutil

        import pyarrow.compute as pc
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index
        from searchengine_ray.corpus import synthetic_corpus_table

        tbl = synthetic_corpus_table(60, seed=11)
        d = str(tmp_path / "idx")
        cfg = IndexBuildConfig(num_buckets=2, tokenize_concurrency=(1, 2))
        ds = ray.data.from_arrow(tbl)
        m1 = build_index(ds, d, cfg, input_description="crash-test")

        def seg_digest():
            segdir = os.path.join(d, "segments")
            h = hashlib.sha256()
            for fn in sorted(f for f in os.listdir(segdir)
                             if f.endswith(".parquet")):
                t = pq.read_table(os.path.join(segdir, fn))
                t = t.take(pc.sort_indices(t, sort_keys=[
                    ("term", "ascending"), ("shard", "ascending"),
                    ("bucket", "ascending"), ("salt", "ascending")]))
                for col in sorted(t.column_names):
                    h.update(str(t.column(col).to_pylist()).encode())
            return h.hexdigest()

        digest1 = seg_digest()

        def tree_mtimes(sub):
            root = os.path.join(d, sub)
            return {f: os.path.getmtime(os.path.join(root, f))
                    for f in os.listdir(root)}

        dt_before = tree_mtimes("docterms")
        st_before = tree_mtimes("docstats")

        # simulate the crash: segments stage never committed
        os.remove(os.path.join(d, "_STAGE_segments.json"))
        shutil.rmtree(os.path.join(d, "segments"))

        m2 = build_index(ds, d, cfg, input_description="crash-test")

        assert tree_mtimes("docterms") == dt_before  # tokenize skipped
        assert tree_mtimes("docstats") == st_before
        assert seg_digest() == digest1               # exchange rebuilt =
        assert m2["num_docs"] == m1["num_docs"]
        assert m2["total_tokens"] == m1["total_tokens"]

    def test_changed_fingerprint_rebuilds(self, ray_session, tmp_path):
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index
        from searchengine_ray.corpus import synthetic_corpus_table

        tbl = synthetic_corpus_table(40, seed=3)
        d = str(tmp_path / "idx")
        cfg = IndexBuildConfig(num_buckets=2, tokenize_concurrency=(1, 2))
        ds = ray.data.from_arrow(tbl)
        build_index(ds, d, cfg, input_description="v1")
        marker = json.load(open(os.path.join(d, "_STAGE_docterms.json")))
        assert "v1" in marker["fingerprint"]
        build_index(ds, d, cfg, input_description="v2")
        marker2 = json.load(open(os.path.join(d, "_STAGE_docterms.json")))
        assert "v2" in marker2["fingerprint"]


class TestTfStreamPaths:
    def test_tf_over_127_takes_vbyte_path(self, ray_session, tmp_path):
        """A tftd >= 128 forces the general VByte tf stream (the common
        all-tf<128 case stores raw low bytes with offsets == posting
        indices); both paths must decode to exact tftds."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index
        from searchengine_ray.query.reader import DiskIndexReader

        docs = [
            ("o/r", "a.py", "c1", "python", "zebra " * 200 + "apple"),
            ("o/r", "b.py", "c2", "python", "apple zebra apple"),
            ("o/r", "c.py", "c3", "python", "plain words here"),
        ]
        tbl = pa.table({
            "repo": [d[0] for d in docs],
            "path": [d[1] for d in docs],
            "commit": [d[2] for d in docs],
            "lang": [d[3] for d in docs],
            "content": [d[4] for d in docs],
        })
        d = str(tmp_path / "idx_bigtf")
        cfg = IndexBuildConfig(num_buckets=2, tokenize_concurrency=(1, 2),
                               skip_block=8)
        build_index(ray.data.from_arrow(tbl), d, cfg,
                    input_description="bigtf")
        r = DiskIndexReader(d)
        pl = r.get_postings("zebra", with_positions=True)
        assert sorted(pl.tftds.tolist(), reverse=True)[0] == 200
        assert pl.tftds.sum() == r.cf("zebra")
        doc_of_200 = pl.doc_ids[pl.tftds.tolist().index(200)]
        # positions round-trip through the pos stream for the fat posting
        offs = pl.pos_offsets
        i = pl.doc_ids.tolist().index(doc_of_200)
        pos = pl.positions[offs[i]:offs[i + 1]]
        assert len(pos) == 200
        assert (np.diff(pos) > 0).all()
        # the sibling plain-path term in the same index decodes too
        pl2 = r.get_postings("appl")   # analyzer stems apple -> appl
        assert pl2.tftds.tolist() == [1, 2]

        # WAND over the mixed index stays rank-identical to exact
        from searchengine_ray.query.ranked import (
            rank_bm25_wand, rank_documents_exact)
        exact = rank_documents_exact(r, "zebra apple", use_okapi=True,
                                     top_k=3)
        wand = rank_bm25_wand(r, "zebra apple", top_k=3)
        assert [d_ for d_, _ in exact] == [d_ for d_, _ in wand]
        for (_, es), (_, ws) in zip(exact, wand):
            assert abs(es - ws) < 1e-9


class TestCorpusScalars:
    def test_matches_manifest(self, built_index):
        """corpus_scalars (the distributed replacement for the driver
        column read, VERDICT r3 #4) reproduces the manifest scalars."""
        from searchengine_ray.build import corpus_scalars

        index_dir, manifest = built_index
        n, tot = corpus_scalars(os.path.join(index_dir, "docstats"))
        assert n == manifest["num_docs"]
        assert tot == manifest["total_tokens"]

    def test_empty_dir(self, ray_session, tmp_path):
        from searchengine_ray.build import corpus_scalars

        assert corpus_scalars(str(tmp_path)) == (0, 0)

    @staticmethod
    def _write_docstats(d, name, doc_ids):
        tbl = pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "doc_length": pa.array([3] * len(doc_ids), type=pa.int64()),
        })
        pq.write_table(tbl, os.path.join(d, name))

    def test_rejects_overlapping_stale_file(self, ray_session, tmp_path):
        """r4 advice: a stale docstats side-write surviving a lineage
        re-execution with a different batch composition must fail loudly
        at the consume point, not silently double-count docs.  Here the
        overlapping file is the NEWEST, so newest-first reconciliation
        cannot recover a tiling (a real retry writes after the stale
        attempt, never before) and the loud failure is preserved."""
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        self._write_docstats(d, "docstats_b.parquet", [4, 5, 6, 7])
        assert corpus_scalars(d) == (8, 24)
        # stale file overlapping [2..5] (re-execution rebatched)
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        with pytest.raises(ValueError, match="overlapping doc ranges"):
            corpus_scalars(d)

    def test_reconciles_stale_file_older_than_retry(self, ray_session,
                                                    tmp_path):
        """The observed in-the-wild shape (storm-window task retry on the
        300k scaling corpus): a dead attempt's side-file survives, then
        the retry writes a complete differently-composed tiling AFTER
        it.  Newest-first reconciliation must keep the retry's tiling,
        return the correct scalars, delete the stale loser, and warn —
        not abort the build."""
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        # dead attempt wrote [2..5] first
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        os.utime(os.path.join(d, "docstats_stale.parquet"),
                 ns=(1_000_000_000, 1_000_000_000))
        # complete retry tiling, strictly newer
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        self._write_docstats(d, "docstats_b.parquet", [4, 5, 6, 7])
        for name in ("docstats_a.parquet", "docstats_b.parquet"):
            os.utime(os.path.join(d, name),
                     ns=(2_000_000_000, 2_000_000_000))
        with pytest.warns(RuntimeWarning, match="docstats reconciliation"):
            assert corpus_scalars(d) == (8, 24)
        assert sorted(os.listdir(d)) == [
            "docstats_a.parquet", "docstats_b.parquet"]
        # dir is clean now: the fast path returns silently
        assert corpus_scalars(d) == (8, 24)

    def test_read_only_reconciliation_says_ignored(self, ray_session,
                                                   tmp_path):
        """allow_cleanup=False returns the same scalars but keeps the
        stale file, and its warning must say so rather than 'dropped'."""
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        os.utime(os.path.join(d, "docstats_stale.parquet"),
                 ns=(1_000_000_000, 1_000_000_000))
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        self._write_docstats(d, "docstats_b.parquet", [4, 5, 6, 7])
        with pytest.warns(RuntimeWarning) as rec:
            assert corpus_scalars(d, allow_cleanup=False) == (8, 24)
        msg = str(rec[0].message)
        assert "ignored 1 stale" in msg and "(left on disk)" in msg
        assert "dropped" not in msg
        assert len(os.listdir(d)) == 3

    def test_reconciliation_requires_exact_tiling(self, ray_session,
                                                  tmp_path):
        """If dropping overlapped files leaves a doc-id gap, the
        reconciler must raise, never return scalars over a partial
        cover."""
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        os.utime(os.path.join(d, "docstats_stale.parquet"),
                 ns=(1_000_000_000, 1_000_000_000))
        # newer retry covers [0..3] but nothing re-covers 4..5
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        os.utime(os.path.join(d, "docstats_a.parquet"),
                 ns=(2_000_000_000, 2_000_000_000))
        with pytest.raises(ValueError, match="no newest-first subset"):
            corpus_scalars(d)
        # nothing deleted on failure
        assert len(os.listdir(d)) == 2

    def test_interleaved_block_sidewrite_passes(self, ray_session, tmp_path):
        """A rebatched block interleaving dense segments from different
        upstream blocks ([0..3] + [8..11] + [4..7]) must side-write one
        file PER dense run — a single min..max-named file would cover a
        range overlapping its sibling blocks' and trip the disjointness
        invariant on a perfectly healthy build (observed on the 1M-doc
        scaling corpus at 16 CPUs)."""
        from searchengine_ray.build import _write_docstats_block, corpus_scalars

        d = str(tmp_path)
        interleaved = pa.table({
            "doc_id": pa.array(
                [*range(0, 4), *range(8, 12), *range(4, 8)],
                type=pa.int64()),
            "doc_length": pa.array([3] * 12, type=pa.int64()),
        })
        _write_docstats_block(d, interleaved)
        names = sorted(os.listdir(d))
        assert names == [
            "docstats_000000000000_000000000003.parquet",
            "docstats_000000000004_000000000007.parquet",
            "docstats_000000000008_000000000011.parquet",
        ]
        assert corpus_scalars(d) == (12, 36)

    def test_rejects_duplicates_within_file(self, ray_session, tmp_path):
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 1, 2])
        with pytest.raises(ValueError, match="duplicate doc ids"):
            corpus_scalars(d)

    def test_rejects_non_dense_ids(self, ray_session, tmp_path):
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2])
        self._write_docstats(d, "docstats_b.parquet", [5, 6])  # gap 3..4
        with pytest.raises(ValueError, match="expected dense"):
            corpus_scalars(d)

    def test_check_dense_off_counts_raw_rows(self, ray_session, tmp_path):
        """check_dense=False is the docterms-postings path (doc ids
        repeat per term there by design) — must not read doc_id at all."""
        from searchengine_ray.build import corpus_scalars

        d = str(tmp_path)
        self._write_docstats(d, "p.parquet", [7, 7, 9])
        assert corpus_scalars(d, check_dense=False) == (3, 9)

    @given(st.data())
    @hyp_settings(max_examples=30, deadline=None)
    def test_reconcile_property_random_retry_layouts(self, data):
        """Property over random retry shapes: whenever a COMPLETE newer
        tiling of 0..N-1 exists (the retry pass) alongside any subset of
        an older differently-cut attempt's files, newest-first
        reconciliation must return the exact corpus scalars, keep the
        retry's files, and delete every stale survivor.  Pure-function
        test on synthetic spans (no Ray) — file paths exist only to
        carry mtimes."""
        import tempfile

        from searchengine_ray.build import _reconcile_stale_docstats

        def tiling(n, max_cuts):
            if n == 1:
                return [(0, 0)]
            k = data.draw(st.integers(min_value=0,
                                      max_value=min(max_cuts, n - 1)))
            cuts = sorted(data.draw(st.sets(
                st.integers(min_value=1, max_value=n - 1),
                min_size=k, max_size=k)))
            bounds = [0, *cuts, n]
            return [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]

        n = data.draw(st.integers(min_value=2, max_value=40))
        final = tiling(n, 5)
        # the dead attempt covered a (possibly shorter) prefix with a
        # different cut; any subset of its files may have survived
        n_stale = data.draw(st.integers(min_value=1, max_value=n))
        stale_all = tiling(n_stale, 5)
        stale = [s for s in stale_all
                 if data.draw(st.booleans(), label=f"keep{s}")]
        with tempfile.TemporaryDirectory() as d:
            spans = []
            for i, (lo, hi) in enumerate(stale):
                p = os.path.join(d, f"stale_{i}.parquet")
                open(p, "w").close()
                os.utime(p, ns=(10**9 + i, 10**9 + i))
                spans.append((lo, hi, hi - lo + 1, hi - lo + 1,
                              3 * (hi - lo + 1), p))
            for i, (lo, hi) in enumerate(final):
                p = os.path.join(d, f"final_{i}.parquet")
                open(p, "w").close()
                os.utime(p, ns=(2 * 10**9 + i, 2 * 10**9 + i))
                spans.append((lo, hi, hi - lo + 1, hi - lo + 1,
                              3 * (hi - lo + 1), p))
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore", RuntimeWarning)
                got = _reconcile_stale_docstats(sorted(spans))
            assert got == (n, 3 * n)
            # the final tiling covers every doc, so every stale file
            # overlaps a (newer) kept file: survivors are EXACTLY the
            # retry's files, every stale survivor is deleted
            assert sorted(os.listdir(d)) == sorted(
                f"final_{i}.parquet" for i in range(len(final)))

class TestPreassignedIdValidation:
    def _mini(self, ids):
        import pandas as pd

        n = len(ids)
        return pd.DataFrame({
            "doc_id": ids,
            "repo": ["r"] * n,
            "path": [f"f{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "content": ["alpha beta"] * n,
        })

    def test_duplicate_ids_rejected(self, ray_session, tmp_path):
        """Code-review r5: [0, 1, 1, 3] passes min/max/count but must be
        caught by the power-sum moments before the index commits."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        ds = ray.data.from_pandas(self._mini([0, 1, 1, 3]))
        with pytest.raises(ValueError, match="dense permutation"):
            build_index(ds, str(tmp_path / "idx"),
                        IndexBuildConfig(num_buckets=2),
                        input_description="dup-ids")

    def test_sparse_ids_rejected(self, ray_session, tmp_path):
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        ds = ray.data.from_pandas(self._mini([0, 1, 2, 9]))
        with pytest.raises(ValueError, match="dense permutation"):
            build_index(ds, str(tmp_path / "idx"),
                        IndexBuildConfig(num_buckets=2),
                        input_description="sparse-ids")

    def test_valid_permutation_accepted(self, ray_session, tmp_path):
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        ds = ray.data.from_pandas(self._mini([2, 0, 3, 1]))
        m = build_index(ds, str(tmp_path / "idx"),
                        IndexBuildConfig(num_buckets=2),
                        input_description="perm-ids")
        assert m["num_docs"] == 4

