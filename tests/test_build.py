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
        reducer counts, docterms bytes) so scaling-run cohorts can be
        audited post hoc."""
        _, manifest = built_index
        plan = manifest["exchange_plan"]
        assert plan["num_maps"] >= 1
        assert plan["num_reducers"] >= 1
        assert plan["docterms_bytes"] > 0

    def test_sha256_invariant(self, built_index, small_corpus):
        index_dir, _ = built_index
        stats = pq.read_table(
            os.path.join(index_dir, "docstats"), columns=["doc_id", "sha256"]
        ).to_pylist()
        rows = small_corpus.to_pylist()
        rows.sort(key=lambda r: (r["repo"], r["path"], r["commit"]))
        want = {
            i: hashlib.sha256(r["content"].encode()).digest()
            for i, r in enumerate(rows)
        }
        assert len(stats) == len(rows)
        for rec in stats:
            assert rec["sha256"] == want[rec["doc_id"]]

    def test_multi_shard_term_is_split_by_doc_range(
        self, built_index, engine, oracle
    ):
        """``docs_per_shard`` is the only doc-range split: a term whose
        postings span several shards (128 docs each here) has one
        fragment per shard, and get_postings concatenates them into the
        oracle's strictly doc-ascending list."""
        _, manifest = built_index
        dps = manifest["docs_per_shard"]
        assert dps == 128
        term = max(oracle.index,
                   key=lambda t: len({d // dps for d in oracle.index[t]}))
        want = sorted(oracle.index[term])
        shards = {d // dps for d in want}
        assert len(shards) >= 2
        frags = engine.index.fragments(term)
        assert len(frags) >= 2
        assert sorted(fr.shard for fr in frags) == sorted(shards)
        got = engine.index.get_postings(term).doc_ids.tolist()
        assert all(b > a for a, b in zip(got, got[1:]))
        assert got == want

    def test_segment_lineage_recorded(self, built_index):
        index_dir, manifest = built_index
        for seg in manifest["segments"]:
            assert os.path.exists(os.path.join(index_dir, "segments", seg["file"]))
            assert seg["rows"] > 0

    def test_manifest_exchange_phases(self, built_index):
        """The manifest carries the exchange's per-phase split: totals
        plus max/mean task skew for each map and reduce phase, and the
        bytes the maps sent are exactly the bytes the reducers read."""
        _, manifest = built_index
        phases = manifest["exchange_plan"]["phases"]
        assert {"read", "explode", "encode", "pack", "bytes_out",
                "wall"} <= set(phases["map"])
        assert {"unpack", "merge", "write", "bytes_in",
                "wall"} <= set(phases["reduce"])
        for side in ("map", "reduce"):
            for name, st in phases[side].items():
                assert st["max"] >= st["mean"] >= 0, (side, name, st)
                assert st["total"] >= st["max"], (side, name, st)
        assert phases["map"]["bytes_out"]["total"] > 0
        assert (phases["map"]["bytes_out"]["total"]
                == phases["reduce"]["bytes_in"]["total"])

    def test_exchange_time_phases_do_not_overlap(self, built_index):
        """Each side's time phases are disjoint slices of its tasks'
        wall time, so their totals sum to at most the ``wall`` total —
        a phase that re-counts its own sub-phases breaks this."""
        _, manifest = built_index
        phases = manifest["exchange_plan"]["phases"]
        for side, bytes_key in (("map", "bytes_out"),
                                ("reduce", "bytes_in")):
            timed = {k: v["total"] for k, v in phases[side].items()
                     if k not in ("wall", bytes_key)}
            # each total is rounded to 1 µs
            slack = 1e-6 * (len(timed) + 1)
            assert (sum(timed.values())
                    <= phases[side]["wall"]["total"] + slack), (
                side, timed, phases[side]["wall"])


def _segment_table(path: str) -> pa.Table:
    """A segment's parquet rows plus each row's postings bytes from its
    ``.bin`` (doc, tf and pos streams back to back) as a ``bin`` column."""
    from searchengine_ray.build import segment_bin_path

    t = pq.read_table(path)
    with open(segment_bin_path(path), "rb") as f:
        data = f.read()
    ends = np.cumsum(sum(t.column(c).to_numpy().astype(np.int64)
                         for c in ("doc_len", "tf_len", "pos_len")))
    assert int(ends[-1]) == len(data)
    starts = ends - np.diff(ends, prepend=0)
    return t.append_column("bin", pa.array(
        [data[a:b] for a, b in zip(starts.tolist(), ends.tolist())],
        pa.binary()))


def _segment_content_hash(index_dir: str) -> str:
    """sha256 over every segment row, rows sorted by (term, shard,
    bucket) and all columns hashed, the row's ``.bin`` bytes
    included — independent of how rows are split across segment files."""
    import pyarrow.compute as pc

    seg_dir = os.path.join(index_dir, "segments")
    t = pa.concat_tables(
        _segment_table(os.path.join(seg_dir, f))
        for f in sorted(os.listdir(seg_dir)) if f.endswith(".parquet")
    )
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("term", "ascending"), ("shard", "ascending"),
        ("bucket", "ascending")]))
    h = hashlib.sha256()
    for col in sorted(t.column_names):
        h.update(col.encode())
        h.update(str(t.column(col).to_pylist()).encode())
    return h.hexdigest()


class TestReducerCountParity:
    @pytest.mark.parametrize("num_reducers", [1, 3])
    def test_segments_independent_of_num_reducers(
        self, ray_session, small_corpus, built_index, tmp_path,
        num_reducers,
    ):
        """The postings exchange partitions fragments over reducers; the
        index content must not depend on how many there are (the
        session index uses the default count, at least 8)."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, base_manifest = built_index
        assert base_manifest["exchange_plan"]["num_reducers"] >= 8
        out_dir = str(tmp_path / f"r{num_reducers}")
        cfg = IndexBuildConfig(
            num_buckets=4,
            skip_block=8,
            docs_per_shard=128,
            num_reducers=num_reducers,
        )
        ds = ray.data.from_arrow(small_corpus).repartition(4)
        manifest = build_index(ds, out_dir, cfg, input_description="test300")
        assert manifest["exchange_plan"]["num_reducers"] == num_reducers
        assert len(manifest["segments"]) <= num_reducers
        want = DiskIndexReader(index_dir).term_stats()
        got = DiskIndexReader(out_dir).term_stats()
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        assert _segment_content_hash(out_dir) == _segment_content_hash(
            index_dir)


    @pytest.mark.parametrize("num_buckets", [8, 16, 32])
    def test_reducers_get_equal_key_counts(
        self, ray_session, tmp_path, num_buckets,
    ):
        """The exchange key is ``shard * num_buckets + bucket``, a dense
        range, and it routes by ``gkey % num_reducers``: over 2 shards
        every one of 8 reducers gets the same number of (shard, bucket)
        keys."""
        from searchengine_ray.build import (IndexBuildConfig,
                                            build_segments_exchange)

        dps, n_red = 4, 8
        cfg = IndexBuildConfig(num_buckets=num_buckets, docs_per_shard=dps)
        docterms = tmp_path / "docterms"
        docterms.mkdir()
        # one term per bucket, in every doc of both shards, rows grouped
        # by (bucket, term, doc) as the tokenize stage writes them
        docs = list(range(2 * dps))
        n = num_buckets * len(docs)
        pq.write_table(pa.table({
            "term": pa.array([f"t{b}" for b in range(num_buckets)
                              for _ in docs]).dictionary_encode(),
            "bucket": pa.array([b for b in range(num_buckets) for _ in docs],
                               pa.int32()),
            "doc_id": pa.array(docs * num_buckets, pa.int64()),
            "tftd": pa.array([1] * n, pa.int32()),
            "pos_blob": pa.array([b"\x01"] * n, pa.binary()),
            "seg": pa.array([0] * n, pa.int64()),
        }), str(docterms / "part0.parquet"))
        dl_path = str(tmp_path / "doc_length.npy")
        np.save(dl_path, np.ones(len(docs), dtype=np.int64))
        seg_dir = tmp_path / "segments"
        build_segments_exchange(str(docterms), str(seg_dir), cfg, 1.0,
                                dl_path, num_reducers=n_red)
        keys = []
        for r in range(n_red):
            path = seg_dir / f"segment_{r:05d}.parquet"
            t = (pq.read_table(str(path), columns=["shard", "bucket"])
                 if path.exists() else pa.table({"shard": [], "bucket": []}))
            keys.append(set(zip(t.column("shard").to_pylist(),
                                t.column("bucket").to_pylist())))
        assert [len(k) for k in keys] == [2 * num_buckets // n_red] * n_red
        assert set().union(*keys) == {(s, b) for s in range(2)
                                      for b in range(num_buckets)}


class TestResume:
    def test_rerun_skips_completed_stages(
        self, ray_session, small_corpus, built_index
    ):
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        index_dir, manifest = built_index
        cfg = IndexBuildConfig(**manifest["config"])
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
        cfg = IndexBuildConfig(num_buckets=2)
        ds = ray.data.from_arrow(tbl)
        m1 = build_index(ds, d, cfg, input_description="crash-test")

        def seg_digest():
            segdir = os.path.join(d, "segments")
            h = hashlib.sha256()
            for fn in sorted(f for f in os.listdir(segdir)
                             if f.endswith(".parquet")):
                t = _segment_table(os.path.join(segdir, fn))
                t = t.take(pc.sort_indices(t, sort_keys=[
                    ("term", "ascending"), ("shard", "ascending"),
                    ("bucket", "ascending")]))
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
        cfg = IndexBuildConfig(num_buckets=2)
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
        cfg = IndexBuildConfig(num_buckets=2, skip_block=8)
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
    """The one docstats pass (``write_doc_weights``): ids tile 0..N-1,
    corpus scalars, docweights arrays."""

    def test_matches_manifest(self, built_index, tmp_path):
        """The pass over a built index's docstats reproduces the
        manifest scalars and the index's docweights arrays."""
        from searchengine_ray.build import docweights_paths, write_doc_weights

        index_dir, manifest = built_index
        n, tot = write_doc_weights(os.path.join(index_dir, "docstats"),
                                   str(tmp_path))
        assert n == manifest["num_docs"]
        assert tot == manifest["total_tokens"]
        for got, want in zip(docweights_paths(str(tmp_path)),
                             docweights_paths(index_dir)):
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()

    def test_empty_dir(self, tmp_path):
        from searchengine_ray.build import write_doc_weights

        assert write_doc_weights(str(tmp_path), str(tmp_path)) == (0, 0)

    @staticmethod
    def _write_docstats(d, name, doc_ids):
        os.makedirs(d, exist_ok=True)
        tbl = pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "doc_length": pa.array([3] * len(doc_ids), type=pa.int64()),
            "l_d": pa.array([0.5] * len(doc_ids), type=pa.float64()),
        })
        pq.write_table(tbl, os.path.join(d, name))

    @staticmethod
    def _pass(tmp_path):
        """Run the pass over ``tmp_path/docstats`` into ``tmp_path``."""
        from searchengine_ray.build import write_doc_weights

        return write_doc_weights(str(tmp_path / "docstats"), str(tmp_path))

    def test_rejects_overlapping_stale_file(self, tmp_path):
        """r4 advice: a stale docstats side-write surviving a lineage
        re-execution with a different batch composition must fail loudly
        at the consume point, not silently double-count docs.  Here the
        overlapping file is the NEWEST, so newest-first reconciliation
        cannot recover a tiling (a real retry writes after the stale
        attempt, never before) and the loud failure is preserved."""
        d = str(tmp_path / "docstats")
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        self._write_docstats(d, "docstats_b.parquet", [4, 5, 6, 7])
        assert self._pass(tmp_path) == (8, 24)
        # stale file overlapping [2..5] (re-execution rebatched)
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        with pytest.raises(ValueError, match="overlapping doc ranges"):
            self._pass(tmp_path)

    def test_reconciles_stale_file_older_than_retry(self, tmp_path):
        """The observed in-the-wild shape (storm-window task retry on the
        300k scaling corpus): a dead attempt's side-file survives, then
        the retry writes a complete differently-composed tiling AFTER
        it.  Newest-first reconciliation must keep the retry's tiling,
        return the correct scalars, delete the stale loser, and warn —
        not abort the build."""
        d = str(tmp_path / "docstats")
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
            assert self._pass(tmp_path) == (8, 24)
        assert sorted(os.listdir(d)) == [
            "docstats_a.parquet", "docstats_b.parquet"]
        # dir is clean now: the fast path returns silently
        assert self._pass(tmp_path) == (8, 24)

    def test_reconciliation_requires_exact_tiling(self, tmp_path):
        """If dropping overlapped files leaves a doc-id gap, the
        reconciler must raise, never return scalars over a partial
        cover."""
        d = str(tmp_path / "docstats")
        self._write_docstats(d, "docstats_stale.parquet", [2, 3, 4, 5])
        os.utime(os.path.join(d, "docstats_stale.parquet"),
                 ns=(1_000_000_000, 1_000_000_000))
        # newer retry covers [0..3] but nothing re-covers 4..5
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2, 3])
        os.utime(os.path.join(d, "docstats_a.parquet"),
                 ns=(2_000_000_000, 2_000_000_000))
        with pytest.raises(ValueError, match="no newest-first subset"):
            self._pass(tmp_path)
        # nothing deleted on failure
        assert len(os.listdir(d)) == 2

    def test_interleaved_block_sidewrite_passes(self, tmp_path):
        """A rebatched block interleaving dense segments from different
        upstream blocks ([0..3] + [8..11] + [4..7]) must side-write one
        file PER dense run — a single min..max-named file would cover a
        range overlapping its sibling blocks' and trip the disjointness
        invariant on a perfectly healthy build (observed on the 1M-doc
        scaling corpus at 16 CPUs)."""
        from searchengine_ray.build import _write_docstats_block

        d = str(tmp_path / "docstats")
        interleaved = pa.table({
            "doc_id": pa.array(
                [*range(0, 4), *range(8, 12), *range(4, 8)],
                type=pa.int64()),
            "doc_length": pa.array([3] * 12, type=pa.int64()),
            "l_d": pa.array([0.5] * 12, type=pa.float64()),
        })
        _write_docstats_block(d, interleaved)
        names = sorted(os.listdir(d))
        assert names == [
            "docstats_000000000000_000000000003.parquet",
            "docstats_000000000004_000000000007.parquet",
            "docstats_000000000008_000000000011.parquet",
        ]
        assert self._pass(tmp_path) == (12, 36)

    def test_rejects_duplicates_within_file(self, tmp_path):
        # [0, 1, 1, 2]: the footer's row count exceeds the id span;
        # [0, 2, 2]: the count fits the span, the ids do not (the data
        # check, which must leave no docweights tmp file behind)
        for i, ids in enumerate(([0, 1, 1, 2], [0, 2, 2])):
            root = tmp_path / str(i)
            self._write_docstats(str(root / "docstats"),
                                 "docstats_a.parquet", ids)
            with pytest.raises(ValueError, match="duplicate doc ids"):
                self._pass(root)
            weights = root / "docweights"
            assert not weights.exists() or not os.listdir(weights)

    def test_rejects_non_dense_ids(self, tmp_path):
        d = str(tmp_path / "docstats")
        self._write_docstats(d, "docstats_a.parquet", [0, 1, 2])
        self._write_docstats(d, "docstats_b.parquet", [5, 6])  # gap 3..4
        with pytest.raises(ValueError, match="expected dense"):
            self._pass(tmp_path)

    @given(st.data())
    @hyp_settings(max_examples=30, deadline=None)
    def test_reconcile_property_random_retry_layouts(self, data):
        """Property over random retry shapes: whenever a COMPLETE newer
        tiling of 0..N-1 exists (the retry pass) alongside any subset of
        an older differently-cut attempt's files, newest-first
        reconciliation must return the exact corpus scalars and arrays,
        keep the retry's files, and delete every stale survivor.  The
        stale files hold different stats, so a stale survivor in the
        scatter would show in the arrays."""
        import pathlib
        import tempfile
        import warnings as _w

        from searchengine_ray.build import docweights_paths

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

        def write(d, name, lo, hi, length, mtime):
            n_ = hi - lo + 1
            pq.write_table(pa.table({
                "doc_id": pa.array(range(lo, hi + 1), type=pa.int64()),
                "doc_length": pa.array([length] * n_, type=pa.int64()),
                "l_d": pa.array([float(length)] * n_, type=pa.float64()),
            }), os.path.join(d, name))
            os.utime(os.path.join(d, name), ns=(mtime, mtime))

        n = data.draw(st.integers(min_value=2, max_value=40))
        final = tiling(n, 5)
        # the dead attempt covered a (possibly shorter) prefix with a
        # different cut; any subset of its files may have survived
        n_stale = data.draw(st.integers(min_value=1, max_value=n))
        stale_all = tiling(n_stale, 5)
        stale = [s for s in stale_all
                 if data.draw(st.booleans(), label=f"keep{s}")]
        with tempfile.TemporaryDirectory() as root:
            d = os.path.join(root, "docstats")
            os.makedirs(d)
            for i, (lo, hi) in enumerate(stale):
                write(d, f"stale_{i}.parquet", lo, hi, 7, 10**9 + i)
            for i, (lo, hi) in enumerate(final):
                write(d, f"final_{i}.parquet", lo, hi, 3, 2 * 10**9 + i)
            with _w.catch_warnings():
                _w.simplefilter("ignore", RuntimeWarning)
                got = self._pass(pathlib.Path(root))
            assert got == (n, 3 * n)
            dl_p, ld_p = docweights_paths(root)
            assert np.load(dl_p).tolist() == [3] * n
            assert np.load(ld_p).tolist() == [3.0] * n
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
        caught before the index commits: its dense runs [0, 1] and [1]
        overlap, and no subset of the docstats files tiles 0..3."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        ds = ray.data.from_pandas(self._mini([0, 1, 1, 3]))
        with pytest.raises(ValueError, match="dense permutation"):
            build_index(ds, str(tmp_path / "idx"),
                        IndexBuildConfig(num_buckets=2),
                        input_description="dup-ids")

    def test_duplicate_singleton_runs_rejected(self, ray_session, tmp_path):
        """[2, 0, 2, 1]: every id is its own dense run, and the two runs
        of id 2 write the same one-doc docstats file, so 0..2 tiles
        cleanly — only the row count sees the lost doc."""
        import ray.data

        from searchengine_ray.build import IndexBuildConfig, build_index

        ds = ray.data.from_pandas(self._mini([2, 0, 2, 1]))
        with pytest.raises(ValueError, match="dense permutation"):
            build_index(ds, str(tmp_path / "idx"),
                        IndexBuildConfig(num_buckets=2),
                        input_description="dup-singleton-ids")

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

