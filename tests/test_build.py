"""Build pipeline invariants: deterministic doc ids, sha256 row invariant,
manifest metrics, resume-from-checkpoint semantics."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_fragment_exchange import _tok_table


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
        """The segments stage records its scheduling decisions (reducer
        count, docterms bytes) so scaling-run cohorts can be audited post
        hoc.  There is no map side: the reducers read the docterms, and
        the plan names no cluster size, since P comes from the corpus."""
        _, manifest = built_index
        plan = manifest["exchange_plan"]
        assert set(plan) == {"num_reducers", "docterms_bytes", "phases"}
        assert plan["num_reducers"] >= 1
        assert plan["docterms_bytes"] > 0

    def test_manifest_tokenize_plan(self, built_index):
        """The tokenize stage records its batch count and the split of
        its tasks (docs, analyze, group and write seconds; total, max and
        mean each) in the docterms marker and the manifest."""
        index_dir, manifest = built_index
        plan = manifest["tokenize_plan"]
        with open(os.path.join(index_dir, "_STAGE_docterms.json")) as f:
            assert json.load(f)["tokenize_plan"] == plan
        assert set(plan) == {"batches", "phases"}
        assert plan["batches"] >= 1
        phases = plan["phases"]
        assert set(phases) == {"docs", "analyze", "group", "write"}
        assert phases["docs"]["total"] == manifest["num_docs"]
        for name, st in phases.items():
            assert st["total"] >= st["max"] >= st["mean"] >= 0, (name, st)

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

    def test_wdt_bounds_match_postings(self, built_index):
        """The reducer derives the wdt bounds from the fragments it
        merges: every fragment's ``max_wdt`` is max(ceil(wdt * 115)) / 115
        over its own postings, with each doc's length from docweights
        and the corpus avgdl, and every ``skip_max_wdt`` entry is the
        same maximum over its block (blocks cut by ``skip_count``)."""
        from searchengine_ray.query.reader import DiskIndexReader

        index_dir, manifest = built_index
        dps = manifest["docs_per_shard"]
        r = DiskIndexReader(index_dir)
        avgdl = manifest["total_tokens"] / manifest["num_docs"]
        k1, b = 1.2, 0.75
        n_frags = n_blocks = 0
        for term in r.get_vocabulary():
            pl = r.fetch_postings(term)
            for fr in r.fragments(term):
                sel = pl.doc_ids // dps == fr.shard
                assert int(sel.sum()) == fr.df
                tf = pl.tftds[sel].astype(np.float64)
                dl = np.asarray(r.doc_length)[pl.doc_ids[sel]]
                wdt = (k1 + 1.0) * tf / (
                    k1 * ((1.0 - b) + b * (dl / avgdl)) + tf)
                q = np.ceil(wdt * 115.0)
                assert fr.max_wdt == q.max() / 115.0, term
                skips = r.skip_lists(fr, r.read_fragment_row(fr))
                ends = np.cumsum(skips["skip_count"])
                assert ends[-1] == fr.df
                for blk, lo, hi in zip(skips["skip_max_wdt"],
                                       ends - skips["skip_count"], ends):
                    assert blk == q[lo:hi].max() / 115.0, term
                n_frags += 1
                n_blocks += len(ends)
        assert n_blocks > n_frags > len(r.get_vocabulary())

    def test_skip_last_doc_equals_v9_oracle(self, built_index):
        """Since segment format v10 the catalog stores no skip-block
        last docs (nor, since v8, offsets or counts): the reader derives
        them from each fragment's Elias–Fano doc stream, and they equal
        what the v9 reducer stored (``tests/skip_oracle.py``) for every
        fragment."""
        from searchengine_ray.query.reader import DiskIndexReader
        from tests.skip_oracle import assert_reader_matches_v9

        index_dir, manifest = built_index
        r = DiskIndexReader(index_dir)
        assert assert_reader_matches_v9(r) > len(r.get_vocabulary())
        for seg in manifest["segments"]:
            names = pq.read_schema(os.path.join(
                index_dir, "segments", seg["file"])).names
            assert not {"skip_last_doc", "skip_offset", "skip_tf_offset",
                        "skip_count"} & set(names)

    def test_wand_blocks_equal_full_decode(self, built_index):
        """Every WAND block decode (``reader.block_docs`` plus the
        block's tf exceptions) equals the matching slice of the full
        decode, and ends on its block's derived last doc, on every
        fragment."""
        from searchengine_ray.query.reader import DiskIndexReader

        r = DiskIndexReader(built_index[0])
        assert assert_blocks_equal_full_decode(r) > len(r.get_vocabulary())

    def test_segments_record_doc_range(self, built_index):
        """Each segment's manifest entry records the doc range its doc
        streams were coded in (format v10): the build's."""
        _, manifest = built_index
        for seg in manifest["segments"]:
            assert (seg["doc_lo"], seg["doc_hi"]) == (
                0, manifest["num_docs"])

    def test_index_files_compact_encoding(self, built_index):
        """Segment catalogs and docstats are zstd with no dictionary
        pages; only docstats' ``doc_id`` carries min/max statistics."""
        index_dir, _ = built_index
        for sub, stats in (("segments", set()), ("docstats", {"doc_id"})):
            d = os.path.join(index_dir, sub)
            for name in os.listdir(d):
                if not name.endswith(".parquet"):
                    continue
                md = pq.read_metadata(os.path.join(d, name))
                for g in range(md.num_row_groups):
                    for c in range(md.num_columns):
                        cc = md.row_group(g).column(c)
                        assert cc.compression == "ZSTD", (name, c)
                        assert not cc.has_dictionary_page, (name, c)
                        assert cc.is_stats_set == (
                            cc.path_in_schema in stats), (name, c)

    def test_segment_lineage_recorded(self, built_index):
        index_dir, manifest = built_index
        for seg in manifest["segments"]:
            assert os.path.exists(os.path.join(index_dir, "segments", seg["file"]))
            assert seg["rows"] > 0

    def test_manifest_exchange_phases(self, built_index):
        """The manifest carries the exchange's per-phase split: totals
        plus max/mean task skew for each reduce phase, and the bytes the
        reducers read are exactly the compressed bytes of all docterms
        row groups, so every row group is read once."""
        index_dir, manifest = built_index
        phases = manifest["exchange_plan"]["phases"]
        assert set(phases) == {"reduce"}
        assert set(phases["reduce"]) == {"read", "merge", "write",
                                         "bytes_in", "wall"}
        for name, st in phases["reduce"].items():
            assert st["max"] >= st["mean"] >= 0, (name, st)
            assert st["total"] >= st["max"], (name, st)
        dt = os.path.join(index_dir, "docterms")
        row_group_bytes = 0
        for name in os.listdir(dt):
            md = pq.read_metadata(os.path.join(dt, name))
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                row_group_bytes += sum(rg.column(c).total_compressed_size
                                       for c in range(rg.num_columns))
        assert row_group_bytes > 0
        assert phases["reduce"]["bytes_in"]["total"] == row_group_bytes

    def test_exchange_time_phases_do_not_overlap(self, built_index):
        """The reducers' time phases are disjoint slices of their tasks'
        wall time, so their totals sum to at most the ``wall`` total —
        a phase that re-counts its own sub-phases breaks this."""
        _, manifest = built_index
        reduce = manifest["exchange_plan"]["phases"]["reduce"]
        timed = {k: v["total"] for k, v in reduce.items()
                 if k not in ("wall", "bytes_in")}
        assert set(timed) == {"read", "merge", "write"}
        # each total is rounded to 1 µs
        slack = 1e-6 * (len(timed) + 1)
        assert sum(timed.values()) <= reduce["wall"]["total"] + slack, (
            timed, reduce["wall"])


def assert_blocks_equal_full_decode(reader) -> int:
    """For every term, the WAND cursor's blocks decoded one by one (doc
    ids, tftds) concatenate to the term's full decode, and each block
    ends on its ``skip_last_doc``; returns the blocks checked."""
    from searchengine_ray.query.ranked import _TermCursor

    n = 0
    for term in reader.get_vocabulary():
        cur = _TermCursor(reader, term, 1.0, use_okapi=True)
        docs = [cur._block(b)[0] for b in range(cur.nblocks)]
        tfs = [cur._block_tfs(b) for b in range(cur.nblocks)]
        pl = reader.fetch_postings(term)
        assert np.array_equal(np.concatenate(docs), pl.doc_ids), term
        assert np.array_equal(np.concatenate(tfs), pl.tftds), term
        assert [d[-1] for d in docs] == cur.block_last.tolist(), term
        n += cur.nblocks
    return n


def _segment_table(path: str) -> pa.Table:
    """A segment's parquet rows plus each row's postings bytes from its
    ``.bin`` (doc, tf and pos streams back to back) as a ``bin`` column."""
    from searchengine_ray.layout import segment_bin_path

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


def _tree_bytes(index_dir: str) -> dict:
    """{subdir/name: bytes} over the index's tokenize and exchange
    output: docterms/, docstats/, docweights/ and segments/."""
    out = {}
    for sub in ("docterms", "docstats", "docweights", "segments"):
        root = os.path.join(index_dir, sub)
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as f:
                out[f"{sub}/{name}"] = f.read()
    return out


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


    @staticmethod
    def _one_term_per_bucket(tmp_path, num_buckets, dps, write):
        """A docterms dir holding one file, written by ``write``: one
        term per bucket, in every doc of two shards, postings grouped by
        (gkey, term, doc) and encoded as the group task encodes them;
        plus the doc_length array.  Returns (docterms dir, .npy path)."""
        from searchengine_ray.build import _encode_file_fragments

        docterms = tmp_path / "docterms"
        docterms.mkdir()
        docs = np.arange(2 * dps)
        n = num_buckets * docs.size
        bucket = np.repeat(np.arange(num_buckets), docs.size)
        doc = np.tile(docs, num_buckets)
        gk = (doc // dps) * num_buckets + bucket
        order = np.argsort(gk, kind="stable")
        write(_encode_file_fragments(
            gk[order], bucket[order], doc[order], np.ones(n, np.int32),
            pa.array([b"\x01"] * n, pa.binary()),
            np.array([f"t{b}" for b in range(num_buckets)], dtype=object),
        ), str(docterms / "part0.parquet"))
        dl_path = str(tmp_path / "doc_length.npy")
        np.save(dl_path, np.ones(len(docs), dtype=np.int64))
        return str(docterms), dl_path

    @pytest.mark.parametrize("num_buckets", [8, 16, 32])
    def test_reducers_get_equal_key_counts(
        self, ray_session, tmp_path, num_buckets,
    ):
        """The exchange key is ``shard * num_buckets + bucket``, a dense
        range, and it routes by ``gkey % num_reducers``: over 2 shards
        every one of 8 reducers gets the same number of (shard, bucket)
        keys, read from the file's one row group per gkey."""
        from searchengine_ray.build import (IndexBuildConfig,
                                            _write_docterms,
                                            build_segments_exchange)

        dps, n_red = 4, 8
        cfg = IndexBuildConfig(num_buckets=num_buckets, docs_per_shard=dps,
                               num_reducers=n_red)
        docterms, dl_path = self._one_term_per_bucket(
            tmp_path, num_buckets, dps, _write_docterms)
        md = pq.read_metadata(os.path.join(docterms, "part0.parquet"))
        assert md.num_row_groups == 2 * num_buckets
        seg_dir = tmp_path / "segments"
        build_segments_exchange(docterms, str(seg_dir), cfg, 1.0, dl_path)
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

    @pytest.mark.parametrize("stats", [True, False],
                             ids=["two_gkeys", "no_statistics"])
    def test_reducer_refuses_unrouted_row_groups(self, ray_session, tmp_path,
                                                 stats):
        """A docterms row group that does not name one gkey in its
        statistics — several gkeys in one row group, or no statistics —
        cannot be routed: the driver's plan refuses it before any reducer
        starts, and no segment is written."""
        from searchengine_ray.build import (IndexBuildConfig,
                                            build_segments_exchange)

        docterms, dl_path = self._one_term_per_bucket(
            tmp_path, 8, 4, lambda t, p: pq.write_table(
                t, p, write_statistics=stats))
        md = pq.read_metadata(os.path.join(docterms, "part0.parquet"))
        assert md.num_row_groups == 1
        seg_dir = tmp_path / "segments"
        with pytest.raises(ValueError, match="rebuild the docterms stage"):
            build_segments_exchange(
                docterms, str(seg_dir),
                IndexBuildConfig(num_buckets=8, docs_per_shard=4,
                                 num_reducers=4), 1.0, dl_path)
        assert not seg_dir.exists()


class TestExchangePlan:
    """``plan_exchange`` on the driver, without Ray: P from the corpus's
    tokens (at least 8, more past ``REDUCE_TOKENS`` per reducer) or the
    ``num_reducers`` override, and every docterms row group routed once,
    to reducer ``gkey % P``."""

    @staticmethod
    def _docterms(tmp_path, n_files=3, num_buckets=8, dps=4):
        """``n_files`` docterms files, file k holding shard k (docs
        k*dps..) with one term per bucket in every doc, so file k's row
        groups are gkeys k*num_buckets .. (k+1)*num_buckets - 1."""
        from searchengine_ray.build import (_encode_file_fragments,
                                            _write_docterms)

        paths = []
        for k in range(n_files):
            docs = np.arange(k * dps, (k + 1) * dps)
            n = num_buckets * docs.size
            bucket = np.repeat(np.arange(num_buckets), docs.size)
            path = str(tmp_path / f"docterms_{k}.parquet")
            _write_docterms(_encode_file_fragments(
                k * num_buckets + bucket, bucket, np.tile(docs, num_buckets),
                np.ones(n, np.int32), pa.array([b"\x01"] * n, pa.binary()),
                np.array([f"t{b}" for b in range(num_buckets)],
                         dtype=object),
            ), path)
            paths.append(path)
        return paths

    def _assert_routed_once(self, paths, plan):
        """Each row group of ``paths`` sits in exactly one reducer's
        parts, that reducer is its gkey mod P, and each reducer's
        ``bytes_in`` is its row groups' compressed bytes."""
        P = len(plan)
        seen = []
        for r, (parts, bytes_in) in enumerate(plan):
            assert [p for p, _ in parts] == sorted({p for p, _ in parts})
            want = 0
            for path, row_groups in parts:
                md = pq.read_metadata(path)
                for i in row_groups:
                    rg = md.row_group(i)
                    st = rg.column(0).statistics
                    assert st.min == st.max and st.min % P == r
                    want += sum(rg.column(c).total_compressed_size
                                for c in range(rg.num_columns))
                    seen.append((path, i))
            assert bytes_in == want
        assert sorted(seen) == sorted(
            (p, i) for p in paths
            for i in range(pq.read_metadata(p).num_row_groups))

    def test_reducer_count_and_routing(self, tmp_path, monkeypatch):
        from searchengine_ray import build

        paths = self._docterms(tmp_path)
        assert sum(pq.read_metadata(p).num_row_groups for p in paths) == 24
        for tokens in (0, 1, 8 * build.REDUCE_TOKENS):
            plan = build.plan_exchange(paths, tokens)
            assert len(plan) == 8
            self._assert_routed_once(paths, plan)
        assert len(build.plan_exchange(
            paths, 8 * build.REDUCE_TOKENS + 1)) == 9
        # a corpus past what 8 reducers may hold gets more of them
        monkeypatch.setattr(build, "REDUCE_TOKENS", 100)
        for tokens, want in ((800, 8), (801, 9), (1_050, 11), (1_700, 17)):
            plan = build.plan_exchange(paths, tokens)
            assert len(plan) == want
            self._assert_routed_once(paths, plan)
        # the override wins either way
        for n in (1, 3, 30):
            plan = build.plan_exchange(paths, 1_700, num_reducers=n)
            assert len(plan) == n
            self._assert_routed_once(paths, plan)
        assert sum(bool(parts) for parts, _ in plan) == 24


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
        from searchengine_ray.build import write_doc_weights
        from searchengine_ray.layout import docweights_paths

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

    def test_interleaved_block_sidewrite_passes(self, tmp_path):
        """A batch holding several dense runs ([0..3] + [8..11] + [4..7],
        as a permuted pre-assigned id column gives) writes one docterms
        and one docstats file PER dense run, named by the run — a single
        min..max-named file would cover a range overlapping its
        siblings' and trip the disjointness invariant."""
        from searchengine_ray.build import IndexBuildConfig, _group_and_write

        docs = [*range(0, 4), *range(8, 12), *range(4, 8)]
        dt, ds = tmp_path / "docterms", tmp_path / "docstats"
        dt.mkdir()
        ds.mkdir()
        batch = _tok_table(docs, [["x", f"d{d}"] for d in docs])
        out = _group_and_write(batch, IndexBuildConfig(), str(dt), str(ds))
        spans = ["000000000000_000000000003", "000000000008_000000000011",
                 "000000000004_000000000007"]
        assert out.column("span").to_pylist() == spans
        assert sorted(os.listdir(ds)) == sorted(
            f"docstats_{s}.parquet" for s in spans)
        assert sorted(os.listdir(dt)) == sorted(
            f"docterms_{s}.parquet" for s in spans)
        assert self._pass(tmp_path) == (12, 24)

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

# Builds ``TestDeterministicLayout._corpus(False)`` in 32-doc tokenize
# batches on a fresh local Ray cluster of argv[1] logical CPUs into
# argv[2]; prints the exchange plan's reducer count as one JSON line.
_BUILD_ON_CLUSTER = """
import json, sys
import ray
from searchengine_ray import build
from tests.test_build import TestDeterministicLayout

ray.init(address="local", num_cpus=int(sys.argv[1]),
         include_dashboard=False, log_to_driver=False)
build.DOCTERMS_BLOCK_ROWS = 32
m = build.build_index(
    TestDeterministicLayout._corpus(False), sys.argv[2],
    build.IndexBuildConfig(num_buckets=4, skip_block=8, docs_per_shard=128),
    input_description="cluster")
print(json.dumps({"num_reducers": m["exchange_plan"]["num_reducers"]}))
ray.shutdown()
"""


class TestDeterministicLayout:
    """The tokenize stage's output is a function of its input dataset:
    files are named by their dense doc-id run, and the stage runs with
    ``preserve_order``, so builds and retried tasks leave the same
    bytes."""

    def test_group_and_write_twice_same_bytes(self, tmp_path):
        """A retried group task rewrites the same file names with the
        same bytes, and leaves no tmp file behind."""
        from searchengine_ray.build import IndexBuildConfig, _group_and_write

        docs = [*range(5, 9), *range(0, 5)]
        batch = _tok_table(docs, [["x", f"d{d}"] for d in docs])
        trees = []
        for _ in range(2):
            dt, ds = tmp_path / "docterms", tmp_path / "docstats"
            dt.mkdir(exist_ok=True)
            ds.mkdir(exist_ok=True)
            _group_and_write(batch, IndexBuildConfig(num_buckets=2),
                             str(dt), str(ds))
            tree = {}
            for d in (dt, ds):
                for name in sorted(os.listdir(d)):
                    assert name.endswith(".parquet"), name
                    tree[f"{d.name}/{name}"] = (d / name).read_bytes()
            trees.append(tree)
        assert len(trees[0]) == 4
        assert trees[0] == trees[1]

    @staticmethod
    def _corpus(preassigned: bool):
        import ray.data

        from searchengine_ray.corpus import synthetic_corpus_table

        tbl = synthetic_corpus_table(300, seed=5)
        if preassigned:
            # a rotated permutation: two dense runs, each split further
            # at the group batches' edges
            n = tbl.num_rows
            tbl = tbl.append_column("doc_id", pa.array(
                (np.arange(n) + n // 2) % n, type=pa.int64()))
        return ray.data.from_arrow(tbl).repartition(4)

    @pytest.mark.parametrize("preassigned", [True, False],
                             ids=["preassigned_ids", "assign_doc_ids"])
    def test_two_builds_byte_identical(self, ray_session, tmp_path,
                                       monkeypatch, preassigned):
        """Two builds of one corpus in one session write the same file
        names and bytes; 64-doc group batches give several file pairs.
        The build scopes ``preserve_order`` to its own dataset."""
        from searchengine_ray import build
        from searchengine_ray.build import IndexBuildConfig, build_index

        monkeypatch.setattr(build, "DOCTERMS_BLOCK_ROWS", 64)
        cfg = IndexBuildConfig(num_buckets=4, skip_block=8,
                               docs_per_shard=128)
        trees = []
        for k in range(2):
            ds = self._corpus(preassigned)
            d = str(tmp_path / f"idx{k}")
            m = build_index(ds, d, cfg, input_description="det")
            assert m["num_docs"] == 300
            assert not ds.context.execution_options.preserve_order
            trees.append(_tree_bytes(d))
        names = list(trees[0])
        assert sum(n.startswith("docterms/") for n in names) >= 5
        assert sum(n.startswith("docstats/") for n in names) >= 5
        assert trees[0] == trees[1]

    def test_segments_independent_of_block_rows(self, ray_session, tmp_path,
                                                monkeypatch):
        """The group batch size cuts posting lists into fragments at other
        doc ids, but the reducers cut skip blocks from each merged list's
        postings, so 64-doc batches (several docterms and docstats files)
        and the default (one file each) leave the same segment bytes."""
        from searchengine_ray import build
        from searchengine_ray.build import IndexBuildConfig, build_index

        cfg = IndexBuildConfig(num_buckets=4, skip_block=8,
                               docs_per_shard=128)
        trees, plans = [], []
        for rows in (64, build.DOCTERMS_BLOCK_ROWS):
            monkeypatch.setattr(build, "DOCTERMS_BLOCK_ROWS", rows)
            d = str(tmp_path / f"idx{rows}")
            m = build_index(self._corpus(False), d, cfg,
                            input_description="rows")
            trees.append(_tree_bytes(d))
            plans.append(m["exchange_plan"]["num_reducers"])
        assert plans[0] == plans[1]

        def names(tree, sub):
            return sorted(n for n in tree if n.startswith(sub + "/"))

        assert len(names(trees[0], "docstats")) >= 5
        assert names(trees[1], "docstats") == [
            "docstats/docstats_000000000000_000000000299.parquet"]
        assert names(trees[0], "segments") == names(trees[1], "segments")
        for n in names(trees[0], "segments"):
            assert trees[0][n] == trees[1][n], n

    def test_tiny_slice_bound_byte_identical(self, ray_session, tmp_path,
                                             monkeypatch):
        """The tokenize stage analyzes each batch in slices of at most
        ``ANALYZE_SLICE_BYTES`` content bytes; a 256 B bound (several
        slices per batch, each doc past it alone) leaves docterms/,
        docstats/, docweights/ and segments/ byte-identical to the
        default build."""
        from unittest import mock

        from searchengine_ray import batch_tokenize, build
        from searchengine_ray.build import IndexBuildConfig, build_index

        stage = build._tokenize_stage

        def tiny_slices(batch: pa.Table, *args) -> pa.Table:
            # runs in the Ray worker, so the bound is patched there
            with mock.patch.object(batch_tokenize, "ANALYZE_SLICE_BYTES",
                                   256):
                out = stage(batch, *args)
                n = len(batch_tokenize._byte_slices(
                    batch.column("content").combine_chunks()))
            return out.append_column("slices", pa.array([n]))

        cfg = IndexBuildConfig(num_buckets=4, skip_block=8,
                               docs_per_shard=128)
        default = str(tmp_path / "default")
        build_index(self._corpus(False), default, cfg,
                    input_description="slices")
        monkeypatch.setattr(build, "_tokenize_stage", tiny_slices)
        tiny = str(tmp_path / "tiny")
        m = build_index(self._corpus(False), tiny, cfg,
                        input_description="slices")
        plan = m["tokenize_plan"]
        assert plan["phases"]["slices"]["total"] > 2 * plan["batches"]
        assert _tree_bytes(tiny) == _tree_bytes(default)

    def test_segments_independent_of_cluster(self, tmp_path):
        """One corpus built on Ray clusters of 2 and of 8 logical CPUs
        (one subprocess each), with 32-doc tokenize batches so there are
        more docterms files than 8: the exchange sizes P from the corpus,
        so both builds use the same reducer count and write byte-identical
        segments/."""
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": repo}
        trees, plans = [], []
        for cpus in (2, 8):
            d = str(tmp_path / f"cpus{cpus}")
            proc = subprocess.run(
                [sys.executable, "-c", _BUILD_ON_CLUSTER, str(cpus), d],
                cwd=repo, env=env, capture_output=True, text=True,
                timeout=600)
            assert proc.returncode == 0, proc.stderr[-4000:]
            plans.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            trees.append(_tree_bytes(d))
        assert sum(n.startswith("docterms/") for n in trees[0]) >= 9
        assert plans[0] == plans[1]
        segs = [{n: b for n, b in t.items() if n.startswith("segments/")}
                for t in trees]
        assert segs[0] and segs[0] == segs[1]

    def test_worker_crash_retry_byte_identical(self, ray_session, tmp_path,
                                               monkeypatch):
        """A worker that dies once in the input pipeline (a test-owned
        upstream UDF that ``os._exit``s the first time it sees the last
        block, after earlier group batches may have written their files)
        is retried by Ray Data, and the index is byte-identical to a
        clean build."""
        from searchengine_ray import build
        from searchengine_ray.build import IndexBuildConfig, build_index

        monkeypatch.setattr(build, "DOCTERMS_BLOCK_ROWS", 64)
        cfg = IndexBuildConfig(num_buckets=4, skip_block=8,
                               docs_per_shard=128)
        marker = str(tmp_path / "crashed")

        def crash_once(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy()
            if 140 in ids and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return batch

        clean = str(tmp_path / "clean")
        build_index(self._corpus(True), clean, cfg, input_description="r")
        crashed = str(tmp_path / "crashed_idx")
        build_index(self._corpus(True).map_batches(
            crash_once, batch_format="pyarrow"), crashed, cfg,
            input_description="r")
        assert os.path.exists(marker)
        assert _tree_bytes(crashed) == _tree_bytes(clean)


class TestExchangeFaults:
    """The exchange over a committed docterms stage: a broken docterms
    file or docweights array fails the build before the segments commit,
    and the re-run resumes from the docterms marker; a reducer killed
    mid-exchange is retried by Ray.  Either way the index ends byte-identical to a
    clean build."""

    CFG = dict(num_buckets=4, skip_block=8, docs_per_shard=128)

    @pytest.fixture(scope="class")
    def clean(self, ray_session, tmp_path_factory):
        """A clean build with several docterms files (64-doc group
        batches), so every reducer reads several files."""
        from searchengine_ray import build

        d = str(tmp_path_factory.mktemp("faults") / "clean")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(build, "DOCTERMS_BLOCK_ROWS", 64)
            m = build.build_index(TestDeterministicLayout._corpus(True), d,
                                  build.IndexBuildConfig(**self.CFG),
                                  input_description="faults")
        assert len(os.listdir(os.path.join(d, "docterms"))) >= 2
        return d

    def _exchange_only(self, clean, d):
        """A copy of ``clean`` whose exchange has not run: the docterms
        stage is committed, the segments stage and manifest are not."""
        import shutil

        shutil.copytree(clean, d)
        shutil.rmtree(os.path.join(d, "segments"))
        for name in ("_STAGE_segments.json", "manifest.json"):
            os.remove(os.path.join(d, name))

    def _build(self, d):
        from searchengine_ray.build import IndexBuildConfig, build_index

        return build_index(TestDeterministicLayout._corpus(True), d,
                           IndexBuildConfig(**self.CFG),
                           input_description="faults")

    @pytest.mark.parametrize("side", ["docterms", "reduce"])
    def test_broken_input_raises_then_resumes(self, clean, tmp_path, side):
        """docterms: one docterms file, whose footer the driver's plan
        reads, swapped for garbage bytes (refused on the driver, before
        any reducer starts); reduce: ``docweights/doc_length.npy``, which
        the reducers memory-map, truncated by one entry."""
        import ray

        d = str(tmp_path / "idx")
        self._exchange_only(clean, d)
        if side == "docterms":
            dt = os.path.join(d, "docterms")
            names = sorted(os.listdir(dt))
            path = os.path.join(dt, names[len(names) // 2])
            broken, error = b"not a parquet file" * 64, "magic bytes"
            raised = pa.ArrowInvalid
        else:
            path = os.path.join(d, "docweights", "doc_length.npy")
            with open(path, "rb") as f:
                broken, error = f.read()[:-8], "mmap length"
            raised = ray.exceptions.RayTaskError
        with open(path, "rb") as f:
            good = f.read()
        with open(path, "wb") as f:
            f.write(broken)
        marker = os.path.join(d, "_STAGE_docterms.json")
        marker_mtime = os.stat(marker).st_mtime_ns
        with pytest.raises(raised, match=error):
            self._build(d)
        assert not os.path.exists(os.path.join(d, "_STAGE_segments.json"))
        assert not os.path.exists(os.path.join(d, "manifest.json"))

        with open(path, "wb") as f:
            f.write(good)
        self._build(d)
        assert os.stat(marker).st_mtime_ns == marker_mtime  # resumed
        assert _tree_bytes(d) == _tree_bytes(clean)

    def test_worker_killed_mid_exchange_is_retried(self, clean, tmp_path,
                                                   monkeypatch):
        """A test-owned wrapper around the reducer ``os._exit``s its
        worker once, after it has written its segment.  Ray retries the
        task, and the index is byte-identical to a clean build."""
        import ray

        from searchengine_ray import build

        inner = build._reduce_runs._function
        crashed = str(tmp_path / "crashed")

        def crash_once(*args):
            out = inner(*args)
            if not os.path.exists(crashed):
                open(crashed, "w").close()
                os._exit(1)
            return out

        monkeypatch.setattr(build, "_reduce_runs", ray.remote(crash_once))
        d = str(tmp_path / "idx")
        self._exchange_only(clean, d)
        self._build(d)
        assert os.path.exists(crashed)
        assert _tree_bytes(d) == _tree_bytes(clean)


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

