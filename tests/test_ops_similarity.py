"""Similarity search: brute-force exactness vs a numpy oracle, IVF recall."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    n, d = 400, 32
    vecs = rng.standard_normal((n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), type=pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], type=pa.list_(pa.float32())
            ),
        }
    )
    return ray.data.from_arrow(tbl).repartition(5), vecs


def _oracle_topk(vecs: np.ndarray, q: np.ndarray, k: int):
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    # float32 storage round-trip to match the dataset column
    sims = vn.astype(np.float32).astype(np.float64) @ (
        qn.astype(np.float64)
    )
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
    return order


class TestBruteForce:
    def test_matches_numpy_oracle(self, emb):
        from searchengine_ray.ops.similarity import knn_bruteforce

        ds, vecs = emb
        queries = vecs[[3, 77]]
        out = knn_bruteforce(ds, queries, query_ids=[3, 77], k=10)
        got = {}
        for r in out.to_pylist():
            got.setdefault(r["query_id"], []).append(r["vec_id"])
        for qid in (3, 77):
            # the dataset stores float32 embeddings; the oracle normalizes
            # the raw float64 query exactly like knn_bruteforce does
            vq = vecs[qid]
            want = _oracle_topk(vecs, vq, 10)
            assert got[qid][0] == qid  # self-match at rank 1
            assert set(got[qid]) == set(want)

    def test_scores_sorted_and_ranked(self, emb):
        from searchengine_ray.ops.similarity import knn_bruteforce

        ds, vecs = emb
        out = knn_bruteforce(ds, vecs[[0]], k=5).to_pylist()
        scores = [r["score"] for r in out]
        assert scores == sorted(scores, reverse=True)
        assert [r["rank"] for r in out] == [1, 2, 3, 4, 5]


class TestIVF:
    def test_recall_vs_bruteforce(self, emb):
        from searchengine_ray.ops.similarity import knn_bruteforce, knn_ivf

        ds, vecs = emb
        queries = vecs[[5, 123, 250]]
        qids = [5, 123, 250]
        exact = knn_bruteforce(ds, queries, qids, k=10).to_pylist()
        approx = knn_ivf(
            ds, queries, qids, k=10, n_clusters=8, nprobe=4
        ).to_pylist()
        by_q_exact, by_q_approx = {}, {}
        for r in exact:
            by_q_exact.setdefault(r["query_id"], set()).add(r["vec_id"])
        for r in approx:
            by_q_approx.setdefault(r["query_id"], set()).add(r["vec_id"])
        recalls = [
            len(by_q_exact[q] & by_q_approx.get(q, set())) / 10 for q in qids
        ]
        assert sum(recalls) / len(recalls) >= 0.6  # nprobe=half the cells

    def test_distributed_fit_matches_local_lloyd(self, emb):
        """The map_batches partial-sum Lloyd iterations must reproduce a
        single-machine Lloyd over the same sample + same init (summation
        order differs, so allclose rather than exact)."""
        from searchengine_ray.ops.similarity import (
            _kmeans_fit_distributed,
            _kmeans_parallel_init,
            _normalize,
            _unit_sample,
        )

        ds, vecs = emb
        sample_ds = _unit_sample(ds, "embedding", "vec_id", target=10**9)
        # identical init on both sides: the k-means|| result is itself
        # deterministic (per-id hash sampling), asserted separately below
        cents = _kmeans_parallel_init(sample_ds, 8, seed=0)
        sample = np.sort(
            np.asarray([r["vec_id"] for r in sample_ds.take_all()])
        )
        unit_by_id = {r["vec_id"]: r["unit"] for r in sample_ds.take_all()}
        mat = np.asarray([unit_by_id[i] for i in sample])
        for _ in range(10):
            a = np.argmax(mat @ cents.T, axis=1)
            new = cents.copy()
            for c in range(8):
                if (a == c).any():
                    new[c] = mat[a == c].mean(axis=0)
            cents = _normalize(new)
        got = _kmeans_fit_distributed(sample_ds, 8, iters=10, seed=0)
        assert np.allclose(got, cents, atol=1e-9)

    def test_materialized_index_prunes_reads(self, emb, tmp_path):
        """VERDICT r1 #4 'done' criterion: the query path must read less
        than the full dataset (file/byte assertion on the cell layout)."""
        from searchengine_ray.ops.similarity import build_ivf_index, ivf_query

        ds, vecs = emb
        index_dir = str(tmp_path / "ivf")
        meta = build_ivf_index(ds, index_dir, n_clusters=8)
        assert meta["n_clusters"] == 8
        out, stats = ivf_query(index_dir, vecs[[5]], query_ids=[5], k=10,
                               nprobe=2)
        assert len(out) == 10
        assert stats["cells_probed"] == 2
        assert stats["files_read"] < stats["files_total"]
        assert 0 < stats["bytes_read"] < stats["bytes_total"]

    def test_index_reused_across_queries(self, emb, tmp_path):
        from searchengine_ray.ops.similarity import knn_ivf

        ds, vecs = emb
        index_dir = str(tmp_path / "ivf2")
        a = knn_ivf(ds, vecs[[1]], [1], k=5, n_clusters=8,
                    index_dir=index_dir).to_pylist()
        # second call must reuse the on-disk index (no rebuild) and agree
        b = knn_ivf(ds, vecs[[1]], [1], k=5, n_clusters=8,
                    index_dir=index_dir).to_pylist()
        assert a == b
        assert a[0]["vec_id"] == 1

    def test_index_without_cell_manifest_refused(self, tmp_path):
        """An IVF index whose meta.json lists no ``cell_files`` (an
        older layout) is refused with "rebuild", not read by walking
        its cell directories."""
        import json

        from searchengine_ray.ops.similarity import ivf_query

        index_dir = tmp_path / "ivf_old"
        index_dir.mkdir()
        np.save(str(index_dir / "centroids.npy"), np.eye(2))
        (index_dir / "meta.json").write_text(json.dumps(
            {"n_clusters": 2, "dim": 2, "id_col": "vec_id"}))
        with pytest.raises(ValueError, match="no cell manifest.*rebuild"):
            ivf_query(str(index_dir), np.eye(2)[[0]], k=1, nprobe=1)


class TestKMeansParallelInit:
    """k-means|| initialization (VERDICT r4 'Next round' #5)."""

    def test_deterministic_and_unit_norm(self, emb):
        from searchengine_ray.ops.similarity import (
            _kmeans_parallel_init,
            _unit_sample,
        )

        ds, _ = emb
        sample_ds = _unit_sample(ds, "embedding", "vec_id", target=10**9)
        a = _kmeans_parallel_init(sample_ds, 8, seed=0)
        b = _kmeans_parallel_init(sample_ds, 8, seed=0)
        assert a.shape == (8, 32)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)

    def test_finds_well_separated_clusters(self, ray_session):
        """On clearly separated clusters, every true cluster must get a
        nearby init center — the init-quality property the bounded
        head-subsample could not guarantee at extreme k."""
        import ray.data

        from searchengine_ray.ops.similarity import (
            _kmeans_parallel_init,
            _normalize,
            _unit_sample,
        )

        rng = np.random.default_rng(3)
        k, per, d = 8, 60, 16
        true = _normalize(rng.standard_normal((k, d)))
        # keep only well-separated centers (resample until pairwise cos < .6)
        while True:
            sims = true @ true.T - np.eye(k)
            if sims.max() < 0.6:
                break
            true = _normalize(rng.standard_normal((k, d)))
        pts = np.repeat(true, per, axis=0) + 0.05 * rng.standard_normal(
            (k * per, d)
        )
        tbl = pa.table(
            {
                "vec_id": pa.array(range(k * per), type=pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in pts], type=pa.list_(pa.float32())
                ),
            }
        )
        ds = ray.data.from_arrow(tbl).repartition(4)
        sample_ds = _unit_sample(ds, "embedding", "vec_id", target=10**9)
        cents = _kmeans_parallel_init(sample_ds, k, seed=0)
        # every true center has an init center with high cosine similarity
        best = (true @ cents.T).max(axis=1)
        assert (best > 0.9).all(), best


class TestQueryVectorFetch:
    """Predicate-pushdown driver-side query-vector read (VERDICT r4 #4)."""

    def test_row_group_pruning_and_values(self, tmp_path):
        import pyarrow.parquet as pq

        from searchengine_ray.ops.similarity import read_query_vectors

        rng = np.random.default_rng(7)
        n, d = 2000, 8
        vecs = rng.standard_normal((n, d)).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array(range(n), type=pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], type=pa.list_(pa.float32())
                ),
            }
        )
        path = str(tmp_path / "emb.parquet")
        pq.write_table(tbl, path, row_group_size=100)  # 20 row groups

        got, stats = read_query_vectors(path, [0, 1, 2])
        assert stats["row_groups_total"] == 20
        assert stats["row_groups_scanned"] == 1  # ids 0-2 live in group 0
        assert np.allclose(got, vecs[:3].astype(np.float64))

        # qids order is preserved even when not ascending
        got2, stats2 = read_query_vectors(path, [1500, 3])
        assert stats2["row_groups_scanned"] == 2
        assert np.allclose(got2[0], vecs[1500].astype(np.float64))
        assert np.allclose(got2[1], vecs[3].astype(np.float64))

    def test_missing_id_raises(self, tmp_path):
        import pyarrow.parquet as pq

        from searchengine_ray.ops.similarity import read_query_vectors

        tbl = pa.table(
            {
                "vec_id": pa.array([0, 1], type=pa.int64()),
                "embedding": pa.array(
                    [[0.0, 1.0], [1.0, 0.0]], type=pa.list_(pa.float32())
                ),
            }
        )
        path = str(tmp_path / "e.parquet")
        pq.write_table(tbl, path)
        with pytest.raises(ValueError, match="vec_id=9 not found"):
            read_query_vectors(path, [9])
