"""Content-integrity verification (verify.py): the per-row sha256
invariant vs the source corpus, as an order-independent multiset
checksum with optional doc_id binding."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pytest


def _docstats_files(index_dir):
    d = os.path.join(index_dir, "docstats")
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


class TestDigestPrimitives:
    def test_content_digests_match_hashlib(self):
        from searchengine_ray.verify import content_digests

        texts = ["", "hello", "μultibyte ✓ content", "x" * 5000]
        got = content_digests(pa.array(texts, type=pa.string()))
        assert got.type == pa.binary(32)
        assert got.to_pylist() == [
            hashlib.sha256(t.encode()).digest() for t in texts]
        large = content_digests(pa.array(texts, type=pa.large_string()))
        assert large.equals(got)

    def test_word60_vectorization_vs_scalar(self):
        from searchengine_ray.verify import _words, content_digests

        arr = pa.array([str(i) for i in range(50)])
        want = np.array(
            [int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:8],
                            "big") >> 4 for i in range(50)],
            dtype=np.uint64,
        )
        digests = content_digests(arr)
        np.testing.assert_array_equal(_words(digests), want)
        np.testing.assert_array_equal(_words(digests.slice(7, 5)),
                                      want[7:12])

    def test_sliced_array_offsets(self):
        from searchengine_ray.verify import content_digests

        arr = pa.array(["aa", "bb", "cc", "dd"])
        full = content_digests(arr)
        assert content_digests(arr.slice(1, 2)).equals(full.slice(1, 2))


class TestChecksum60SqlParity:
    """The 60-bit row words and mix60 vs the DuckDB oracle SQL, value
    for value."""

    # the content-only checksum (verify_index_content's check_ids=False)
    SQL_NO_IDS = """
        WITH base AS (
          SELECT CAST(concat('0x', substr(sha256(text), 1, 15))
                      AS BIGINT) AS w
          FROM docs
        )
        SELECT count(*) AS n_docs,
               CAST(sum(CAST(w AS HUGEINT))
                    % 1152921504606846976 AS BIGINT) AS sum60,
               bit_xor(w) AS xor60
        FROM base
    """

    SQL = """
        WITH base AS (
          SELECT CAST(concat('0x', substr(sha256(text), 1, 15))
                      AS BIGINT) AS w,
                 CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                      % 1152921504606846976 AS BIGINT) AS a
          FROM docs
        ), m1 AS (
          SELECT w, xor(a, a // 1073741824) AS b FROM base
        ), m2 AS (
          SELECT w, CAST((CAST(b AS HUGEINT) * 2246822519)
                         % 1152921504606846976 AS BIGINT) AS c
          FROM m1
        ), mixed AS (
          SELECT xor(w, xor(c, c // 1073741824)) AS v FROM m2
        )
        SELECT count(*) AS n_docs,
               CAST(sum(CAST(v AS HUGEINT))
                    % 1152921504606846976 AS BIGINT) AS sum60,
               bit_xor(v) AS xor60
        FROM mixed
    """

    def test_parity_on_mixed_texts(self):
        import duckdb

        from searchengine_ray.verify import _words, content_digests

        texts = ["hello", "", "naïve ✓ mixed", "x" * 999, "zz", "0"]
        ids = np.arange(len(texts), dtype=np.int64) * 13 + 5
        v = _words(content_digests(pa.array(texts)), pa.array(ids))
        n = len(v)
        s = int(v.sum(dtype=np.uint64)) % (1 << 60)
        x = int(np.bitwise_xor.reduce(v))

        con = duckdb.connect()
        con.register("docs", pa.table({"doc_id": ids, "text": texts}))
        (got,) = con.sql(self.SQL).fetchall()
        assert got == (n, s, x)

    def test_index_checksum60_matches_source(self, ray_session, built_index,
                                             small_corpus):
        import duckdb

        from searchengine_ray.verify import index_checksum60

        index_dir, _ = built_index
        tbl = index_checksum60(index_dir)
        # the built_index corpus has no doc_id column: re-derive the
        # deterministic assignment the build used for the source side
        import ray.data

        from searchengine_ray.ids import assign_doc_ids

        with_ids = assign_doc_ids(
            ray.data.from_arrow(small_corpus)
        ).select_columns(["doc_id", "content"]).to_pandas()
        con = duckdb.connect()
        con.register(
            "docs",
            pa.table({"doc_id": with_ids["doc_id"].to_numpy(),
                      "text": with_ids["content"].tolist()}),
        )
        (got,) = con.sql(self.SQL).fetchall()
        assert got == (
            tbl.column("n_docs")[0].as_py(),
            tbl.column("sum60")[0].as_py(),
            tbl.column("xor60")[0].as_py(),
        )

    @pytest.mark.parametrize("with_ids", [True, False])
    def test_corpus_checksum_matches_sql(self, ray_session, small_corpus,
                                         with_ids):
        """The source side of verify_index_content, from the content
        column over several blocks, is the oracle's checksum."""
        import duckdb
        import ray.data

        from searchengine_ray.ids import assign_doc_ids
        from searchengine_ray.verify import corpus_checksum

        ds = assign_doc_ids(ray.data.from_arrow(small_corpus).repartition(3))
        got = corpus_checksum(ds, id_col="doc_id" if with_ids else None)
        rows = ds.select_columns(["doc_id", "content"]).to_pandas()
        con = duckdb.connect()
        con.register("docs", pa.table({"doc_id": rows["doc_id"].to_numpy(),
                                       "text": rows["content"].tolist()}))
        (want,) = con.sql(self.SQL if with_ids else self.SQL_NO_IDS).fetchall()
        assert (got["count"], got["sum60"], got["xor60"]) == want


class TestVerifyIndex:
    def test_docstats_digest_is_32_raw_bytes(self, built_index):
        import pyarrow.parquet as pq

        index_dir, _ = built_index
        schema = pq.read_schema(_docstats_files(index_dir)[0])
        assert schema.field("sha256").type == pa.binary(32)

    def test_hex_docstats_need_rebuild(self, ray_session, built_index,
                                       small_corpus, tmp_path):
        """An index whose docstats hold 64-char hex digests (docterms
        v6 and earlier) is refused, not misread."""
        import shutil

        import pyarrow.parquet as pq
        import ray.data

        from searchengine_ray.verify import verify_index_content

        index_dir, _ = built_index
        old = str(tmp_path / "v6")
        shutil.copytree(index_dir, old)
        for path in _docstats_files(old):
            tbl = pq.read_table(path)
            hexes = pa.array([d.hex() for d in
                              tbl.column("sha256").to_pylist()])
            pq.write_table(tbl.set_column(
                tbl.schema.get_field_index("sha256"), "sha256", hexes), path)
        with pytest.raises(ValueError, match="rebuild"):
            verify_index_content(ray.data.from_arrow(small_corpus), old)

    def test_built_index_passes(self, ray_session, built_index, small_corpus):
        import ray.data

        from searchengine_ray.verify import verify_index_content

        index_dir, manifest = built_index
        report = verify_index_content(
            ray.data.from_arrow(small_corpus).repartition(3),
            index_dir,
            check_ids=True,
        )
        assert report["passed"], report
        assert report["source"]["count"] == manifest["num_docs"]

    def test_detects_content_corruption(self, ray_session, small_corpus):
        import ray.data

        from searchengine_ray.verify import corpus_checksum

        base = corpus_checksum(ray.data.from_arrow(small_corpus))
        contents = small_corpus.column("content").to_pylist()
        contents[7] = contents[7] + " tampered"
        bad = small_corpus.set_column(
            small_corpus.schema.get_field_index("content"),
            "content",
            pa.array(contents),
        )
        tampered = corpus_checksum(ray.data.from_arrow(bad))
        assert tampered["count"] == base["count"]
        assert tampered != base

    def test_id_binding_detects_swapped_contents(self, ray_session):
        """Two rows with exchanged contents: the content multiset is
        identical, only the id-bound checksum may catch it."""
        import ray.data

        from searchengine_ray.verify import corpus_checksum

        tbl = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "content": pa.array(["alpha", "beta", "gamma"]),
            }
        )
        swapped = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "content": pa.array(["beta", "alpha", "gamma"]),
            }
        )
        a = corpus_checksum(ray.data.from_arrow(tbl))
        b = corpus_checksum(ray.data.from_arrow(swapped))
        assert a == b  # content-only view cannot tell them apart
        a_id = corpus_checksum(ray.data.from_arrow(tbl), id_col="doc_id")
        b_id = corpus_checksum(ray.data.from_arrow(swapped), id_col="doc_id")
        assert a_id != b_id
