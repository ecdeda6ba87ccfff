"""Generational index merge (incremental indexing): a base index over
docs 0..N-1 plus a delta index built with ``doc_id_base=N`` over new
docs must, after ``merge.merge_indexes``, be INDISTINGUISHABLE from one
full build over the union corpus — identical vocabulary, term stats,
postings (with positions), Boolean results, and ranked top-k (exact and
block-max WAND) — even though the two paths salt heavy terms
differently (each build's heavy detection sees only its own corpus)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchengine_ray.build import IndexBuildConfig, build_index
from searchengine_ray.merge import merge_indexes

SPLIT = 200  # docs 0..199 -> base generation, 200..299 -> delta


def _cfg(**over):
    base = dict(
        num_buckets=4,
        tokenize_concurrency=(1, 2),
        skip_block=8,
        heavy_df_threshold=50,
        docs_per_shard=128,
    )
    base.update(over)
    return IndexBuildConfig(**base)


@pytest.fixture(scope="module")
def merged_setup(ray_session, small_corpus, built_index, tmp_path_factory):
    """(full_index_dir, merged_index_dir, delta_dir, corpus_parquet_dir).

    The union corpus gets doc ids once (same deterministic assignment
    the full build used); the id-split halves build independently, the
    delta with doc_id_base=SPLIT, then merge."""
    import ray.data

    from searchengine_ray.ids import assign_doc_ids

    root = tmp_path_factory.mktemp("merge")
    with_ids = assign_doc_ids(
        ray.data.from_arrow(small_corpus).repartition(4)
    ).to_pandas().sort_values("doc_id", ignore_index=True)

    corpus_dir = str(root / "corpus")
    os.makedirs(corpus_dir)
    # verify_index_content re-derives the deterministic id assignment
    # itself, so the comparison corpus ships WITHOUT the id column
    pq.write_table(
        pa.Table.from_pandas(with_ids.drop(columns=["doc_id"]),
                             preserve_index=False),
        os.path.join(corpus_dir, "part0.parquet"))

    part_a = with_ids[with_ids.doc_id < SPLIT].reset_index(drop=True)
    part_b = with_ids[with_ids.doc_id >= SPLIT].reset_index(drop=True)
    a_dir, b_dir, out_dir = (str(root / n) for n in ("a", "b", "out"))
    build_index(
        ray.data.from_pandas(part_a).repartition(3), a_dir, _cfg(),
        input_description="merge-test-a",
    )
    build_index(
        ray.data.from_pandas(part_b).repartition(2), b_dir,
        _cfg(doc_id_base=SPLIT), input_description="merge-test-b",
    )
    merge_indexes([a_dir, b_dir], out_dir)
    full_dir, _ = built_index
    return full_dir, out_dir, b_dir, corpus_dir


@pytest.fixture(scope="module")
def readers(merged_setup):
    from searchengine_ray.query.reader import DiskIndexReader

    full_dir, merged_dir, _, _ = merged_setup
    return DiskIndexReader(full_dir), DiskIndexReader(merged_dir)


def test_scalars_and_vocab_identical(readers):
    full, merged = readers
    assert merged.num_docs == full.num_docs
    assert merged.total_tokens == full.total_tokens
    assert merged.avg_doc_length == pytest.approx(full.avg_doc_length)
    assert merged.get_vocabulary() == full.get_vocabulary()


def test_term_stats_identical(readers):
    full, merged = readers
    t_f, df_f, cf_f = full.term_stats()
    t_m, df_m, cf_m = merged.term_stats()
    assert t_f == t_m
    assert np.array_equal(df_f, df_m)
    assert np.array_equal(cf_f, cf_m)


def test_postings_identical_every_term(readers):
    full, merged = readers
    for term in full.get_vocabulary():
        pf = full.get_postings(term, with_positions=True)
        pm = merged.get_postings(term, with_positions=True)
        assert np.array_equal(pf.doc_ids, pm.doc_ids), term
        assert np.array_equal(pf.tftds, pm.tftds), term
        assert np.array_equal(pf.positions, pm.positions), term


def test_doc_stats_identical(readers):
    full, merged = readers
    assert np.array_equal(full.doc_length, merged.doc_length)


def test_wdt_bounds_stay_upper_bounds(readers):
    """The merged index's per-term max_wdt (scaled for generations built
    with a different avgdl) must still upper-bound the true max wdt
    under the MERGED avgdl — the invariant WAND's pruning relies on."""
    from searchengine_ray.build import bm25_wdt

    full, merged = readers
    for term in merged.get_vocabulary():
        p = merged.get_postings(term)
        dls = merged.doc_length[p.doc_ids].astype(np.float64)
        true_max = bm25_wdt(p.tftds, dls, merged.avg_doc_length).max()
        assert merged.max_wdt(term) >= true_max - 1e-12, term


QUERIES = ["search", "the engine", "distributed index build",
           "search + engine", '"the index"']


@pytest.mark.parametrize("q", QUERIES[:3])
def test_ranked_identical(merged_setup, q):
    from searchengine_ray.query.engine import QueryEngine

    full_dir, merged_dir, _, _ = merged_setup
    ef, em = QueryEngine(full_dir), QueryEngine(merged_dir)
    for use_okapi in (True, False):
        got_f = ef.ranked_query(q, use_okapi=use_okapi, top_k=10,
                                use_wand=False)
        got_m = em.ranked_query(q, use_okapi=use_okapi, top_k=10,
                                use_wand=False)
        assert got_f == got_m
    wf = ef.ranked_query(q, use_okapi=True, top_k=10, use_wand=True)
    wm = em.ranked_query(q, use_okapi=True, top_k=10, use_wand=True)
    assert wf == wm


@pytest.mark.parametrize("q", QUERIES[3:])
def test_boolean_identical(merged_setup, q):
    from searchengine_ray.query.engine import QueryEngine

    full_dir, merged_dir, _, _ = merged_setup
    got_f = QueryEngine(full_dir).boolean_query(q)
    got_m = QueryEngine(merged_dir).boolean_query(q)
    assert np.array_equal(got_f, got_m)


def test_content_integrity_on_merged(ray_session, merged_setup):
    from searchengine_ray.verify import verify_index_content

    _, merged_dir, _, corpus_dir = merged_setup
    report = verify_index_content(corpus_dir, merged_dir, check_ids=True)
    assert report["passed"] is True


def test_delta_alone_refuses_to_serve(merged_setup):
    from searchengine_ray.query.reader import DiskIndexReader

    _, _, delta_dir, _ = merged_setup
    with pytest.raises(ValueError, match="DELTA build"):
        DiskIndexReader(delta_dir)


def test_legacy_export_refuses_merged(merged_setup, tmp_path):
    from searchengine_ray.legacy import export_legacy_index

    _, merged_dir, _, _ = merged_setup
    with pytest.raises(ValueError, match="merged generational"):
        export_legacy_index(merged_dir, str(tmp_path / "legacy"))


def test_cli_merge_subcommand(merged_setup, tmp_path, capsys):
    import json

    from searchengine_ray.__main__ import main

    root = os.path.dirname(merged_setup[1])
    out2 = str(tmp_path / "cli_merged")
    assert main(["merge", "--out", out2,
                 os.path.join(root, "a"), os.path.join(root, "b")]) == 0
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert got["num_docs"] == 300


def test_merge_rejects_doc_id_gap(merged_setup, tmp_path):
    """A delta whose base does not continue the previous generation must
    be rejected (doc ids would not tile 0..N-1)."""
    full_dir, _, delta_dir, _ = merged_setup
    # delta starts at SPLIT but full already covers 0..299
    with pytest.raises(ValueError, match="expected"):
        merge_indexes([full_dir, delta_dir], str(tmp_path / "bad"))


def test_merge_rejects_config_mismatch(ray_session, small_corpus,
                                       merged_setup, tmp_path_factory):
    import ray.data

    from searchengine_ray.ids import assign_doc_ids

    root = tmp_path_factory.mktemp("mismatch")
    with_ids = assign_doc_ids(
        ray.data.from_arrow(small_corpus).repartition(2)
    ).to_pandas()
    part_b = with_ids[with_ids.doc_id >= SPLIT]
    b2 = str(root / "b2")
    build_index(
        ray.data.from_pandas(part_b), b2,
        _cfg(doc_id_base=SPLIT, num_buckets=8),  # differs from base
        input_description="merge-test-b2",
    )
    # base generation: the test-a build from merged_setup
    a_dir = os.path.join(os.path.dirname(merged_setup[1]), "a")
    with pytest.raises(ValueError, match="num_buckets"):
        merge_indexes([a_dir, b2], str(root / "out"))

def test_remerge_different_generation_set_resets_outputs(
        merged_setup, tmp_path):
    """Code-review r5 regression: re-merging a DIFFERENT generation set
    into the same out_dir must not resume off the previous merge's files
    — their wdt bounds were scaled for the old merged avgdl and the old
    docstats tile a different doc-id space.  Merging [a] into a dir that
    previously held merge([a, b]) must serve exactly generation a."""
    from searchengine_ray.query.reader import DiskIndexReader

    full_dir, out_dir, b_dir, _ = merged_setup
    # reconstruct generation a's dir from the merged manifest lineage
    with open(os.path.join(out_dir, "manifest.json")) as f:
        merged_manifest = json.load(f)
    a_dir = merged_manifest["merged_from"][0]["dir"]

    re_out = str(tmp_path / "re_out")
    merge_indexes([a_dir, b_dir], re_out)
    n_both = DiskIndexReader(re_out).num_docs
    stale_stats = set(os.listdir(os.path.join(re_out, "docstats")))

    manifest_a = merge_indexes([a_dir], re_out)
    r = DiskIndexReader(re_out)
    ra = DiskIndexReader(a_dir)
    assert r.num_docs == ra.num_docs < n_both
    assert manifest_a["num_docs"] == ra.num_docs
    # the larger merge's docstats (and its generation-b segments) are gone
    assert set(os.listdir(os.path.join(re_out, "docstats"))) < stale_stats
    assert r.get_vocabulary() == ra.get_vocabulary()
    # identical re-merge resumes (files untouched)
    import time as _t
    seg_dir = os.path.join(re_out, "segments")
    before = {f: os.path.getmtime(os.path.join(seg_dir, f))
              for f in os.listdir(seg_dir)}
    merge_indexes([a_dir], re_out)
    after = {f: os.path.getmtime(os.path.join(seg_dir, f))
             for f in os.listdir(seg_dir)}
    assert after == before


def test_merge_refuses_build_index_out_dir(merged_setup):
    """Pointing the merge at a build_index output must raise, not wipe."""
    full_dir, out_dir, b_dir, _ = merged_setup
    with open(os.path.join(out_dir, "manifest.json")) as f:
        a_dir = json.load(f)["merged_from"][0]["dir"]
    with pytest.raises(ValueError, match="refusing"):
        merge_indexes([a_dir], full_dir)



def test_merge_refuses_crashed_build_index_out_dir(merged_setup, tmp_path):
    """A build_index dir that crashed before its manifest commit holds
    segments/ and docstats/ but neither a manifest nor a merge
    fingerprint: the merge must refuse and leave it as it was."""
    import shutil

    full_dir, out_dir, _, _ = merged_setup
    with open(os.path.join(out_dir, "manifest.json")) as f:
        a_dir = json.load(f)["merged_from"][0]["dir"]
    crashed = str(tmp_path / "crashed")
    shutil.copytree(full_dir, crashed)
    os.remove(os.path.join(crashed, "manifest.json"))
    before = {sub: sorted(os.listdir(os.path.join(crashed, sub)))
              for sub in ("segments", "docstats")}
    assert all(before.values())
    with pytest.raises(ValueError, match="refusing"):
        merge_indexes([a_dir], crashed)
    assert {sub: sorted(os.listdir(os.path.join(crashed, sub)))
            for sub in before} == before
    assert not os.path.exists(os.path.join(crashed, "_MERGE_FINGERPRINT"))
