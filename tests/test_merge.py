"""Generational index merge (incremental indexing): a base index over
docs 0..N-1 plus a delta index built with ``doc_id_base=N`` over new
docs must, after ``merge.merge_indexes``, be INDISTINGUISHABLE from one
full build over the union corpus — identical vocabulary, term stats,
postings (with positions), Boolean results, and ranked top-k (exact and
block-max WAND) — even though a merged term can hold two fragments in
shard 1 (docs 128..255), one per generation."""

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
        skip_block=8,
        docs_per_shard=128,
    )
    base.update(over)
    return IndexBuildConfig(**base)


@pytest.fixture(scope="module")
def with_ids(ray_session, small_corpus):
    """The union corpus with doc ids assigned once (the same
    deterministic assignment the full build used), in doc-id order."""
    import ray.data

    from searchengine_ray.ids import assign_doc_ids

    return assign_doc_ids(
        ray.data.from_arrow(small_corpus).repartition(4)
    ).to_pandas().sort_values("doc_id", ignore_index=True)


@pytest.fixture(scope="module")
def merged_setup(with_ids, built_index, tmp_path_factory):
    """(full_index_dir, merged_index_dir, delta_dir, corpus_parquet_dir).

    The id-split halves of the union corpus build independently, the
    delta with doc_id_base=SPLIT, then merge."""
    import ray.data

    root = tmp_path_factory.mktemp("merge")

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


def test_merged_skip_offsets_equal_v7_oracle(readers):
    """The merged index's fragments (generations share (term, shard)
    pairs) derive the skip offsets v7 stored, fragment by fragment."""
    from tests.skip_oracle import assert_reader_matches_v7

    _, merged = readers
    assert assert_reader_matches_v7(merged) > len(merged.get_vocabulary())


def _assert_block_bounds(merged):
    """Every skip block's ``skip_max_wdt`` (the stored bound times its
    segment's ``wdt_bound_scale``) bounds the block's true max wdt under
    the reader's avgdl, and the blocks' maximum is the fragment's
    ``max_wdt``; some segment's bounds were scaled."""
    from searchengine_ray.build import bm25_wdt

    n_scaled = 0
    for term in merged.get_vocabulary():
        for fr in merged.fragments(term):
            n_scaled += merged._bound_scale[fr.file_idx] > 1.0
            p = merged._decode_fragment(fr, False)
            wdt = bm25_wdt(p.tftds, merged.doc_length[p.doc_ids],
                           merged.avg_doc_length)
            sk = merged.skip_lists(fr, merged.read_fragment_row(fr))
            assert sk["skip_max_wdt"].max() == fr.max_wdt, term
            ends = np.cumsum(sk["skip_count"])
            for bound, lo, hi in zip(sk["skip_max_wdt"],
                                     ends - sk["skip_count"], ends):
                assert bound >= wdt[lo:hi].max() - 1e-12, term
    assert n_scaled


def test_block_bounds_stay_upper_bounds(readers):
    """The merged index's skip-block bounds hold under the MERGED
    avgdl."""
    _assert_block_bounds(readers[1])


def test_merged_catalog_compact(merged_setup):
    """The merge copies every catalog as its generation wrote it, so the
    merged catalogs keep segment format v8's encoding: no derivable skip
    columns, zstd, no dictionary pages, no statistics.  The merged
    segments and docstats take no more bytes per doc than the
    generations'."""
    _, merged_dir, _, _ = merged_setup
    with open(os.path.join(merged_dir, "manifest.json")) as f:
        manifest = json.load(f)
    gens = manifest["merged_from"]
    assert any(s["wdt_bound_scale"] > 1.0 for s in manifest["segments"])
    for seg in manifest["segments"]:
        md = pq.read_metadata(os.path.join(merged_dir, "segments",
                                           seg["file"]))
        names = md.schema.to_arrow_schema().names
        assert not {"skip_offset", "skip_tf_offset", "skip_count"} & set(
            names)
        for g in range(md.num_row_groups):
            for c in range(md.num_columns):
                cc = md.row_group(g).column(c)
                assert cc.compression == "ZSTD"
                assert not cc.has_dictionary_page
                assert not cc.is_stats_set

    def index_bytes(d):
        return sum(os.path.getsize(os.path.join(root, f))
                   for sub in ("segments", "docstats")
                   for root, _, files in os.walk(os.path.join(d, sub))
                   for f in files)

    merged = index_bytes(merged_dir)
    assert merged / manifest["num_docs"] <= sum(
        index_bytes(g["dir"]) for g in gens) / sum(
        g["num_docs"] for g in gens)


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


SPLIT_A = 100  # the base generation again split: docs 0..99, 100..199


@pytest.fixture(scope="module")
def remerged_setup(with_ids, merged_setup, tmp_path_factory):
    """(full_index_dir, remerged_index_dir, inner_merged_dir): docs
    0..199 merged from two generations, then merged as ONE generation
    with the delta over docs 200..299.  Docs 100..199 are shorter than
    docs 0..199 on average, and those shorter than the union, so that
    generation's wdt bounds are scaled at both merges."""
    import ray.data

    full_dir, _, b_dir, _ = merged_setup
    root = tmp_path_factory.mktemp("remerge")
    a1, a2, ab, out = (str(root / n) for n in ("a1", "a2", "ab", "out"))
    build_index(ray.data.from_pandas(
        with_ids[with_ids.doc_id < SPLIT_A].reset_index(drop=True)),
        a1, _cfg(), input_description="remerge-a1")
    build_index(ray.data.from_pandas(
        with_ids[(with_ids.doc_id >= SPLIT_A) & (with_ids.doc_id < SPLIT)]
        .reset_index(drop=True)),
        a2, _cfg(doc_id_base=SPLIT_A), input_description="remerge-a2")
    merge_indexes([a1, a2], ab)
    merge_indexes([ab, b_dir], out)
    return full_dir, out, ab


def test_remerge_composes_bound_scales(remerged_setup):
    """A merged index merged again: each of its segments' bound scale is
    the scale it carried times the new merge's own factor."""
    from searchengine_ray.merge import _wdt_bound_scale

    _, out, ab = remerged_setup
    with open(os.path.join(out, "manifest.json")) as f:
        final = json.load(f)
    with open(os.path.join(ab, "manifest.json")) as f:
        inner = json.load(f)
    step = _wdt_bound_scale(final["avg_doc_length"], inner["avg_doc_length"])
    assert step > 1.0
    carried = {"g00_" + s["file"]: s["wdt_bound_scale"]
               for s in inner["segments"]}
    assert max(carried.values()) > 1.0
    for seg in final["segments"]:
        if seg["generation"] == 0:
            assert seg["wdt_bound_scale"] == pytest.approx(
                carried[seg["file"]] * step, rel=1e-15)


def test_remerge_bounds_and_wand_exact(remerged_setup):
    """The twice-merged index's skip-block bounds hold under its final
    avgdl, and block-max WAND ranks exactly as the full build's exact
    scorer does."""
    from searchengine_ray.query.engine import QueryEngine
    from searchengine_ray.query.reader import DiskIndexReader

    full_dir, out, _ = remerged_setup
    _assert_block_bounds(DiskIndexReader(out))
    ef, em = QueryEngine(full_dir), QueryEngine(out)
    for q in QUERIES[:3]:
        want = ef.ranked_query(q, use_okapi=True, top_k=10, use_wand=False)
        assert em.ranked_query(q, use_okapi=True, top_k=10,
                               use_wand=True) == want, q
        assert em.ranked_query(q, use_okapi=True, top_k=10,
                               use_wand=False) == want, q


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


def test_legacy_export_merged_matches_full_build(merged_setup, tmp_path):
    """The legacy export of the merged index and of the full build over
    the same corpus are the same bytes and the same side tables."""
    from searchengine_ray.legacy import export_legacy_index

    full_dir, merged_dir, _, _ = merged_setup
    out_f, out_m = str(tmp_path / "full"), str(tmp_path / "merged")
    export_legacy_index(full_dir, out_f)
    export_legacy_index(merged_dir, out_m)
    for name in ("postings.bin", "doc_weights.bin"):
        with open(os.path.join(out_f, name), "rb") as a, \
                open(os.path.join(out_m, name), "rb") as b:
            assert a.read() == b.read(), name
    for name in ("term_positions.parquet", "doc_metadata.parquet"):
        assert pq.read_table(os.path.join(out_f, name)).equals(
            pq.read_table(os.path.join(out_m, name))), name


def test_docweights_written_by_merge(merged_setup, oracle):
    """merge_indexes writes the merged docweights arrays over the merged
    docstats: one entry per doc of the whole id space."""
    from searchengine_ray.layout import docweights_paths

    _, merged_dir, _, _ = merged_setup
    dl_p, ld_p = docweights_paths(merged_dir)
    dl, ld = np.load(dl_p), np.load(ld_p)
    assert dl.shape == ld.shape == (oracle.num_docs,)
    assert dl.tolist() == [oracle.doc_length[d]
                           for d in range(oracle.num_docs)]
    assert ld == pytest.approx(
        [oracle.l_d[d] for d in range(oracle.num_docs)], rel=1e-12)


@pytest.mark.parametrize("gen", [0, 1])
def test_merge_refuses_generation_missing_a_docstats_file(merged_setup,
                                                          tmp_path, gen):
    """A generation that lost a docstats file must not merge with zero
    doc weights for the lost docs: the docstats pass refuses the hole it
    leaves in the base generation, and a delta missing its last docs
    leaves fewer docs than the manifests sum to."""
    import shutil

    _, out_dir, b_dir, _ = merged_setup
    with open(os.path.join(out_dir, "manifest.json")) as f:
        a_dir = json.load(f)["merged_from"][0]["dir"]
    gens = [a_dir, b_dir]
    gens[gen] = str(tmp_path / "gen")
    shutil.copytree([a_dir, b_dir][gen], gens[gen])
    stats = os.path.join(gens[gen], "docstats")
    names = sorted(f for f in os.listdir(stats) if f.endswith(".parquet"))
    os.remove(os.path.join(stats, names[0]))
    with pytest.raises(ValueError,
                       match=("expected dense", "manifests sum")[gen]):
        merge_indexes(gens, str(tmp_path / "out"))


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


def _copy_with_format(src: str, dst: str, key: str, fmt) -> None:
    """Copy generation ``src`` to ``dst`` with its manifest's ``key``
    removed (``fmt`` None) or set to ``fmt``."""
    import shutil

    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as f:
        m = json.load(f)
    m.pop(key)
    if fmt is not None:
        m[key] = fmt
    with open(path, "w") as f:
        json.dump(m, f)


@pytest.mark.parametrize("fmt", [None, 6, 8])
def test_merge_refuses_other_docterms_format(merged_setup, tmp_path, fmt):
    """A generation of an older docterms format (none recorded, v6 with
    hex digests, or v8 with posting-row docterms) must not merge beside
    this build's: the merge refuses any other recorded format, so the
    merged docstats never mix two layouts."""
    _, out_dir, b_dir, _ = merged_setup
    with open(os.path.join(out_dir, "manifest.json")) as f:
        a_dir = json.load(f)["merged_from"][0]["dir"]
    old = str(tmp_path / "old")
    _copy_with_format(b_dir, old, "docterms_format", fmt)
    with pytest.raises(ValueError, match="docterms_format .* rebuild"):
        merge_indexes([a_dir, old], str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("fmt", [None, 6, 7, 8])
def test_merge_refuses_other_segment_format(merged_setup, tmp_path, fmt):
    """A generation of another segment format (none recorded, v6 whose
    catalog still has a ``salt`` column, v7 whose catalog stores the
    skip offsets and whose files are snappy, or v8 whose positions are
    VByte and whose wdt bounds are float64) must not merge: the merge
    copies segments as-is, and the reader reads one format."""
    from searchengine_ray.layout import SEGMENT_FORMAT

    _, out_dir, b_dir, _ = merged_setup
    with open(os.path.join(out_dir, "manifest.json")) as f:
        a_dir = json.load(f)["merged_from"][0]["dir"]
    old = str(tmp_path / "old")
    _copy_with_format(b_dir, old, "segment_format", fmt)
    with pytest.raises(
            ValueError,
            match=f"segment_format {fmt or 0} != {SEGMENT_FORMAT}; rebuild"):
        merge_indexes([a_dir, old], str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


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
