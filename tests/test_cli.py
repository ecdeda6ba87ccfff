"""Smoke tests for the headless CLI (`python -m searchengine_ray ...`) —
the `ray job submit` entry surface.  main(argv) is invoked in-process
inside the session Ray fixture (_ensure_ray's guarded init is a no-op
there), so the whole build -> query -> spell -> vocab -> verify chain
runs once without extra Ray sessions."""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

from searchengine_ray.__main__ import main


@pytest.fixture(scope="module")
def cli_env(ray_session, small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = str(root / "corpus")
    os.makedirs(corpus_dir)
    pq.write_table(small_corpus, os.path.join(corpus_dir, "part0.parquet"))
    index_dir = str(root / "index")
    return corpus_dir, index_dir


def test_build_then_query_chain(cli_env, capsys):
    corpus_dir, index_dir = cli_env

    assert main(["build", "--corpus", corpus_dir,
                 "--index", index_dir]) == 0
    built = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert built["num_docs"] == 300
    assert built["total_tokens"] > 0

    assert main(["query", "--index", index_dir, "the", "-k", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(out) <= 5
    doc, score, _title = out[0].split("\t")
    assert float(score) > 0 and int(doc) >= 0

    assert main(["query", "--index", index_dir, "--mode", "bool",
                 "the"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(int(line.split("\t")[0]) >= 0 for line in out)

    assert main(["spell", "--index", index_dir, "teh"]) == 0
    assert capsys.readouterr().out.strip()

    assert main(["vocab", "--index", index_dir, "--limit", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    term, df = out[0].split("\t")
    assert term and int(df) >= 1


def test_verify_subcommand(cli_env, capsys):
    corpus_dir, index_dir = cli_env
    assert main(["verify", "--corpus", corpus_dir,
                 "--index", index_dir]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["passed"] is True


def test_stats_subcommand(cli_env, capsys):
    from searchengine_ray.layout import segment_bin_path

    _, index_dir = cli_env
    assert main(["stats", "--index", index_dir]) == 0
    st = json.loads(capsys.readouterr().out)
    assert st["num_docs"] == 300
    assert st["segments"]
    for seg in st["segments"]:
        path = os.path.join(index_dir, "segments", seg["file"])
        assert seg["bin_bytes"] == os.path.getsize(segment_bin_path(path))
        assert seg["bin_bytes"] == (seg["doc_bytes"] + seg["tf_bytes"]
                                    + seg["pos_bytes"])
        assert seg["parquet_bytes"] == os.path.getsize(path)
    tot = st["totals"]
    assert tot["bin_bytes"] == sum(s["bin_bytes"] for s in st["segments"])
    # stream bytes per posting / per position, over the catalogs' df / cf
    cats = [pq.read_table(os.path.join(index_dir, "segments", s["file"]),
                          columns=["df", "cf", "doc_len", "pos_len"])
            for s in st["segments"]]
    sums = {c: sum(sum(t.column(c).to_pylist()) for t in cats)
            for c in ("df", "cf", "doc_len", "pos_len")}
    assert (tot["df"], tot["cf"]) == (sums["df"], sums["cf"])
    assert tot["doc_bytes_per_posting"] == sums["doc_len"] / sums["df"]
    assert tot["pos_bytes_per_position"] == sums["pos_len"] / sums["cf"]
    # the catalog's per-column split (segment format v8: no stored skip
    # offsets or counts), compressed column chunks inside the files
    cols = st["catalog_column_bytes"]
    assert list(cols) == ["term", "shard", "bucket", "df", "cf", "max_wdt",
                          "doc_len", "tf_len", "pos_len", "skip_last_doc",
                          "skip_max_wdt"]
    assert all(v > 0 for v in cols.values())
    assert sum(cols.values()) < tot["parquet_bytes"]
    assert st["bytes_per_doc"] * 300 > tot["bin_bytes"] + tot["parquet_bytes"]
    # docweights: two .npy arrays of 300 x 8 B plus their headers, kept
    # out of bytes_per_doc
    from searchengine_ray.layout import docweights_paths

    assert st["docweights_bytes"] == sum(
        os.path.getsize(p) for p in docweights_paths(index_dir))
    assert st["docweights_bytes"] > 2 * 300 * 8
    counted = sum(os.path.getsize(os.path.join(root, f))
                  for sub in ("segments", "docstats")
                  for root, _, files in os.walk(os.path.join(index_dir, sub))
                  for f in files)
    assert st["bytes_per_doc"] * 300 == pytest.approx(counted)
    ds_dir = os.path.join(index_dir, "docstats")
    assert st["docstats_bytes"] == sum(
        os.path.getsize(os.path.join(ds_dir, f)) for f in os.listdir(ds_dir))
    # docterms: the exchange's input, as the manifest recorded it (the
    # build leaves docterms/ in place as its resumable intermediate)
    dt_dir = os.path.join(index_dir, "docterms")
    assert st["docterms_bytes"] == sum(
        os.path.getsize(os.path.join(dt_dir, f))
        for f in os.listdir(dt_dir) if f.endswith(".parquet"))
    assert st["docterms_bytes"] > 0
    assert set(st["exchange_phases"]) == {"reduce"}
    for side in st["exchange_phases"].values():
        for phase in side.values():
            assert set(phase) == {"total", "max", "mean"}
    assert "finalize" in st["stage_seconds"]
    assert set(st["tokenize_plan"]["phases"]) == {
        "docs", "analyze", "group", "write"}
