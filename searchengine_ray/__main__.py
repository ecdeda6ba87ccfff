"""CLI — the headless equivalent of the reference's GUI workflow
(load corpus -> index -> search, /root/reference/main.py + interface/).

Usage:
  python -m searchengine_ray build  --corpus PATH --index DIR [--analyzer reference|whitespace|spanish]
  python -m searchengine_ray query  --index DIR "raw query" [--mode bm25|default|bool] [-k 10]
  python -m searchengine_ray spell  --index DIR "misspelled words"
  python -m searchengine_ray vocab  --index DIR [--limit 20]
  python -m searchengine_ray merge  --out DIR PART_DIR [PART_DIR ...]
  python -m searchengine_ray verify --corpus PATH --index DIR [--no-ids]
  python -m searchengine_ray stats  --index DIR

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)


def cmd_build(args) -> int:
    _ensure_ray()
    import ray.data

    from .build import IndexBuildConfig, build_index

    cfg = IndexBuildConfig(analyzer=args.analyzer)
    corpus = ray.data.read_parquet(args.corpus)
    manifest = build_index(
        corpus, args.index, cfg, input_description=args.corpus
    )
    print(json.dumps(
        {k: manifest[k] for k in
         ("num_docs", "total_tokens", "avg_doc_length", "build_seconds")}
    ))
    return 0


def cmd_query(args) -> int:
    from .query.engine import QueryEngine

    eng = QueryEngine(args.index)
    if args.mode == "bool":
        docs = eng.boolean_query(args.query)
        for d in docs[: args.k]:
            print(f"{d}\t{eng.index.get_title(int(d))}")
        print(f"# {docs.size} matching documents", file=sys.stderr)
    else:
        ranked = eng.ranked_query(
            args.query, use_okapi=(args.mode == "bm25"), top_k=args.k
        )
        for d, s in ranked:
            print(f"{d}\t{s:.6f}\t{eng.index.get_title(d)}")
    return 0


def cmd_spell(args) -> int:
    from .query.engine import QueryEngine
    from .query.spelling import SpellingCorrection

    eng = QueryEngine(args.index)
    print(SpellingCorrection(eng.index).suggest(args.query))
    return 0


def cmd_vocab(args) -> int:
    from .query.engine import QueryEngine

    eng = QueryEngine(args.index)
    vocab = eng.index.get_vocabulary()
    for t in vocab[: args.limit]:
        print(f"{t}\t{eng.index.df(t)}")
    print(f"# {len(vocab)} terms", file=sys.stderr)
    return 0


def cmd_merge(args) -> int:
    _ensure_ray()
    from .merge import merge_indexes

    manifest = merge_indexes(args.parts, args.out)
    print(json.dumps(
        {k: manifest[k] for k in
         ("num_docs", "total_tokens", "avg_doc_length", "build_seconds")}
    ))
    return 0


def cmd_verify(args) -> int:
    _ensure_ray()
    from .verify import verify_index_content

    report = verify_index_content(
        args.corpus, args.index, check_ids=not args.no_ids
    )
    print(json.dumps(report))
    return 0 if report["passed"] else 1


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def cmd_stats(args) -> int:
    """Where an index's bytes and build time went: per segment, its doc
    range ``[doc_lo, doc_hi)`` (the universe of its Elias–Fano doc
    streams), the ``.bin``'s doc / tf / pos stream bytes and the
    parquet catalog's bytes, with the totals' doc bytes and bits per
    posting (over Σ df) and pos bytes per position (over Σ cf); the
    catalog's compressed bytes per column over all segments (from the
    parquet footers); B/doc over segments/ and docstats/
    (perfbench's ``index_bytes_per_doc``) and, apart from it, the
    docweights/ bytes and the build's docterms/ bytes (the encoded
    fragments the reducers read, from the manifest); the manifest's
    per-stage seconds and reduce phase split (total/max/mean per
    phase)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .layout import (DOCSTATS_DIR, DOCWEIGHTS_DIR, MANIFEST_NAME,
                         segment_bin_path)

    with open(os.path.join(args.index, MANIFEST_NAME)) as f:
        manifest = json.load(f)
    segments = []
    catalog_columns: dict[str, int] = {}
    for seg in manifest["segments"]:
        path = os.path.join(args.index, "segments", seg["file"])
        lens = pq.read_table(
            path, columns=["df", "cf", "doc_len", "tf_len", "pos_len"])
        row = {"file": seg["file"], "rows": lens.num_rows,
               "doc_lo": seg["doc_lo"], "doc_hi": seg["doc_hi"]}
        for c in ("df", "cf"):
            row[c] = pc.sum(lens.column(c)).as_py() or 0
        for c in ("doc", "tf", "pos"):
            row[f"{c}_bytes"] = pc.sum(lens.column(f"{c}_len")).as_py() or 0
        row["bin_bytes"] = os.path.getsize(segment_bin_path(path))
        row["parquet_bytes"] = os.path.getsize(path)
        segments.append(row)
        md = pq.read_metadata(path)
        for g in range(md.num_row_groups):
            for c in range(md.num_columns):
                cc = md.row_group(g).column(c)
                name = cc.path_in_schema.split(".")[0]
                catalog_columns[name] = (catalog_columns.get(name, 0)
                                         + cc.total_compressed_size)
    totals = {k: sum(r[k] for r in segments)
              for k in ("rows", "df", "cf", "doc_bytes", "tf_bytes",
                        "pos_bytes", "bin_bytes", "parquet_bytes")}
    totals["doc_bytes_per_posting"] = (
        totals["doc_bytes"] / totals["df"] if totals["df"] else 0.0)
    totals["doc_bits_per_posting"] = 8 * totals["doc_bytes_per_posting"]
    totals["pos_bytes_per_position"] = (
        totals["pos_bytes"] / totals["cf"] if totals["cf"] else 0.0)
    num_docs = manifest["num_docs"]
    docstats_bytes = _tree_bytes(os.path.join(args.index, DOCSTATS_DIR))
    index_bytes = (
        _tree_bytes(os.path.join(args.index, "segments")) + docstats_bytes)
    plan = manifest.get("exchange_plan") or {}
    print(json.dumps({
        "num_docs": num_docs,
        "bytes_per_doc": index_bytes / num_docs if num_docs else 0.0,
        "docstats_bytes": docstats_bytes,
        "docweights_bytes": _tree_bytes(
            os.path.join(args.index, DOCWEIGHTS_DIR)),
        "docterms_bytes": plan.get("docterms_bytes"),
        "totals": totals,
        "catalog_column_bytes": catalog_columns,
        "segments": segments,
        "stage_seconds": manifest.get("stage_seconds"),
        "tokenize_plan": manifest.get("tokenize_plan"),
        "exchange_phases": plan.get("phases"),
    }, indent=1))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="searchengine_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index from a parquet corpus")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--analyzer", default="reference",
                   choices=["reference", "whitespace", "spanish"])
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="query an index")
    q.add_argument("--index", required=True)
    q.add_argument("query")
    q.add_argument("--mode", default="bm25",
                   choices=["bm25", "default", "bool"])
    q.add_argument("-k", type=int, default=10)
    q.set_defaults(fn=cmd_query)

    s = sub.add_parser("spell", help="spelling suggestions from the vocab")
    s.add_argument("--index", required=True)
    s.add_argument("query")
    s.set_defaults(fn=cmd_spell)

    v = sub.add_parser("vocab", help="dump vocabulary with df")
    v.add_argument("--index", required=True)
    v.add_argument("--limit", type=int, default=20)
    v.set_defaults(fn=cmd_vocab)

    mg = sub.add_parser(
        "merge",
        help="fold generation indexes (base + doc_id_base deltas) into "
             "one servable index",
    )
    mg.add_argument("parts", nargs="+",
                    help="generation index dirs (any order; doc ranges "
                         "must tile 0..N-1)")
    mg.add_argument("--out", required=True)
    mg.set_defaults(fn=cmd_merge)

    vf = sub.add_parser(
        "verify",
        help="check per-row content sha256 equality: index vs source corpus",
    )
    vf.add_argument("--corpus", required=True)
    vf.add_argument("--index", required=True)
    vf.add_argument("--no-ids", action="store_true",
                    help="skip the doc_id binding check (content multiset only)")
    vf.set_defaults(fn=cmd_verify)

    st = sub.add_parser(
        "stats",
        help="index bytes per segment stream, B/doc, and the build's "
             "stage and exchange-phase split",
    )
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
