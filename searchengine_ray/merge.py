"""Generational index merge — the incremental-indexing path.

At 10^12 files a corpus is never re-indexed from scratch: new documents
arrive, get dense doc ids CONTINUING the existing index's id space
(``ids.assign_doc_ids(..., base=N)`` / ``IndexBuildConfig.doc_id_base``),
are built into a DELTA index with the same pipeline, and the delta is
folded into the servable index here.  The reference has no incremental
path (its GUI re-runs the full SPIMI build per corpus,
/root/reference/engine/interface/model.py); this module is the Ray-era
capability its design implies once doc ids are deterministic.

Merge is metadata-plus-copy, NOT a postings merge: generations own
disjoint dense doc ranges, every segment row's doc stream starts with
an absolute doc id, and the reader already unions multiple fragment
rows per term in first-doc order — so segments (parquet catalog plus
``.bin`` postings) are taken as-is.  The only rewrite is the block-max
WAND bounds in the parquet: ``max_wdt`` /
``skip_max_wdt`` were quantized against each generation's OWN avgdl,
and wdt grows monotonically with avgdl, with
``wdt(avgdl') <= (avgdl'/avgdl) * wdt(avgdl)`` for ``avgdl' > avgdl``
(denominator algebra on the Okapi form — see ``_wdt_bound_scale``).
Scaling each generation's stored bounds by ``max(1, avgdl'/avgdl_gen)``
keeps every bound a true upper bound under the merged corpus's avgdl,
so WAND stays exact (rank-identical to the exact scorer); bounds are
merely a little looser for old generations.  Exact scoring itself never
reads the stored bounds — it recomputes wdt from tftd + doc stats with
the merged avgdl.

Per-file work (copy or two-column rewrite) runs as Ray tasks — the
merge is index-sized I/O, embarrassingly parallel, and resumable: a
``_MERGE_FINGERPRINT`` marker written before any copy records the
generation set the on-disk files belong to, a re-run with the same set
skips existing destination files (tmp+rename writes), and a re-run with
a DIFFERENT set wipes the previous merge's outputs first (their wdt
bounds were scaled for the old merged avgdl and their docstats tile a
different doc-id space).  Pointing the merge at a ``build_index`` output
dir raises instead of overwriting.

Limits: per-generation salting may differ (heavy detection sees only
its own corpus) — fine for serving (salt is an opaque row key; the
reader orders fragments by first doc), but ``legacy.export_legacy_index``
on a merged index is not byte-order-guaranteed and is refused there.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import ray

from .build import (MANIFEST_NAME, SEGMENT_FORMAT, _dir_lineage,
                    segment_bin_path)

#: cfg fields that must agree across generations: they define token →
#: (term, bucket, shard) identity.  Fields NOT here (batch sizes,
#: reducer counts, heavy thresholds, doc_id_base) only shape the build.
_COMPAT_FIELDS = ("analyzer", "num_buckets", "docs_per_shard",
                  "skip_block", "content_col", "title_col")


def _wdt_bound_scale(avgdl_new: float, avgdl_gen: float) -> float:
    """Factor that keeps a generation's stored wdt bounds valid under
    the merged avgdl.  wdt = (k1+1)tf / (k1((1-b) + b*dl/A) + tf) is
    increasing in A, and for A' > A the denominator satisfies
    den(A') = k1(1-b) + tf + k1*b*dl/A' >= (A/A') * den(A), hence
    wdt(A') <= (A'/A) * wdt(A).  For A' <= A the old bound still holds
    as-is (wdt only shrinks)."""
    if avgdl_gen <= 0:
        return 1.0
    return max(1.0, avgdl_new / avgdl_gen)


@ray.remote
def _copy_segment(src: str, dst: str, scale: float,
                  row_group_size: int) -> int:
    """Bring one segment into the merged index: its ``.bin`` is copied
    as-is, and its parquet is copied too when the generation's wdt bounds
    are already valid (scale == 1), else rewritten with max_wdt /
    skip_max_wdt multiplied by ``scale`` (every other column passes
    through untouched).  Idempotent: tmp + rename, the parquet last."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    if os.path.exists(dst) and os.path.getsize(dst) > 0:
        return 0  # resume: already merged
    bin_dst = segment_bin_path(dst)
    shutil.copyfile(segment_bin_path(src), bin_dst + ".tmp")
    os.replace(bin_dst + ".tmp", bin_dst)
    tmp = dst + ".tmp"
    if scale == 1.0:
        shutil.copyfile(src, tmp)
        os.replace(tmp, dst)
        return 1
    tbl = pq.read_table(src)
    maxw = pc.multiply(tbl.column("max_wdt"), scale)
    skip = tbl.column("skip_max_wdt").combine_chunks()
    if isinstance(skip, pa.ChunkedArray):
        skip = skip.chunk(0)
    skip_scaled = pa.ListArray.from_arrays(
        skip.offsets, pc.multiply(skip.values, scale))
    tbl = tbl.set_column(
        tbl.schema.get_field_index("max_wdt"), "max_wdt", maxw)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("skip_max_wdt"), "skip_max_wdt",
        pa.chunked_array([skip_scaled]))
    pq.write_table(tbl, tmp, row_group_size=row_group_size)
    os.replace(tmp, dst)
    return 1


def merge_indexes(part_dirs: list[str], out_dir: str) -> dict:
    """Fold generation indexes (one zero-based + deltas built with
    ``doc_id_base`` continuing each other) into one servable index at
    ``out_dir``.  Returns the merged manifest.  Validates that the
    generations tile doc ids 0..N-1 contiguously and were built with
    compatible configs; raises otherwise."""
    t0 = time.perf_counter()
    parts = []
    for d in part_dirs:
        with open(os.path.join(d, MANIFEST_NAME)) as f:
            parts.append((d, json.load(f)))
    parts.sort(key=lambda p: p[1].get("doc_id_base", 0))

    expect = 0
    for d, m in parts:
        fmt = m.get("segment_format", 0)
        if fmt != SEGMENT_FORMAT:
            raise ValueError(
                f"{d}: segment format {fmt} != {SEGMENT_FORMAT}; rebuild")
        base = m.get("doc_id_base", 0)
        if base != expect:
            raise ValueError(
                f"{d}: doc ids start at {base}, expected {expect} — "
                f"generations must tile 0..N-1 contiguously (build the "
                f"delta with IndexBuildConfig(doc_id_base={expect}))")
        expect = base + m["num_docs"]
    cfg0 = parts[0][1]["config"]
    for d, m in parts[1:]:
        for f in _COMPAT_FIELDS:
            if m["config"].get(f) != cfg0.get(f):
                raise ValueError(
                    f"{d}: config field {f!r} = {m['config'].get(f)!r} "
                    f"differs from base generation's {cfg0.get(f)!r}")

    num_docs = expect
    total_tokens = sum(m["total_tokens"] for _, m in parts)
    avgdl = (total_tokens / num_docs) if num_docs else 0.0

    seg_out = os.path.join(out_dir, "segments")
    stats_out = os.path.join(out_dir, "docstats")

    # Resume safety: per-file "exists with size > 0" checks are only
    # valid if the surviving files came from THIS generation set — a
    # previous merge of a different set into the same out_dir leaves
    # segments whose wdt bounds were scaled for the OLD merged avgdl
    # (silently breaking block-max WAND's upper-bound invariant when the
    # new avgdl is larger) and docstats for a different doc-id space.
    # The fingerprint marker, written BEFORE any file copy, identifies
    # the generation set the on-disk files belong to: matching marker →
    # resume; anything else under out_dir → wipe the merge outputs
    # (refusing, rather than wiping, when out_dir holds a non-merge
    # index — someone pointed the merge at a build_index output, or at a
    # crashed build_index dir with segments but no manifest yet).
    fingerprint = "merge:" + ",".join(
        str(m.get("fingerprint")) for _, m in parts)
    marker_path = os.path.join(out_dir, "_MERGE_FINGERPRINT")
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prev = json.load(f)
        if "merged_from" not in prev:
            raise ValueError(
                f"{out_dir} holds an index built by build_index, not a "
                f"previous merge; refusing to overwrite — pick an empty "
                f"out_dir or delete it first")
    elif not os.path.exists(marker_path) and any(
            os.path.isdir(p) and os.listdir(p) for p in (seg_out, stats_out)):
        raise ValueError(
            f"{out_dir} holds segments/ or docstats/ but neither a manifest "
            f"nor a merge fingerprint (a crashed build_index?); refusing to "
            f"overwrite — pick an empty out_dir or delete it first")
    prev_fp = None
    if os.path.exists(marker_path):
        with open(marker_path) as f:
            prev_fp = f.read()
    if prev_fp != fingerprint:
        shutil.rmtree(seg_out, ignore_errors=True)
        shutil.rmtree(stats_out, ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "docstats_cache"),
                      ignore_errors=True)
        if os.path.exists(manifest_path):
            os.remove(manifest_path)

    os.makedirs(seg_out, exist_ok=True)
    os.makedirs(stats_out, exist_ok=True)
    tmp_marker = marker_path + ".tmp"
    with open(tmp_marker, "w") as f:
        f.write(fingerprint)
    os.replace(tmp_marker, marker_path)

    seg_entries, gen_meta, copy_refs = [], [], []
    for gi, (d, m) in enumerate(parts):
        scale = _wdt_bound_scale(avgdl, m["avg_doc_length"])
        # quantization already rounds bounds UP, so a hair above 1.0
        # (float noise when avgdls are equal) still needs no rewrite
        if abs(scale - 1.0) < 1e-12:
            scale = 1.0
        gen_meta.append({
            "dir": os.path.abspath(d),
            "doc_id_base": m.get("doc_id_base", 0),
            "num_docs": m["num_docs"],
            "avg_doc_length": m["avg_doc_length"],
            "wdt_bound_scale": scale,
            "fingerprint": m.get("fingerprint"),
        })
        for seg in m["segments"]:
            dst_name = f"g{gi:02d}_{seg['file']}"
            copy_refs.append(_copy_segment.remote(
                os.path.join(d, "segments", seg["file"]),
                os.path.join(seg_out, dst_name),
                scale,
                int(cfg0.get("segment_row_group_size", 512)),
            ))
            seg_entries.append({**seg, "file": dst_name, "generation": gi})
        # docstats filenames encode absolute doc ranges -> disjoint
        # across generations; sidecar caches (.npy) are reader-local and
        # rebuilt for the merged dir, so only the parquet files move
        src_stats = os.path.join(d, m.get("doc_stats_dir", "docstats"))
        for f in sorted(os.listdir(src_stats)):
            if not f.endswith(".parquet"):
                continue
            dst = os.path.join(stats_out, f)
            if not os.path.exists(dst):
                tmp = dst + ".tmp"
                shutil.copyfile(os.path.join(src_stats, f), tmp)
                os.replace(tmp, dst)
    ray.get(copy_refs)

    heavy: dict[str, int] = {}
    for _, m in parts:
        for t, w in m.get("heavy_terms", {}).items():
            heavy[t] = max(heavy.get(t, 0), int(w))

    manifest = {
        "version": 1,
        "segment_format": SEGMENT_FORMAT,
        "input": "merged:" + ",".join(m["input"] for _, m in parts),
        "config": {**cfg0, "doc_id_base": 0},
        "fingerprint": fingerprint,
        "num_docs": num_docs,
        "doc_id_base": 0,
        "total_tokens": total_tokens,
        "avg_doc_length": avgdl,
        "num_buckets": cfg0["num_buckets"],
        "docs_per_shard": cfg0["docs_per_shard"],
        "heavy_terms": heavy,
        "segments": seg_entries,
        "doc_stats_dir": "docstats",
        "docstats_files": _dir_lineage(stats_out),
        "merged_from": gen_meta,
        "build_seconds": time.perf_counter() - t0,
    }
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
    return manifest
