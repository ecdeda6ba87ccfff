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
``.bin`` postings) are copied byte for byte.  Only the block-max WAND
bounds need care: ``max_wdt`` / ``skip_max_wdt`` were quantized against
each generation's OWN avgdl, and wdt grows monotonically with avgdl,
with ``wdt(avgdl') <= (avgdl'/avgdl) * wdt(avgdl)`` for
``avgdl' > avgdl`` (denominator algebra on the Okapi form — see
``_wdt_bound_scale``).  Each merged segment's manifest entry records a
``wdt_bound_scale``: its generation's ``max(1, avgdl'/avgdl_gen)``,
times the scale the segment already carried when that generation is
itself a merged index.  The reader multiplies the stored bounds by it,
which keeps every bound a true upper bound under the merged corpus's
avgdl, so WAND stays exact (rank-identical to the exact scorer); bounds
are merely a little looser for old generations.  The catalogs are not
rewritten with scaled bounds: float products compress worse than the
quantized originals, so a rewritten catalog outgrew its generation's.
Exact scoring itself never reads the stored bounds — it recomputes wdt
from tftd + doc stats with the merged avgdl.

Per-file copies run as Ray tasks — the merge is index-sized I/O,
embarrassingly parallel, and resumable: a ``_MERGE_FINGERPRINT`` marker
written before any copy records the generation set the on-disk files
belong to, a re-run with the same set skips existing destination files
(tmp+rename writes), and a re-run with a DIFFERENT set wipes the
previous merge's outputs first (its segments and docstats belong to
other generations and tile a different doc-id space).  Pointing the
merge at a ``build_index`` output dir raises instead of overwriting.

Generations can share a (term, shard) — with the default
``docs_per_shard`` every generation writes its rows to shard 0 — so a
merged term can hold several fragments per shard.  That is fine for
serving and for ``legacy.export_legacy_index``: the reader orders a
term's fragments by first doc.  The merged docweights arrays are
rewritten from the merged docstats by the build's one docstats pass,
which also checks that they tile 0..N-1 and sum to the generations'
manifest scalars.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import ray

from .build import DOCTERMS_FORMAT, _dir_lineage, write_doc_weights
from .layout import (DOCSTATS_DIR, MANIFEST_NAME, SEGMENT_FORMAT,
                     segment_bin_path)

#: cfg fields that must agree across generations: they define token →
#: (term, bucket, shard) identity.  Fields NOT here (reducer count,
#: doc_id_base) only shape the build.
_COMPAT_FIELDS = ("analyzer", "num_buckets", "docs_per_shard",
                  "skip_block")


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
def _copy_segment(src: str, dst: str) -> int:
    """Bring one segment into the merged index: its ``.bin``, then its
    parquet, copied as-is.  Idempotent: tmp + rename, the parquet
    last."""
    if os.path.exists(dst) and os.path.getsize(dst) > 0:
        return 0  # resume: already merged
    for a, b in ((segment_bin_path(src), segment_bin_path(dst)),
                 (src, dst)):
        shutil.copyfile(a, b + ".tmp")
        os.replace(b + ".tmp", b)
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
        # the docterms format fixes the docstats layout the merge copies
        for key, want in (("segment_format", SEGMENT_FORMAT),
                          ("docterms_format", DOCTERMS_FORMAT)):
            if m.get(key, 0) != want:
                raise ValueError(
                    f"{d}: {key} {m.get(key, 0)} != {want}; rebuild")
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
    stats_out = os.path.join(out_dir, DOCSTATS_DIR)

    # Resume safety: per-file "exists with size > 0" checks are only
    # valid if the surviving files came from THIS generation set — a
    # previous merge of a different set into the same out_dir leaves
    # segments of other generations under the same names (g00_...) and
    # docstats for a different doc-id space.
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
        # (float noise when avgdls are equal) still needs no scaling
        if abs(scale - 1.0) < 1e-12:
            scale = 1.0
        gen_meta.append({
            "dir": os.path.abspath(d),
            "doc_id_base": m.get("doc_id_base", 0),
            "num_docs": m["num_docs"],
            "avg_doc_length": m["avg_doc_length"],
            "fingerprint": m.get("fingerprint"),
        })
        for seg in m["segments"]:
            dst_name = f"g{gi:02d}_{seg['file']}"
            copy_refs.append(_copy_segment.remote(
                os.path.join(d, "segments", seg["file"]),
                os.path.join(seg_out, dst_name),
            ))
            # a merged input's segments already carry the factor from
            # their generation's avgdl to that merge's; the factors
            # compose, since each one bounds wdt's growth over its step
            seg_entries.append({
                **seg, "file": dst_name, "generation": gi,
                "wdt_bound_scale": seg.get("wdt_bound_scale", 1.0) * scale})
        # docstats filenames encode absolute doc ranges -> disjoint
        # across generations; the docweights arrays are rewritten below
        # over the merged docstats, so only the parquet files move
        src_stats = os.path.join(d, DOCSTATS_DIR)
        for f in sorted(os.listdir(src_stats)):
            if not f.endswith(".parquet"):
                continue
            dst = os.path.join(stats_out, f)
            if not os.path.exists(dst):
                tmp = dst + ".tmp"
                shutil.copyfile(os.path.join(src_stats, f), tmp)
                os.replace(tmp, dst)
    ray.get(copy_refs)
    # the docstats pass checks that the merged files tile 0..N-1; a
    # generation missing a docstats file must not merge with zero weights
    got = write_doc_weights(stats_out, out_dir)
    if got != (num_docs, total_tokens):
        raise ValueError(
            f"merged docstats hold (num_docs, total_tokens) = {got}, but "
            f"the generations' manifests sum to {(num_docs, total_tokens)}"
            f" — a generation's docstats/ is incomplete; rebuild it")

    manifest = {
        "version": 1,
        "segment_format": SEGMENT_FORMAT,
        "docterms_format": DOCTERMS_FORMAT,
        "input": "merged:" + ",".join(m["input"] for _, m in parts),
        "config": {**cfg0, "doc_id_base": 0},
        "fingerprint": fingerprint,
        "num_docs": num_docs,
        "doc_id_base": 0,
        "total_tokens": total_tokens,
        "avg_doc_length": avgdl,
        "num_buckets": cfg0["num_buckets"],
        "docs_per_shard": cfg0["docs_per_shard"],
        "segments": seg_entries,
        "docstats_files": _dir_lineage(stats_out),
        "merged_from": gen_meta,
        "build_seconds": time.perf_counter() - t0,
    }
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
    return manifest
