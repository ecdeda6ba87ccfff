"""Unit tests for the fragment-encoded postings exchange (docterms v10 /
segment format v9): the group-side ``_encode_file_fragments`` kernel and
the reduce-side ``_finalize_segment`` merge and wdt bounds, exercised
directly on synthetic posting arrays — no Ray, no parquet corpus.  A
segment stores no skip offsets or counts since v8; ``_finalize`` attaches
the ones the query reader derives from each row's streams
(``reader.block_offsets``), so the block tests check those.

Invariants under test (build.py ``_DOCTERMS_SCHEMA`` / ``_finalize_segment``
docstrings):
- a merged term's doc stream (values ``gap<<1 | (tf==1)``) decodes to the
  exact ascending doc ids across fragments (the reducer re-encodes it from
  the decoded postings: first doc absolute, deltas continuous across the
  whole list, the tf==1 flag kept), and every gap must be positive;
- tf-exception streams are pure byte concatenations in posting order;
  a merged list's position stream is its fragments' VByte gaps,
  bit-packed with one width (``tests/bitpack_oracle.py``); each segment
  row's three streams sit back to back in the segment's ``.bin`` at the
  lengths its parquet row records;
- every skip block slice-decodes independently given the previous block's
  last doc, and ``skip_count`` sums to df;
- skip blocks are regular, ``skip_block`` postings each from the list's
  first (the last may be shorter), wherever the fragment seams fall;
- df/cf/max_wdt and the per-block wdt maxima aggregate exactly; the
  reducer derives the bounds from the fragments' own postings and the
  doc lengths.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from searchengine_ray import bitpack, vbyte
from searchengine_ray.build import (
    IndexBuildConfig,
    _encode_file_fragments,
    _finalize_segment,
    wdt_quantized,
)
from searchengine_ray.layout import segment_bin_path
from searchengine_ray.query.reader import block_offsets
from tests.bitpack_oracle import pack_list

AVGDL = 10.0


def _gkey(shard: int, bucket: int, B: int) -> int:
    return shard * B + bucket


def _encode_file(rows):
    """rows: list of (gkey, term, doc_id, tftd, dl, pos_payload bytes);
    the dl rides to the reducer through ``_doc_length``, not the file.

    Replays _group_run's prep: stable sort by (gkey, first-seen term
    code) preserving ascending doc order inside each run.
    """
    code_of: dict = {}
    for _, term, *_ in rows:
        code_of.setdefault(term, len(code_of))
    rows = sorted(rows, key=lambda r: (r[0], code_of[r[1]]))
    gk = np.array([r[0] for r in rows], dtype=np.int64)
    codes = np.array([code_of[r[1]] for r in rows], dtype=np.int64)
    doc = np.array([r[2] for r in rows], dtype=np.int64)
    tf = np.array([r[3] for r in rows], dtype=np.int32)
    pos = pa.array([r[5] for r in rows], type=pa.binary())
    uniq = np.array(list(code_of), dtype=object)
    return _encode_file_fragments(gk, codes, doc, tf, pos, uniq)


def _pos(tf: int, seed: int) -> bytes:
    """A posting's position payload as the tokenize stage writes it:
    ``tf`` VByte gaps, the first absolute, some past one byte."""
    return vbyte.encode(np.array(
        [(seed * 7 + k * 13) % 300 + (k > 0) for k in range(tf)]))


def _assert_packed(pos_blob: bytes, vbyte_gaps: bytes, cf: int) -> None:
    """A segment row's position stream holds the same gaps as its
    fragments' VByte bytes, packed exactly as the reference packer packs
    them."""
    gaps = vbyte.decode(vbyte_gaps, count=cf).astype(np.int64).tolist()
    assert bitpack.unpack(pos_blob, cf).tolist() == gaps
    assert pos_blob == pack_list(gaps)


def _doc_length(*files):
    """The docweights ``doc_length`` array of the files' rows: each
    doc's dl at its id, 0 for ids no row names."""
    rows = [r for f in files for r in f]
    dl = np.zeros(1 + max(r[2] for r in rows), dtype=np.int64)
    for r in rows:
        dl[r[2]] = r[4]
    return dl


def _finalize(cfg, tables, tmp_path, doc_length):
    """Run the reducer; returns its parquet with each row's three ``.bin``
    streams attached as ``blob`` / ``tf_blob`` / ``pos_blob`` columns and
    the skip blocks the reader derives from them as ``skip_offset`` /
    ``skip_tf_offset`` / ``skip_count``."""
    out = os.path.join(str(tmp_path), "segment_test.parquet")
    prof = {"merge": 0.0, "write": 0.0, "bytes_in": 0}
    meta = _finalize_segment(list(tables), cfg, AVGDL, doc_length, out, prof)
    seg = pq.read_table(out)
    with open(segment_bin_path(out), "rb") as f:
        data = f.read()
    lens = np.stack([seg.column(c).to_numpy().astype(np.int64)
                     for c in ("doc_len", "tf_len", "pos_len")], axis=1)
    ends = np.cumsum(lens.ravel())
    assert int(ends[-1]) == len(data)
    starts = ends - lens.ravel()
    pieces = [data[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    for k, name in enumerate(("blob", "tf_blob", "pos_blob")):
        seg = seg.append_column(name, pa.array(pieces[k::3], pa.binary()))
    derived = [block_offsets(d + t, df, len(d), len(t), cfg.skip_block)
               for d, t, df in zip(pieces[0::3], pieces[1::3],
                                   seg.column("df").to_pylist())]
    for name in ("skip_offset", "skip_tf_offset", "skip_count"):
        seg = seg.append_column(
            name, pa.array([b[name].tolist() for b in derived]))
    return seg, meta


def _decode_docs(blob: bytes, df: int) -> np.ndarray:
    vals = vbyte.decode(blob, count=df).astype(np.int64)
    return np.cumsum(vals >> 1)


def _unfold_tfs(doc_vals, tf_bytes: bytes) -> list[int]:
    """tftds of postings whose folded doc values are ``doc_vals``, with
    ``tf_bytes`` holding exactly their tf exceptions."""
    one = (np.asarray(doc_vals, dtype=np.int64) & 1) == 1
    tfs = np.ones(one.size, dtype=np.int64)
    tfs[~one] = vbyte.decode(tf_bytes, count=int((~one).sum()))
    return tfs.tolist()


def _decode_tfs(blob: bytes, tf_blob: bytes, df: int) -> list[int]:
    return _unfold_tfs(vbyte.decode(blob, count=df), tf_blob)


def _expected(rows_by_file):
    """{(gkey, term): dict(docs, tfs, pos, dls)} over all files, doc-asc."""
    exp: dict = {}
    for rows in rows_by_file:
        for gkey, term, doc, tf, dl, pos in rows:
            e = exp.setdefault((gkey, term),
                               {"docs": [], "tfs": [], "pos": b"",
                                "dls": []})
            e["docs"].append(doc)
            e["tfs"].append(tf)
            e["dls"].append(dl)
            e["pos"] += pos
    for e in exp.values():
        order = np.argsort(e["docs"], kind="stable")
        assert list(order) == sorted(order), "spec rows must be doc-asc"
    return exp


def _make_rows(file_idx: int, docs: range, terms: list[str], B: int,
               shard_of=lambda d: 0):
    """Deterministic synthetic postings: term t appears in doc d when
    (d + hash-ish) % (t_idx + 2) == 0, tf/dl/pos derived from (t, d)."""
    rows = []
    for d in docs:
        for ti, t in enumerate(terms):
            if (d + ti) % (ti + 2):
                continue
            tf = 1 + (d + ti) % 5
            dl = 5.0 + (d % 7)
            pos = _pos(tf, d + ti)
            import zlib

            bucket = zlib.crc32(t.encode()) % B
            rows.append((
                _gkey(shard_of(d), bucket, B),
                t, d, tf, dl, pos,
            ))
    return rows


@pytest.mark.parametrize("skip_block", [4, 128])
def test_fragment_merge_roundtrip(tmp_path, skip_block):
    cfg = IndexBuildConfig(num_buckets=8, skip_block=skip_block)
    terms = [f"t{i:02d}" for i in range(9)]
    files = [
        _make_rows(0, range(0, 40), terms, cfg.num_buckets),
        _make_rows(1, range(40, 90), terms, cfg.num_buckets),
        _make_rows(2, range(90, 101), terms, cfg.num_buckets),
    ]
    tables = [_encode_file(rows) for rows in files]
    seg, meta = _finalize(cfg, tables, tmp_path, _doc_length(*files))
    exp = _expected(files)

    assert seg.num_rows == len(exp)
    assert meta["rows"] == len(exp)
    by_key = {}
    for i in range(seg.num_rows):
        row = {c: seg.column(c)[i].as_py() for c in seg.column_names}
        gk = _gkey(row["shard"], row["bucket"], cfg.num_buckets)
        by_key[(gk, row["term"])] = row

    assert set(by_key) == set(exp)
    for key, e in exp.items():
        row = by_key[key]
        df = row["df"]
        assert df == len(e["docs"])
        assert row["cf"] == sum(e["tfs"])
        docs = _decode_docs(row["blob"], df)
        assert docs.tolist() == e["docs"]
        assert _decode_tfs(row["blob"], row["tf_blob"], df) == e["tfs"]
        _assert_packed(row["pos_blob"], e["pos"], row["cf"])
        wq = wdt_quantized(np.asarray(e["tfs"], np.int32),
                           np.asarray(e["dls"]), AVGDL)
        # stored as the uint8 ceil(wdt * WDT_QUANT) (segment v9)
        assert row["max_wdt"] == int(wq.max())

        # ---- skip-block invariants ----
        counts = row["skip_count"]
        assert sum(counts) == df
        offs = row["skip_offset"]
        toffs = row["skip_tf_offset"]
        lasts = row["skip_last_doc"]
        maxw = row["skip_max_wdt"]
        assert offs[0] == 0 and toffs[0] == 0
        base = 0
        p = 0
        for b, cnt in enumerate(counts):
            end = offs[b + 1] if b + 1 < len(offs) else len(row["blob"])
            vals = vbyte.decode(row["blob"][offs[b]:end], count=cnt)
            bdocs = base + np.cumsum(vals.astype(np.int64) >> 1)
            assert bdocs.tolist() == e["docs"][p:p + cnt]
            assert lasts[b] == bdocs[-1]
            tend = (toffs[b + 1] if b + 1 < len(toffs)
                    else len(row["tf_blob"]))
            btfs = _unfold_tfs(vals, row["tf_blob"][toffs[b]:tend])
            assert btfs == e["tfs"][p:p + cnt]
            assert maxw[b] == int(wq[p:p + cnt].max())
            base = bdocs[-1]
            p += cnt
        # the skip table is never LARGER than a perfectly regular one
        # and no block exceeds 2x skip_block ...
        assert len(counts) <= -(-df // skip_block)
        assert all(1 <= c < 2 * skip_block for c in counts)
        # ... because it IS the regular one: skip_block postings per
        # block from the list's first, wherever the file seams fall
        assert counts == [skip_block] * (df // skip_block) + (
            [df % skip_block] if df % skip_block else [])


@pytest.mark.parametrize("pos_slice", [1, 5, 64])
def test_position_slices_do_not_change_segment_bytes(
        tmp_path, monkeypatch, pos_slice):
    """The reducer decodes and packs positions in slices of whole merged
    lists (``build.POS_SLICE`` positions per window): any slice size,
    down to one list per slice, writes the same ``.bin`` and catalog."""
    from searchengine_ray import build

    cfg = IndexBuildConfig(num_buckets=4, skip_block=4)
    terms = [f"t{i:02d}" for i in range(7)]
    files = [_make_rows(0, range(0, 30), terms, cfg.num_buckets),
             _make_rows(1, range(30, 45), terms, cfg.num_buckets)]
    out = {}
    for name, size in (("whole", build.POS_SLICE), ("sliced", pos_slice)):
        monkeypatch.setattr(build, "POS_SLICE", size)
        d = tmp_path / name
        d.mkdir()
        _finalize(cfg, [_encode_file(rows) for rows in files], d,
                  _doc_length(*files))
        out[name] = [(d / f).read_bytes() for f in
                     ("segment_test.parquet", "segment_test.bin")]
    assert out["sliced"] == out["whole"]


def test_fragment_seam_gap_reencode_lengths(tmp_path):
    """A second fragment's leading doc id encodes WIDER absolute (3
    bytes) than as the gap the re-encoded merged stream stores (1 byte):
    the merged list must still slice-decode at every skip offset the
    reader derives."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    gk = _gkey(0, 1, 2)
    f1 = [(gk, "alpha", d, 1, 8.0, b"\x01") for d in (100000, 100001,
                                                      100002)]
    f2 = [(gk, "alpha", d, 2, 8.0, _pos(2, d)) for d in (100003, 100005)]
    tables = [_encode_file(f1), _encode_file(f2)]
    seg, _ = _finalize(cfg, tables, tmp_path, _doc_length(f1, f2))
    row = {c: seg.column(c)[0].as_py() for c in seg.column_names}
    assert row["df"] == 5
    docs = _decode_docs(row["blob"], 5)
    assert docs.tolist() == [100000, 100001, 100002, 100003, 100005]
    # decode each block independently from its offset
    base = 0
    p = 0
    for b, cnt in enumerate(row["skip_count"]):
        end = (row["skip_offset"][b + 1]
               if b + 1 < len(row["skip_offset"]) else len(row["blob"]))
        vals = vbyte.decode(row["blob"][row["skip_offset"][b]:end],
                            count=cnt)
        bdocs = base + np.cumsum(vals.astype(np.int64) >> 1)
        assert bdocs.tolist() == docs[p:p + cnt].tolist()
        base = int(bdocs[-1])
        p += cnt


def test_tf_wide_values_roundtrip(tmp_path):
    """tftds >= 128 force the VByte (non-plain-byte) tf stream on the map
    side; merged stream must still decode per block."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    gk = _gkey(0, 0, 2)
    f1 = [(gk, "big", d, 100 + 40 * d, 9.0, _pos(100 + 40 * d, d))
          for d in range(3)]
    f2 = [(gk, "big", d, 300, 9.0, _pos(300, d)) for d in range(3, 5)]
    seg, _ = _finalize(
        cfg, [_encode_file(f1), _encode_file(f2)], tmp_path,
        _doc_length(f1, f2))
    row = {c: seg.column(c)[0].as_py() for c in seg.column_names}
    tfs = _decode_tfs(row["blob"], row["tf_blob"], row["df"])
    assert tfs == [100, 140, 180, 300, 300]
    _assert_blocks_decode(row, list(range(5)), tfs)


def _tok_table(doc_ids, terms_per_doc):
    """Minimal v2-shaped tokenized table (what _group_and_write
    consumes): per-doc rows with list columns."""
    n = len(doc_ids)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "title": pa.array([f"t{d}" for d in doc_ids]),
            "doc_length": pa.array([len(t) for t in terms_per_doc],
                                   type=pa.int64()),
            "l_d": pa.array([1.0] * n),
            "sha256": pa.array([bytes(32)] * n, type=pa.binary(32)),
            "terms": pa.array(terms_per_doc, type=pa.list_(pa.string())),
            "tftds": pa.array([[1] * len(t) for t in terms_per_doc],
                              type=pa.list_(pa.int32())),
            "pos_blob": pa.array([[b"\x01"] * len(t)
                                  for t in terms_per_doc],
                                 type=pa.list_(pa.binary())),
        }
    )


def test_group_postings_interleaved_blocks_stay_disjoint():
    """A batch holding several dense runs (a permuted pre-assigned id
    column) is grouped and encoded run by run: every fragment of a run
    decodes to strictly ascending docs, and same-term fragments cover
    disjoint doc ranges — the invariant _finalize_segment's merge relies
    on."""
    from searchengine_ray.build import IndexBuildConfig, _group_postings_batch

    cfg = IndexBuildConfig(num_buckets=2)
    # runs [0..3], [8..11], [4..7] in one batch, with a term 'x' present
    # in every doc and run-local terms sprinkled in
    docs = list(range(0, 4)) + list(range(8, 12)) + list(range(4, 8))
    terms = [["x", f"blk{d // 4}"] for d in docs]
    out = list(_group_postings_batch(cfg, _tok_table(docs, terms)))
    assert [span for span, _, _ in out] == [
        "000000000000_000000000003", "000000000008_000000000011",
        "000000000004_000000000007"]
    assert sum(st.num_rows for _, _, st in out) == len(docs)
    assert sum(pa.compute.sum(f.column("df")).as_py()
               for _, f, _ in out) == sum(len(t) for t in terms)
    ranges: dict[str, list[tuple[int, int]]] = {}
    for _, frags, _ in out:
        for t, df, blob, first in zip(
                *(frags.column(c).to_pylist()
                  for c in ("term", "df", "blob", "first_doc"))):
            ds = _decode_docs(blob, df).tolist()
            assert ds[0] == first
            assert ds == sorted(set(ds)), f"{t!r} not ascending: {ds}"
            ranges.setdefault(t, []).append((min(ds), max(ds)))
    for t, rs in ranges.items():
        rs = sorted(rs)
        for (alo, ahi), (blo, bhi) in zip(rs, rs[1:]):
            assert ahi < blo, f"overlapping runs for {t!r}: {rs}"
    # 'x' spans all three dense runs -> exactly 3 disjoint runs
    assert len(ranges["x"]) == 3


def test_finalize_rejects_overlapping_fragments(tmp_path):
    """The reducer backstop: overlapping doc ranges for one term must
    raise, never silently encode a non-positive gap."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    gk = _gkey(0, 0, 2)
    f1 = [(gk, "t", d, 1, 5.0, b"x") for d in (0, 5)]
    f2 = [(gk, "t", d, 1, 5.0, b"x") for d in (3, 9)]  # overlaps f1
    # files that are not dense runs (a correct group stage would write
    # four single-doc files here, which merge cleanly): the reducer must
    # reject the resulting range overlap loudly
    with pytest.raises(ValueError, match="overlapping doc ranges"):
        _finalize(
            cfg,
            [_encode_file(f1), _encode_file(f2)],
            tmp_path, _doc_length(f1, f2))


def test_finalize_rejects_non_positive_gap_inside_fragment(tmp_path):
    """The gap check covers every posting, not only the seams between
    fragments: one fragment whose doc stream repeats a doc (a zero gap
    the group-side encoder never writes) is refused too."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    gk = _gkey(0, 0, 2)
    rows = [(gk, "t", d, 1, 5.0, b"x") for d in (2, 4)]
    tbl = _encode_file(rows)
    bad = vbyte.encode(np.array([2 << 1 | 1, 0 << 1 | 1], np.uint64))
    tbl = tbl.set_column(tbl.schema.get_field_index("blob"), "blob",
                         pa.array([bad], pa.binary()))
    with pytest.raises(ValueError, match="overlapping doc ranges"):
        _finalize(cfg, [tbl], tmp_path, _doc_length(rows))


def test_abutting_segments_same_term_split_and_roundtrip(tmp_path):
    """Guard of the run detector (r4 advice): rows of one (gkey, term)
    whose docs stop ascending — docs 8..11 then 4..7, which a docterms
    file of one dense run never holds.  Pre-fix the encoder merged both
    stretches into one fragment and delta-encoded the negative gap as a
    huge unsigned doc id with no error; the run detector must break on
    the non-ascending doc id so each stretch is its own fragment, and
    the reducer merges them by first_doc."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    gk = _gkey(0, 1, 2)
    rows = (
        [(gk, "alpha", d, 1 + d % 3, 8.0, _pos(1 + d % 3, d))
         for d in range(8, 12)]
        + [(gk, "alpha", d, 1 + d % 3, 8.0, _pos(1 + d % 3, d))
           for d in range(4, 8)]
    )
    tbl = _encode_file(rows)
    # the same-(gkey, term) abutting runs stay separate fragments
    assert tbl.num_rows == 2
    assert tbl.column("first_doc").to_pylist() == [8, 4]
    # every fragment's own doc stream must decode ascending and clean
    for i, df in enumerate(tbl.column("df").to_pylist()):
        frag_docs = _decode_docs(tbl.column("blob")[i].as_py(), df)
        assert frag_docs.tolist() == sorted(frag_docs.tolist())
        assert int(frag_docs.max()) < 1 << 32  # no unsigned wrap

    seg, _ = _finalize(cfg, [tbl], tmp_path, _doc_length(rows))
    assert seg.num_rows == 1
    df = seg.column("df")[0].as_py()
    assert df == 8
    docs = _decode_docs(seg.column("blob")[0].as_py(), df)
    assert docs.tolist() == list(range(4, 12))
    tfs = _decode_tfs(seg.column("blob")[0].as_py(),
                      seg.column("tf_blob")[0].as_py(), df)
    assert tfs == [1 + d % 3 for d in range(4, 12)]
    _assert_packed(seg.column("pos_blob")[0].as_py(),
                   b"".join(_pos(1 + d % 3, d) for d in range(4, 12)),
                   seg.column("cf")[0].as_py())


@st.composite
def _segment_layouts(draw):
    """A random dense corpus cut into consecutive segments, one docterms
    file per segment, the files in a permuted order."""
    n_docs = draw(st.integers(min_value=4, max_value=40))
    n_cuts = draw(st.integers(min_value=0, max_value=5))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=n_docs - 1),
        min_size=min(n_cuts, n_docs - 1),
        max_size=min(n_cuts, n_docs - 1))))
    bounds = [0] + cuts + [n_docs]
    segments = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # permute by drawn priorities (stable argsort keeps shrinking sane)
    prios = draw(st.lists(st.integers(min_value=0, max_value=100),
                          min_size=len(segments), max_size=len(segments)))
    order = sorted(range(len(segments)), key=lambda i: (prios[i], i))
    segments = [segments[i] for i in order]
    # term membership rules: term i appears in doc d iff (d+off) % m == 0;
    # the first term has m=1 so every doc (hence every file with a
    # segment) carries at least one posting
    n_terms = draw(st.integers(min_value=1, max_value=4))
    rules = [(1, 0)] + [
        (draw(st.integers(min_value=2, max_value=4)),
         draw(st.integers(min_value=0, max_value=3)))
        for _ in range(n_terms - 1)
    ]
    return segments, rules


@given(_segment_layouts(), st.sampled_from([2, 4]))
@hyp_settings(max_examples=40, deadline=None)
def test_fragment_roundtrip_random_segment_interleavings(layout, skip_block):
    """For ANY partition of a dense doc range into dense runs, one
    docterms file each (docterms v8), in ANY file order, encode-per-file
    + reduce must reproduce the exact doc/tf/pos streams per
    (gkey, term) — the reducer reassembles the fragments by first_doc."""
    import tempfile
    import zlib

    segments, rules = layout
    cfg = IndexBuildConfig(num_buckets=2, skip_block=skip_block)

    def postings_of(seg):
        rows = []
        for d in seg:
            for ti, (m, off) in enumerate(rules):
                if (d + off) % m:
                    continue
                t = f"t{ti}"
                tf = 1 + (d + ti) % 5
                rows.append((
                    _gkey(0, zlib.crc32(t.encode()) % cfg.num_buckets,
                          cfg.num_buckets),
                    t, d, tf, 5.0 + d % 7, _pos(tf, d + ti),
                ))
        return rows

    files = [postings_of(seg) for seg in segments]
    tables = [_encode_file(rows) for rows in files if rows]

    # expectation: per (gkey, term), triples sorted by doc id
    exp: dict = {}
    for rows in files:
        for gkey, term, doc, tf, dl, pos in rows:
            exp.setdefault((gkey, term), []).append((doc, tf, pos))
    for key in exp:
        exp[key].sort()

    with tempfile.TemporaryDirectory() as td:
        seg_tbl, meta = _finalize(cfg, tables, td, _doc_length(*files))
    assert seg_tbl.num_rows == len(exp)
    for i in range(seg_tbl.num_rows):
        row = {c: seg_tbl.column(c)[i].as_py()
               for c in seg_tbl.column_names}
        key = (_gkey(row["shard"], row["bucket"], cfg.num_buckets),
               row["term"])
        triples = exp[key]
        df = row["df"]
        assert df == len(triples)
        docs = _decode_docs(row["blob"], df)
        assert docs.tolist() == [t[0] for t in triples]
        assert (_decode_tfs(row["blob"], row["tf_blob"], df)
                == [t[1] for t in triples])
        _assert_packed(row["pos_blob"], b"".join(t[2] for t in triples),
                       row["cf"])
        # every skip block slice-decodes independently
        offs, counts = row["skip_offset"], row["skip_count"]
        assert sum(counts) == df
        base, p = 0, 0
        for b, cnt in enumerate(counts):
            end = offs[b + 1] if b + 1 < len(offs) else len(row["blob"])
            vals = vbyte.decode(row["blob"][offs[b]:end], count=cnt)
            bdocs = base + np.cumsum(vals.astype(np.int64) >> 1)
            assert bdocs.tolist() == [t[0] for t in triples[p:p + cnt]]
            assert row["skip_last_doc"][b] == bdocs[-1]
            base, p = int(bdocs[-1]), p + cnt


def test_hole_straddling_segments_end_to_end(tmp_path):
    """End-to-end over the PRODUCTION files: a batch holding the dense
    runs [0], [2..3], [1] — the first two ASCEND across their seam while
    straddling the hole that run [1] owns.  The group task writes one
    docterms file of encoded fragments per run, so no fragment spans the
    hole; merging the files' fragments reproduces the exact postings."""
    from searchengine_ray.build import _DOCTERMS_SCHEMA, _group_and_write

    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    docs = [0, 2, 3, 1]
    terms = [["x", "y"] for _ in docs]  # every term in every doc
    dt, ds = tmp_path / "docterms", tmp_path / "docstats"
    dt.mkdir()
    ds.mkdir()
    _group_and_write(_tok_table(docs, terms), cfg, str(dt), str(ds))
    names = sorted(os.listdir(dt))
    assert names == [f"docterms_{lo:012d}_{hi:012d}.parquet"
                     for lo, hi in ((0, 0), (1, 1), (2, 3))]

    doc_length = np.full(len(docs), 2, dtype=np.int64)
    frags = [pq.read_table(str(dt / name)) for name in names]
    assert all(f.schema == _DOCTERMS_SCHEMA for f in frags)
    # 3 dense runs x 2 terms -> one fragment each, ranges disjoint
    assert sum(f.num_rows for f in frags) == 6

    seg_tbl, _ = _finalize(cfg, frags, tmp_path, doc_length)
    assert seg_tbl.num_rows == 2
    for i in range(seg_tbl.num_rows):
        row = {c: seg_tbl.column(c)[i].as_py()
               for c in seg_tbl.column_names}
        assert row["df"] == 4
        assert _decode_docs(row["blob"], 4).tolist() == [0, 1, 2, 3]


def test_equal_doc_id_runs_also_split(tmp_path):
    """Duplicate (gkey, term, doc) occurrences (can only arise from a
    broken upstream) must not silently zero-gap encode: the run detector
    breaks on <=, and the reducer's gap check then rejects the overlap
    loudly instead of emitting a corrupt list."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    gk = _gkey(0, 1, 2)
    rows = [(gk, "t", 7, 1, 5.0, b"a"), (gk, "t", 7, 2, 5.0, b"b")]
    tbl = _encode_file(rows)
    assert tbl.num_rows == 2  # split, not one fragment with gap 0
    with pytest.raises(ValueError, match="overlapping doc ranges"):
        _finalize(cfg, [tbl], tmp_path, _doc_length(rows))


def _assert_blocks_decode(row, docs, tfs):
    """Every skip block decodes on its own, doc ids from its doc-stream
    offset and tftds from its tf-stream offset."""
    offs, toffs = row["skip_offset"], row["skip_tf_offset"]
    base, p = 0, 0
    for b, cnt in enumerate(row["skip_count"]):
        end = offs[b + 1] if b + 1 < len(offs) else len(row["blob"])
        vals = vbyte.decode(row["blob"][offs[b]:end], count=cnt)
        bdocs = base + np.cumsum(vals.astype(np.int64) >> 1)
        assert bdocs.tolist() == docs[p:p + cnt]
        tend = toffs[b + 1] if b + 1 < len(toffs) else len(row["tf_blob"])
        assert _unfold_tfs(vals, row["tf_blob"][toffs[b]:tend]) == \
            tfs[p:p + cnt]
        base, p = int(bdocs[-1]), p + cnt
    assert p == len(docs)


def _one_term(cfg, files, tmp_path):
    """Encode each file's (doc, tf) list as one fragment of term "t",
    reduce, and return the segment row with its streams."""
    gk = _gkey(0, 1, cfg.num_buckets)
    files = [[(gk, "t", d, tf, 8, _pos(tf, d)) for d, tf in rows]
             for rows in files]
    tables = [_encode_file(rows) for rows in files]
    seg, _ = _finalize(cfg, tables, tmp_path, _doc_length(*files))
    assert seg.num_rows == 1
    return {c: seg.column(c)[0].as_py() for c in seg.column_names}


def test_all_tf_one_has_empty_tf_stream(tmp_path):
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    docs = [0, 3, 4, 9, 200, 201]
    row = _one_term(cfg, [[(d, 1) for d in docs[:3]],
                          [(d, 1) for d in docs[3:]]], tmp_path)
    assert row["tf_len"] == 0 and row["tf_blob"] == b""
    assert set(row["skip_tf_offset"]) == {0}
    assert _decode_docs(row["blob"], 6).tolist() == docs
    _assert_blocks_decode(row, docs, [1] * 6)


def test_no_tf_one_stores_every_tf(tmp_path):
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    docs = [1, 2, 5, 130, 131]
    tfs = [2, 7, 300, 3, 129]
    row = _one_term(cfg, [list(zip(docs[:2], tfs[:2])),
                          list(zip(docs[2:], tfs[2:]))], tmp_path)
    folded = vbyte.decode(row["blob"], count=5)
    assert not (folded & np.uint64(1)).any()
    assert vbyte.decode(row["tf_blob"], count=5).tolist() == tfs
    _assert_blocks_decode(row, docs, tfs)


@pytest.mark.parametrize("seam_tf", [1, 3])
def test_seam_first_posting_keeps_its_tf_flag(tmp_path, seam_tf):
    """The re-encoded merged stream stores the second fragment's leading
    doc as a gap, not the absolute id its fragment held; the tf==1 flag
    in its low bit must survive, with tf 1 or not.  Doc 100000 encodes wider absolute than
    as a gap, so the skip offsets shift too."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    f1 = [(99990, 2), (99995, 1), (99997, 4)]
    f2 = [(100000, seam_tf), (100001, 1), (100004, 5)]
    row = _one_term(cfg, [f1, f2], tmp_path)
    docs = [d for d, _ in f1 + f2]
    tfs = [tf for _, tf in f1 + f2]
    assert _decode_docs(row["blob"], 6).tolist() == docs
    assert _decode_tfs(row["blob"], row["tf_blob"], 6) == tfs
    seam_val = int(vbyte.decode(row["blob"], count=6)[3])
    assert seam_val == ((100000 - 99997) << 1 | (seam_tf == 1))
    _assert_blocks_decode(row, docs, tfs)


def test_skip_block_starting_inside_exception_run(tmp_path):
    """Block 1 starts at a tf exception right after another exception:
    its tf offset is the byte length of the exceptions before it (the
    2-byte VByte of 200), not a posting count."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=2)
    docs = [0, 1, 2, 3, 4, 5]
    tfs = [1, 200, 300, 5, 1, 2]
    row = _one_term(cfg, [list(zip(docs, tfs))], tmp_path)
    assert row["skip_count"] == [2, 2, 2]
    assert row["skip_tf_offset"] == [0, 2, 5]
    _assert_blocks_decode(row, docs, tfs)


def test_skip_blocks_do_not_depend_on_fragment_seams(tmp_path):
    """One posting list cut into fragments at different seams (3 + 5 + 2
    postings, or one fragment) merges to the same segment row and the
    same ``.bin`` bytes: regular skip blocks of ``skip_block`` postings
    from the list's first, whose byte offsets count each seam posting at
    its rewritten gap length."""
    cfg = IndexBuildConfig(num_buckets=2, skip_block=4)
    docs = [3, 9, 100000, 100001, 100007, 100200, 100300, 100301,
            200000, 200009]
    tfs = [1, 4, 1, 300, 1, 2, 1, 1, 7, 1]
    posts = list(zip(docs, tfs))
    rows = []
    for k, cuts in enumerate(([0, 3, 8, 10], [0, 10])):
        d = tmp_path / f"cut{k}"
        d.mkdir()
        rows.append(_one_term(cfg, [posts[a:b] for a, b in
                                    zip(cuts, cuts[1:])], d))
    assert rows[0] == rows[1]
    assert rows[0]["skip_count"] == [4, 4, 2]
    assert rows[0]["skip_last_doc"] == [100001, 100301, 200009]
    _assert_blocks_decode(rows[0], docs, tfs)


@pytest.mark.parametrize("base", [0, 10**9],
                         ids=["int32_key", "lexsort_key"])
def test_group_run_orders_fragments_by_gkey(base):
    """``_group_run`` sorts postings by (gkey, term) on both of its sort
    paths: the packed int32 key, and the two-key sort once gkey x vocab
    passes 2^31 (one-doc shards at doc ids near 10^9).  Either way the
    fragment table is in gkey order, one fragment per (gkey, term), and
    each fragment decodes to its own docs, so its docterms file cuts one
    row group per gkey."""
    from searchengine_ray.build import _group_run
    from searchengine_ray.layout import term_bucket

    cfg = IndexBuildConfig(num_buckets=4, docs_per_shard=1)
    docs = [base + d for d in range(6)]
    terms = [["x", "y", f"z{d % 2}"] for d in range(6)]
    frags = _group_run(cfg, _tok_table(docs, terms))
    gk = frags.column("gkey").to_pylist()
    assert gk == sorted(gk)
    keys = list(zip(gk, frags.column("term").to_pylist()))
    assert len(set(keys)) == len(keys) == 18
    for (g, t), df, blob in zip(keys, frags.column("df").to_pylist(),
                                frags.column("blob").to_pylist()):
        (d,) = _decode_docs(blob, df).tolist()
        assert g == d * cfg.num_buckets + term_bucket(t, cfg.num_buckets)
