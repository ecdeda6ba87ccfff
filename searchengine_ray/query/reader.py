"""Disk index reader — the query-side analogue of the reference's
``DiskPositionalIndex`` (/root/reference/engine/indexing/diskpositionalindex.py:9-154).

The reference loads a SQLite term→byte-offset catalog into a dict and seeks
into one postings.bin.  Here the catalog is the lightweight columns
(term, shard, df, cf, max_wdt and the three stream lengths) of the
segment parquet files — read once at construction (ST3 analogue), with
each row's byte offset derived by one cumsum — and a term fetch is one
``os.pread`` per fragment into the segment's ``.bin`` (format v6).  Doc
stats (doc_length, L_d: ST4 analogues) are the build's dense docweights
arrays keyed by doc_id, memory-mapped; titles (ST5) are point-read from
docstats.  The reader only reads: it writes nothing into the index.

Scale note: one reader holds the dictionary for the buckets it serves.  At
10^12-doc scale, readers are deployed as an actor pool with each actor
assigned a subset of (shard, bucket) pairs so no single process loads the
global dictionary; this class takes an optional ``buckets=`` filter for
exactly that.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow.parquet as pq

from .. import bitpack, vbyte
from ..layout import (DOCSTATS_DIR, MANIFEST_NAME, SEGMENT_FORMAT,
                      WDT_QUANT, docweights_paths, segment_bin_path)
from .postings import PostingList

#: Byte budget of the posting-list LRU, on top of its entry count: a few
#: huge lists (stopword-like terms with positions) cannot pin gigabytes.
#: perfbench's working set stays far below it, so only the entry count
#: binds there.
POSTING_CACHE_BYTES = 256 << 20

_SKIP_COLUMNS = ("skip_last_doc", "skip_max_wdt")


@dataclass
class Fragment:
    """Locator + stats for one (term, shard) posting-list fragment:
    its stream bytes sit at ``offset`` in the segment's ``.bin``, doc
    stream then tf exceptions then positions."""

    file_idx: int
    row_idx: int
    shard: int
    df: int
    cf: int
    max_wdt: float
    offset: int
    doc_len: int
    tf_len: int
    pos_len: int


def _close_fds(fds: list[int]) -> None:
    for fd in fds:
        os.close(fd)
    fds.clear()


def _nbytes(pl: PostingList) -> int:
    n = pl.doc_ids.nbytes + pl.tftds.nbytes
    if pl.positions is not None:
        n += pl.positions.nbytes + pl.pos_offsets.nbytes
    return n


class DiskIndexReader:
    def __init__(
        self,
        index_dir: str,
        buckets: list[int] | None = None,
        cache_size: int = 1024,
    ):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            self.manifest = json.load(f)
        self.num_docs: int = self.manifest["num_docs"]
        self.total_tokens: int = self.manifest["total_tokens"]
        self.avg_doc_length: float = self.manifest["avg_doc_length"]
        self.analyzer: str = self.manifest.get("config", {}).get(
            "analyzer", "reference")
        fmt = self.manifest.get("segment_format", 0)
        if fmt != SEGMENT_FORMAT:
            raise ValueError(
                f"index at {index_dir} has segment format {fmt}, this "
                f"reader requires {SEGMENT_FORMAT}: rebuild the index "
                f"(delete the directory and re-run build_index)"
            )
        if self.manifest.get("doc_id_base", 0) != 0:
            raise ValueError(
                f"index at {index_dir} is a DELTA build (doc ids start at "
                f"{self.manifest['doc_id_base']}, not 0) — it is a merge "
                f"input, not a servable index: fold it into a zero-based "
                f"index with searchengine_ray.merge.merge_indexes first"
            )

        # one read-only fd per segment .bin, closed when the reader is
        # collected; pread through it shares the page cache across
        # processes without mapping pages into this one's resident set
        self._fds: list[int] = []
        weakref.finalize(self, _close_fds, self._fds)
        self._load_doc_stats()
        self._load_dictionary(buckets)
        self._cache: OrderedDict[tuple[str, bool], PostingList] = OrderedDict()
        self._cache_size = cache_size
        self._cache_bytes = 0
        self._skip_files: dict[int, tuple[pq.ParquetFile, np.ndarray]] = {}
        self._skip_block: int = self.manifest["config"]["skip_block"]

    # ---- doc stats (ST4/ST5) ----

    def _load_doc_stats(self) -> None:
        """doc_length / l_d: the build's docweights arrays, memory-mapped
        read-only — the actors of a sharded pool share one page-cache
        copy instead of each holding an O(corpus) heap array, and pages
        load lazily.  Titles are not materialised at all: ``get_titles``
        point-reads the docstats parquet per result page (they are only
        needed to render top-k hits)."""
        self._docstats_dir = os.path.join(self.index_dir, DOCSTATS_DIR)
        self.doc_length, self.l_d = (
            self._load_weights(p) for p in docweights_paths(self.index_dir))
        self._title_cache: OrderedDict[int, str] = OrderedDict()

    def _load_weights(self, path: str) -> np.ndarray:
        """One docweights array; a missing, unreadable or wrong-length
        file means a torn index."""
        try:
            arr = np.load(path, mmap_mode="r")
        except FileNotFoundError:
            raise ValueError(
                f"doc weights file {path} is missing: the index is torn, "
                f"rebuild it") from None
        except (ValueError, EOFError) as e:
            raise ValueError(
                f"doc weights file {path} is unreadable ({e}): the index "
                f"is torn, rebuild it") from None
        if arr.shape != (self.num_docs,):
            raise ValueError(
                f"doc weights file {path} has shape {arr.shape}, not "
                f"({self.num_docs},): the index is torn, rebuild it")
        return arr

    # ---- term dictionary (ST3) ----

    def _load_dictionary(self, buckets: list[int] | None) -> None:
        """Columnar dictionary: all fragment rows live in parallel numpy
        arrays sorted by (term, shard); a dict maps each term to
        its contiguous row range.  Fragment objects materialise lazily
        per lookup — at 10M+ terms this loads via one vectorized Arrow
        sort instead of per-row Python appends and holds ~40 B/row
        instead of a Fragment object per row."""
        import pyarrow as pa
        import pyarrow.compute as pc

        seg_dir = os.path.join(self.index_dir, "segments")
        self._files: list[str] = []
        # a merged index's segments keep their generation's wdt bounds;
        # the manifest's factor makes them bounds under the merged avgdl
        self._bound_scale: list[float] = []
        want = set(buckets) if buckets is not None else None
        term_chunks: list[pa.Array] = []
        file_l, row_l = [], []
        shard_l, df_l, cf_l, maxw_l = [], [], [], []
        off_l, dlen_l, tlen_l, plen_l = [], [], [], []
        for seg in self.manifest["segments"]:
            if want is not None and not (want & set(seg["buckets"])):
                continue
            path = os.path.join(seg_dir, seg["file"])
            file_idx = len(self._files)
            self._files.append(path)
            self._bound_scale.append(seg.get("wdt_bound_scale", 1.0))
            tbl = pq.read_table(
                path,
                columns=["term", "shard", "bucket", "df", "cf",
                         "max_wdt", "doc_len", "tf_len", "pos_len"],
            )
            n_rows = tbl.num_rows
            lens = [tbl.column(c).to_numpy().astype(np.int64)
                    for c in ("doc_len", "tf_len", "pos_len")]
            row_len = lens[0] + lens[1] + lens[2]
            row_start = np.cumsum(row_len) - row_len
            self._open_bin(path, int(row_len.sum()))
            term_col = tbl.column("term").combine_chunks()
            if isinstance(term_col, pa.ChunkedArray):
                term_col = (term_col.chunk(0) if term_col.num_chunks
                            else pa.array([], type=pa.string()))
            # row-level bucket filter: a segment file holds many buckets,
            # and a sharded reader must own each term EXCLUSIVELY
            # (overlapping shards double-count scores)
            if want is not None:
                bks = tbl.column("bucket").to_numpy()
                rows = np.flatnonzero(np.isin(bks, list(want)))
                term_col = term_col.take(pa.array(rows))
            else:
                rows = np.arange(n_rows, dtype=np.int64)
            term_chunks.append(term_col)
            file_l.append(np.full(len(rows), file_idx, dtype=np.int32))
            row_l.append(rows.astype(np.int32))
            shard_l.append(tbl.column("shard").to_numpy()[rows])
            df_l.append(tbl.column("df").to_numpy()[rows])
            cf_l.append(tbl.column("cf").to_numpy()[rows])
            maxw_l.append(tbl.column("max_wdt").to_numpy()[rows]
                          / WDT_QUANT * self._bound_scale[-1])
            off_l.append(row_start[rows])
            dlen_l.append(lens[0][rows])
            tlen_l.append(lens[1][rows])
            plen_l.append(lens[2][rows])

        if not term_chunks or not sum(len(c) for c in term_chunks):
            self._frag_file = np.empty(0, np.int32)
            self._frag_row = np.empty(0, np.int32)
            self._frag_shard = np.empty(0, np.int32)
            self._frag_df = np.empty(0, np.int64)
            self._frag_cf = np.empty(0, np.int64)
            self._frag_maxw = np.empty(0, np.float64)
            self._frag_off = self._frag_dlen = np.empty(0, np.int64)
            self._frag_tlen = self._frag_plen = np.empty(0, np.int64)
            self._term_slice: dict[str, tuple[int, int]] = {}
            self._vocab: list[str] = []
            self._vocab_starts = np.empty(0, np.int64)
            return

        terms_all = pa.chunked_array(term_chunks).combine_chunks()
        shard_all = np.concatenate(shard_l)
        # Arrow sorts strings by UTF-8 bytes == code-point order ==
        # Python's sorted(); the shard tiebreak keeps each term's
        # fragments doc-range-ordered for concatenation
        order = pc.sort_indices(
            pa.table({"t": terms_all, "sh": shard_all}),
            sort_keys=[("t", "ascending"), ("sh", "ascending")],
        ).to_numpy().astype(np.int64)
        self._frag_file = np.concatenate(file_l)[order]
        self._frag_row = np.concatenate(row_l)[order]
        self._frag_shard = shard_all[order].astype(np.int32)
        self._frag_df = np.concatenate(df_l)[order].astype(np.int64)
        self._frag_cf = np.concatenate(cf_l)[order].astype(np.int64)
        self._frag_maxw = np.concatenate(maxw_l)[order].astype(np.float64)
        self._frag_off = np.concatenate(off_l)[order]
        self._frag_dlen = np.concatenate(dlen_l)[order]
        self._frag_tlen = np.concatenate(tlen_l)[order]
        self._frag_plen = np.concatenate(plen_l)[order]
        terms_sorted = terms_all.take(pa.array(order))
        n = len(terms_sorted)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = np.invert(
            pc.equal(terms_sorted.slice(1),
                     terms_sorted.slice(0, n - 1)).to_numpy(
                         zero_copy_only=False))
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n)
        vals = terms_sorted.to_pylist()
        self._vocab = [vals[int(s)] for s in starts]
        self._vocab_starts = starts
        self._term_slice = {
            t: (int(s), int(e))
            for t, s, e in zip(self._vocab, starts.tolist(), ends.tolist())
        }

    def _open_bin(self, parquet_path: str, want_bytes: int) -> None:
        """Open a segment's ``.bin`` and refuse a torn index: the file
        must exist and hold exactly the bytes its parquet rows address."""
        path = segment_bin_path(parquet_path)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            raise ValueError(
                f"segment postings file {path} is missing: the index is "
                f"torn, rebuild it") from None
        self._fds.append(fd)
        size = os.fstat(fd).st_size
        if size != want_bytes:
            raise ValueError(
                f"segment postings file {path} holds {size} B but "
                f"{os.path.basename(parquet_path)} addresses {want_bytes} "
                f"B: the index is torn, rebuild it")

    # ---- public API ----

    def get_vocabulary(self) -> list[str]:
        """Sorted vocabulary (reference: diskpositionalindex.py:52-55)."""
        return list(self._vocab)

    def term_stats(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(sorted terms, df, cf) fully vectorized: the dictionary is
        already term-sorted, so per-term sums are one reduceat over the
        fragment arrays — no per-term Python walk."""
        starts = self._vocab_starts
        if not len(starts):
            return [], np.empty(0, np.int64), np.empty(0, np.int64)
        return (
            list(self._vocab),
            np.add.reduceat(self._frag_df, starts),
            np.add.reduceat(self._frag_cf, starts),
        )

    def df(self, term: str) -> int:
        s = self._term_slice.get(term)
        return int(self._frag_df[s[0]:s[1]].sum()) if s else 0

    def cf(self, term: str) -> int:
        s = self._term_slice.get(term)
        return int(self._frag_cf[s[0]:s[1]].sum()) if s else 0

    def max_wdt(self, term: str) -> float:
        s = self._term_slice.get(term)
        return float(self._frag_maxw[s[0]:s[1]].max()) if s else 0.0

    def fragments(self, term: str) -> list[Fragment]:
        s = self._term_slice.get(term)
        if not s:
            return []
        return [
            Fragment(int(self._frag_file[i]), int(self._frag_row[i]),
                     int(self._frag_shard[i]), int(self._frag_df[i]),
                     int(self._frag_cf[i]), float(self._frag_maxw[i]),
                     int(self._frag_off[i]), int(self._frag_dlen[i]),
                     int(self._frag_tlen[i]), int(self._frag_plen[i]))
            for i in range(s[0], s[1])
        ]

    def get_document_length(self, doc_id: int) -> int:
        return int(self.doc_length[doc_id])

    def get_titles(self, doc_ids: list[int]) -> list[str]:
        """Titles for a result page: one column- and row-group-pruned
        parquet read for the uncached ids (LRU-cached after).  The
        return is assembled from a LOCAL dict (cache hits + the fresh
        read) so LRU eviction can never drop a title requested by THIS
        call, and ids absent from docstats get a placeholder instead of
        a KeyError (ADVICE r3)."""
        local: dict[int, str] = {}
        missing = []
        for d in {int(x) for x in doc_ids}:
            hit = self._title_cache.get(d)
            if hit is None and d not in self._title_cache:
                missing.append(d)
            else:
                local[d] = hit
        if missing:
            import pyarrow.dataset as pads

            tbl = pads.dataset(self._docstats_dir).to_table(
                columns=["doc_id", "title"],
                filter=pads.field("doc_id").isin(missing),
            )
            for i, t in zip(tbl.column("doc_id").to_pylist(),
                            tbl.column("title").to_pylist()):
                local[i] = t
                self._title_cache[i] = t
            while len(self._title_cache) > 4 * self._cache_size:
                self._title_cache.popitem(last=False)
        return [str(local.get(int(d), f"<doc {int(d)}>")) for d in doc_ids]

    def get_title(self, doc_id: int) -> str:
        return self.get_titles([int(doc_id)])[0]

    def get_postings(self, term: str, with_positions: bool = False) -> PostingList:
        """All postings for a term, doc_id-ascending across fragments,
        through an LRU bounded by entry count and POSTING_CACHE_BYTES."""
        key = (term, with_positions)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        out = self.fetch_postings(term, with_positions)
        nbytes = _nbytes(out)
        if nbytes <= POSTING_CACHE_BYTES:
            while self._cache and (
                    len(self._cache) >= self._cache_size
                    or self._cache_bytes + nbytes > POSTING_CACHE_BYTES):
                self._cache_bytes -= _nbytes(
                    self._cache.popitem(last=False)[1])
            self._cache[key] = out
            self._cache_bytes += nbytes
        return out

    def fetch_postings(self, term: str,
                       with_positions: bool = False) -> PostingList:
        """``get_postings`` without the cache: read and decode every
        fragment of the term."""
        frags = self.fragments(term)
        if not frags:
            return PostingList.empty(with_positions)
        parts = [self._decode_fragment(fr, with_positions) for fr in frags]
        # fragments cover pairwise-disjoint doc ranges (reducer
        # invariant; generations of a merged index are doc-disjoint
        # by construction), so ordering PARTS by first doc yields a
        # globally doc-ascending list.  The dictionary's shard sort
        # already orders a single build's fragments (one per
        # (term, shard)); merged generations can share a
        # (term, shard), which only this sort orders.
        parts.sort(key=lambda p: int(p.doc_ids[0]))
        return _concat_postings(parts, with_positions)

    # ---- fragment access ----

    def read_fragment_row(self, fr: Fragment,
                          with_positions: bool = False) -> bytes:
        """One fragment's doc and tf streams, plus its pos stream when
        ``with_positions``: a single ``os.pread`` of its byte range."""
        n = fr.doc_len + fr.tf_len + (fr.pos_len if with_positions else 0)
        buf = os.pread(self._fds[fr.file_idx], n, fr.offset)
        if len(buf) != n:
            raise ValueError(
                f"short read from "
                f"{segment_bin_path(self._files[fr.file_idx])}: the index "
                f"is torn, rebuild it")
        return buf

    def skip_lists(self, fr: Fragment,
                   buf: bytes) -> dict[str, np.ndarray]:
        """The fragment's skip blocks, for WAND: ``skip_last_doc`` and
        ``skip_max_wdt`` (times its segment's ``wdt_bound_scale``) from
        one read of the two skip columns of its catalog row group, and
        ``skip_offset``, ``skip_tf_offset`` and ``skip_count`` derived
        from its doc and tf streams ``buf`` (as ``read_fragment_row``
        returns them)."""
        hit = self._skip_files.get(fr.file_idx)
        if hit is None:
            pf = pq.ParquetFile(self._files[fr.file_idx])
            ends = np.cumsum([pf.metadata.row_group(i).num_rows
                              for i in range(pf.metadata.num_row_groups)])
            hit = self._skip_files[fr.file_idx] = (pf, ends)
        pf, ends = hit
        rg = int(np.searchsorted(ends, fr.row_idx, side="right"))
        row = fr.row_idx - (int(ends[rg - 1]) if rg else 0)
        tbl = pf.read_row_group(rg, columns=list(_SKIP_COLUMNS))
        out = {c: tbl.column(c)[row].values.to_numpy()
               for c in _SKIP_COLUMNS}
        out["skip_max_wdt"] = (out["skip_max_wdt"] / WDT_QUANT
                               * self._bound_scale[fr.file_idx])
        out.update(block_offsets(buf, fr.df, fr.doc_len, fr.tf_len,
                                 self._skip_block))
        if out["skip_count"].size != out["skip_last_doc"].size:
            raise ValueError(
                f"fragment {fr.row_idx} of "
                f"{os.path.basename(self._files[fr.file_idx])} has "
                f"{out['skip_last_doc'].size} skip blocks, not one per "
                f"{self._skip_block} postings: rebuild the index")
        return out

    def _decode_fragment(self, fr: Fragment, with_positions: bool) -> PostingList:
        # the doc and tf streams sit back to back and each ends on a
        # whole value, so one VByte decode covers both; the bit-packed
        # position stream follows them (format v9)
        buf = memoryview(self.read_fragment_row(fr, with_positions))
        nvb = fr.doc_len + fr.tf_len
        vals = vbyte.decode(buf[:nvb]).astype(np.int64)
        doc_ids, tftds, n_exc = _unfold_doc_tf(vals, fr.df)
        if vals.size != fr.df + n_exc:
            raise ValueError(
                f"fragment {fr.row_idx} of "
                f"{os.path.basename(self._files[fr.file_idx])} decodes to "
                f"{vals.size} values, expected {fr.df + n_exc}")
        if not with_positions:
            return PostingList(doc_ids, tftds)
        try:
            gaps = bitpack.unpack(buf[nvb:], fr.cf)
        except ValueError as e:
            raise ValueError(
                f"fragment {fr.row_idx} of "
                f"{os.path.basename(self._files[fr.file_idx])}: {e}; "
                f"rebuild the index") from None
        offsets = np.zeros(fr.df + 1, dtype=np.int64)
        np.cumsum(tftds, out=offsets[1:])
        positions = _segmented_cumsum(gaps, offsets)
        return PostingList(doc_ids, tftds, positions, offsets)


def block_offsets(buf, df: int, doc_len: int, tf_len: int,
                  skip_block: int) -> dict[str, np.ndarray]:
    """A fragment's regular skip blocks (``skip_block`` postings each
    from its first, the last one shorter) located in its streams:
    ``skip_offset`` and ``skip_tf_offset`` are each block's byte start in
    the doc stream and in the tf exceptions, ``skip_count`` its postings.

    ``buf`` holds the doc stream (``doc_len`` bytes, ``df`` values) and
    then the tf exceptions (``tf_len`` bytes).  Every VByte value ends on
    its one byte < 128, so posting i starts after the doc stream's i-th
    terminator; the low bit of a value's first byte is its tf == 1 flag,
    so the exceptions before a block are the cleared flags before it,
    and the block's tf bytes start after that many tf terminators."""
    b = np.frombuffer(buf, dtype=np.uint8, count=doc_len + tf_len)
    d = b[:doc_len]
    starts = np.empty(df, dtype=np.int64)
    starts[0] = 0
    starts[1:] = np.flatnonzero(d < 128)[:-1] + 1
    first = np.arange(0, df, skip_block)
    n_exc = np.empty(df + 1, dtype=np.int64)
    n_exc[0] = 0
    np.cumsum((d[starts] & 1) == 0, out=n_exc[1:])
    tf_starts = np.concatenate(([0], np.flatnonzero(b[doc_len:] < 128) + 1))
    return {
        "skip_offset": starts[first],
        "skip_tf_offset": tf_starts[n_exc[first]],
        "skip_count": np.minimum(skip_block, df - first).astype(np.int32),
    }


def _unfold_doc_tf(vals: np.ndarray,
                   df: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(doc ids, tftds, exception count) from decoded int64 values: ``df``
    folded doc-stream values ``gap<<1 | (tf==1)`` followed by the tf
    exceptions (the tftds != 1, in posting order)."""
    v = vals[:df]
    exc = (v & 1) == 0
    n_exc = int(np.count_nonzero(exc))
    doc_ids = np.cumsum(v >> 1)
    tftds = np.ones(df, dtype=np.int64)
    tftds[exc] = vals[df:df + n_exc]
    return doc_ids, tftds, n_exc


def _segmented_cumsum(gaps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cumulative sum restarting at each list boundary (the first gap of a
    list is stored absolute, so subtracting the running total at each list
    start yields absolute positions)."""
    if gaps.size == 0:
        return gaps
    cs = np.cumsum(gaps)
    starts = offsets[:-1]
    lens = offsets[1:] - offsets[:-1]
    corr = np.where(starts > 0, cs[starts - 1], 0)
    return cs - np.repeat(corr, lens)


def _concat_postings(parts: list[PostingList], with_positions: bool) -> PostingList:
    if len(parts) == 1:
        return parts[0]
    doc_ids = np.concatenate([p.doc_ids for p in parts])
    tftds = np.concatenate([p.tftds for p in parts])
    if not with_positions:
        return PostingList(doc_ids, tftds)
    positions = np.concatenate([p.positions for p in parts])
    offsets = np.zeros(doc_ids.size + 1, dtype=np.int64)
    np.cumsum(tftds, out=offsets[1:])
    return PostingList(doc_ids, tftds, positions, offsets)
