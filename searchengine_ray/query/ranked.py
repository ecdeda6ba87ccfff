"""Ranked retrieval — tf-idf/cosine and Okapi BM25, rank-identical to
/root/reference/engine/querying/rankedquery.py:10-57, plus a block-max
WAND fast path for BM25 top-k.

Reference semantics replicated exactly:

- query preprocessing (T9 quirk): ``raw_query.lower().split()`` only — no
  punctuation cleanup, no stemming (rankedquery.py:55-57),
- default mode:  wqt = ln(1 + N/df),   wdt = 1 + ln(tf),  A_d += wqt*wdt/L_d
- okapi mode:    wqt = max(0.1, ln((N-df+0.5)/(df+0.5))),
                 wdt = 2.2*tf / (1.2*(0.25 + 0.75*dl/avgdl) + tf),  L_d = 1
- results: all scored docs, sorted by score descending (rankedquery.py:52).
  The reference's tie order is accumulator-dict insertion order; we break
  ties by doc_id ascending, which equals insertion order for single-term
  queries and is deterministic for the rest.
- a term with df == 0 contributes nothing; in default mode the reference
  would divide by zero on such a term (rankedquery.py:15) — we skip it
  instead of crashing.

The exact scorer is term-at-a-time over full decoded posting lists: the
per-term weights are numpy arrays, but they are summed per document in a
Python dict and every scored doc is sorted.  The WAND path uses the
per-skip-block max wdt persisted in the segments (build.py): a block
whose wqt*max_wdt (summed over live terms) cannot beat the current kth
score is never decoded.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..build import BM25_B, BM25_K1


def ranked_query_terms(raw_query: str) -> list[str]:
    return raw_query.lower().split()


def _wqt(n_docs: int, df: int, use_okapi: bool) -> float:
    if use_okapi:
        return max(0.1, math.log((n_docs - df + 0.5) / (df + 0.5)))
    return math.log(1.0 + n_docs / df)


def rank_documents_exact(
    index, raw_query: str, use_okapi: bool, top_k: int | None = None
) -> list[tuple[int, float]]:
    """Term-at-a-time exact scorer (the oracle path)."""
    terms = ranked_query_terms(raw_query)
    n = index.num_docs
    avgdl = index.avg_doc_length
    acc: dict[int, float] = {}
    for term in terms:
        df = index.df(term)
        if df == 0:
            continue
        wqt = _wqt(n, df, use_okapi)
        pl = index.get_postings(term)
        tf = pl.tftds.astype(np.float64)
        if use_okapi:
            dl = index.doc_length[pl.doc_ids].astype(np.float64)
            wdt = (BM25_K1 + 1.0) * tf / (
                BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl / avgdl)) + tf
            )
            contrib = wqt * wdt
        else:
            wdt = 1.0 + np.log(tf)
            ld = index.l_d[pl.doc_ids]
            contrib = wqt * wdt / np.where(ld == 0, 1.0, ld)
        for doc, c in zip(pl.doc_ids.tolist(), contrib.tolist()):
            acc[doc] = acc.get(doc, 0.0) + c
    ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k] if top_k is not None else ranked


class _TermCursor:
    """Skip-block cursor over one term's fragments (for WAND).

    Concatenates the per-fragment skip arrays — fragments are doc-range
    disjoint and ordered, so the combined block list is doc_id-sorted.
    Blocks decode lazily; a skipped block is never decoded.
    """

    __slots__ = (
        "wqt", "global_ub", "block_last", "block_max_wdt", "blk", "nblocks",
        "_frag_rows", "_frag_of_block", "_block_in_frag", "_skip_n",
        "_decoded", "_tf_decoded", "cur_doc", "cur_wdt", "_pos",
    )

    def __init__(self, index, term: str, wqt: float, use_okapi: bool):
        self.wqt = wqt
        skip_n = index.manifest["config"]["skip_block"]
        self._skip_n = skip_n
        lasts, maxws = [], []
        self._frag_rows = []
        self._frag_of_block = []
        self._block_in_frag = []
        rows = []
        for fr in index.fragments(term):
            row = index.read_fragment_row(
                fr, ["blob", "tf_blob", "skip_last_doc", "skip_max_wdt",
                     "skip_offset", "skip_tf_offset", "skip_count"]
            )
            row["df"] = fr.df
            rows.append(row)
        # fragments are doc-range disjoint, so ordering by any doc of
        # each (the first block's last doc) makes the concatenated block
        # list globally doc-ascending even for merged generational
        # indexes whose per-build salting disagrees (the dictionary's
        # (shard, salt) sort alone covers single-generation indexes)
        rows.sort(key=lambda r: int(r["skip_last_doc"][0]))
        for fi, row in enumerate(rows):
            self._frag_rows.append(row)
            nb = len(row["skip_last_doc"])
            lasts.extend(row["skip_last_doc"])
            maxws.extend(row["skip_max_wdt"])
            self._frag_of_block.extend([fi] * nb)
            self._block_in_frag.extend(range(nb))
        self.block_last = np.asarray(lasts, dtype=np.int64)
        self.block_max_wdt = np.asarray(maxws, dtype=np.float64)
        self.nblocks = self.block_last.size
        self.blk = 0
        self._decoded: dict[int, np.ndarray] = {}
        self._tf_decoded: dict[int, np.ndarray] = {}
        self._pos = 0
        self._load_block(0)

    def _decode_block(self, b: int) -> np.ndarray:
        """Doc ids of block ``b`` (tfs decode separately, only when the
        block is actually scored — the v3 split streams make the tf
        bytes skippable)."""
        hit = self._decoded.get(b)
        if hit is not None:
            return hit
        from .. import vbyte

        fi = self._frag_of_block[b]
        bif = self._block_in_frag[b]
        row = self._frag_rows[fi]
        offs = row["skip_offset"]
        blob = row["blob"]
        start = offs[bif]
        end = offs[bif + 1] if bif + 1 < len(offs) else len(blob)
        # format v4: blocks are variable-size (fragment seams coalesce),
        # so the per-block posting count is persisted, not derived
        n_postings = row["skip_count"][bif]
        gaps = vbyte.decode(blob[start:end], count=n_postings).astype(
            np.int64)
        # first gap of a non-first block is relative to the previous
        # block's last doc (continuous deltas across blocks)
        base = row["skip_last_doc"][bif - 1] if bif > 0 else 0
        doc_ids = base + np.cumsum(gaps)
        self._decoded[b] = doc_ids
        return doc_ids

    def _block_tfs(self, b: int) -> np.ndarray:
        hit = self._tf_decoded.get(b)
        if hit is not None:
            return hit
        from .. import vbyte

        fi = self._frag_of_block[b]
        bif = self._block_in_frag[b]
        row = self._frag_rows[fi]
        toffs = row["skip_tf_offset"]
        tf_blob = row["tf_blob"]
        ts = toffs[bif]
        te = toffs[bif + 1] if bif + 1 < len(toffs) else len(tf_blob)
        n_postings = row["skip_count"][bif]
        tftds = vbyte.decode(tf_blob[ts:te], count=n_postings).astype(
            np.int64)
        self._tf_decoded[b] = tftds
        return tftds

    def _load_block(self, b: int) -> None:
        self.blk = b
        if b >= self.nblocks:
            self.cur_doc = np.iinfo(np.int64).max
            return
        doc_ids = self._decode_block(b)
        self._pos = 0
        self.cur_doc = int(doc_ids[0])

    def exhausted(self) -> bool:
        return self.blk >= self.nblocks

    def shallow_block_for(self, target: int) -> int:
        """Index of the block that would contain ``target`` (no decode)."""
        if target <= self.block_last[self.blk]:
            return self.blk
        return int(np.searchsorted(self.block_last, target, side="left"))

    def next_geq(self, target: int) -> None:
        """Advance to the first posting with doc_id >= target."""
        if self.exhausted():
            return
        b = self.blk
        if self.block_last[b] < target:
            b = int(np.searchsorted(self.block_last, target, side="left"))
            if b >= self.nblocks:
                self.blk = self.nblocks
                self.cur_doc = np.iinfo(np.int64).max
                return
            self._load_block(b)
        doc_ids = self._decode_block(self.blk)
        p = int(np.searchsorted(doc_ids, target, side="left"))
        self._pos = p
        self.cur_doc = int(doc_ids[p])

    def advance(self) -> None:
        doc_ids = self._decode_block(self.blk)
        self._pos += 1
        if self._pos >= doc_ids.size:
            self._load_block(self.blk + 1)
        else:
            self.cur_doc = int(doc_ids[self._pos])

    def current_tf(self) -> int:
        return int(self._block_tfs(self.blk)[self._pos])


def rank_bm25_wand(index, raw_query: str, top_k: int = 10) -> list[tuple[int, float]]:
    """Document-at-a-time block-max WAND over the skip metadata.

    Returns the same (doc_id, score) top-k as ``rank_documents_exact`` with
    ``use_okapi=True`` — the skip-block max wdt stored at build time is an
    exact per-block upper bound, so pruning is score-safe.  Duplicate query
    terms contribute additively, as in the reference's accumulator loop.
    """
    terms = ranked_query_terms(raw_query)
    n = index.num_docs
    avgdl = index.avg_doc_length
    cursors: list[_TermCursor] = []
    for term in terms:
        df = index.df(term)
        if df == 0:
            continue
        wqt = _wqt(n, df, use_okapi=True)
        cur = _TermCursor(index, term, wqt, use_okapi=True)
        cur.global_ub = wqt * index.max_wdt(term)
        if not cur.exhausted():
            cursors.append(cur)
    if not cursors:
        return []

    heap: list[tuple[float, int]] = []  # (score, -doc_id) min-heap of top-k
    theta = -math.inf

    live = [c for c in cursors]
    while live:
        live.sort(key=lambda c: c.cur_doc)
        # 1. WAND pivot with *global* term upper bounds (score-safe)
        ub = 0.0
        pivot_idx = -1
        for i, c in enumerate(live):
            ub += c.global_ub
            # >= keeps ties: a doc scoring exactly theta with a lower
            # doc_id outranks the current kth (exact sort is
            # (-score, doc_id)), so it must not be pruned
            if ub >= theta or len(heap) < top_k:
                pivot_idx = i
                break
        if pivot_idx < 0:
            break  # no remaining doc can reach theta: done
        pivot_doc = live[pivot_idx].cur_doc
        # cursors that could contribute to pivot_doc (includes any after
        # the pivot whose cur_doc equals it; list is cur_doc-sorted)
        k_end = pivot_idx + 1
        while k_end < len(live) and live[k_end].cur_doc == pivot_doc:
            k_end += 1
        involved = live[:k_end]
        # 2. block-max shallow check: blocks containing pivot_doc, no decode
        blocks = [c.shallow_block_for(pivot_doc) for c in involved]
        ub_blocks = sum(
            c.wqt * float(c.block_max_wdt[b])
            for c, b in zip(involved, blocks)
            if b < c.nblocks
        )
        if len(heap) >= top_k and ub_blocks < theta:
            # skip: jump the involved cursors past the earliest block
            # boundary — but never past the next uninvolved cursor's doc,
            # which could start a beatable candidate with more terms
            d = min(
                int(c.block_last[b])
                for c, b in zip(involved, blocks)
                if b < c.nblocks
            ) + 1
            if k_end < len(live):
                d = min(d, live[k_end].cur_doc)
            for c in involved:
                if c.cur_doc < d:
                    c.next_geq(d)
            live = [c for c in live if not c.exhausted()]
            continue
        # 3. deep alignment of leading cursors to pivot_doc
        if any(c.cur_doc < pivot_doc for c in involved):
            for c in involved:
                if c.cur_doc < pivot_doc:
                    c.next_geq(pivot_doc)
            live = [c for c in live if not c.exhausted()]
            continue
        # 4. all involved cursors sit on >= pivot_doc: score pivot exactly,
        # in query-term order and with rank_documents_exact's arithmetic,
        # so both paths give bit-equal scores and break score ties alike
        score = 0.0
        dl = float(index.doc_length[pivot_doc])
        norm = BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl / avgdl))
        for c in cursors:
            if c.cur_doc == pivot_doc:
                tf = float(c.current_tf())
                score += c.wqt * ((BM25_K1 + 1.0) * tf / (norm + tf))
        entry = (score, -pivot_doc)
        if len(heap) < top_k:
            heapq.heappush(heap, entry)
            if len(heap) == top_k:
                theta = heap[0][0]
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
            theta = heap[0][0]
        for c in involved:
            if c.cur_doc == pivot_doc:
                c.advance()
        live = [c for c in live if not c.exhausted()]

    out = sorted(heap, key=lambda e: (-e[0], -e[1]))
    return [(-nd, s) for s, nd in out]
