"""Exact oracle for the benchmark's outputs.

It is built from the generated corpus and shares no scoring, merge or
decode code with the engine: postings, tf, document lengths and L_d are
counted here from the corpus token stream, and BM25 / tf-idf scores,
Boolean sets and phrase matches are computed here.  Only the per-word
tokenization (one term tuple per vocabulary word, from the package's
tokenizer) is shared, because the engine defines what a term is.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .gen import Corpus, Query

BM25_K1, BM25_B = 1.2, 0.75
TOP_K = 10
RTOL = 1e-9


def digest(doc_ids) -> tuple[int, bytes]:
    """Compact fingerprint of a doc-id array (kept instead of the array
    while timing, so stored results do not inflate the benchmark process's RSS)."""
    a = np.ascontiguousarray(doc_ids, dtype=np.int64)
    return a.size, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


class Oracle:
    def __init__(self, corpus: Corpus, word_terms: list[tuple[str, ...]]):
        n = corpus.num_docs
        self.num_docs = n
        term_id: dict[str, int] = {}
        flat, lens = [], []
        for terms in word_terms:
            lens.append(len(terms))
            flat.extend(term_id.setdefault(t, len(term_id)) for t in terms)
        self.term_id = term_id
        self.terms = list(term_id)
        nterms = len(term_id)
        lens = np.asarray(lens, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        woff = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=woff[1:])

        # one row per emitted type: (doc, 1-based token position, term)
        doc_len_tok = np.diff(corpus.doc_offsets)
        tok_doc = np.repeat(np.arange(n, dtype=np.int64), doc_len_tok)
        tok_pos = (np.arange(corpus.word_ids.size, dtype=np.int64)
                   - np.repeat(corpus.doc_offsets[:-1], doc_len_tok) + 1)
        tl = lens[corpus.word_ids]
        rep = np.repeat(np.arange(tl.size, dtype=np.int64), tl)
        intra = (np.arange(rep.size, dtype=np.int64)
                 - np.repeat(np.cumsum(tl) - tl, tl))
        type_term = flat[woff[corpus.word_ids[rep]] + intra]
        type_doc = tok_doc[rep]
        type_pos = tok_pos[rep]

        # doc_length counts every type, the empty one included
        self.doc_length = np.bincount(type_doc, minlength=n).astype(np.int64)
        self.total_tokens = int(self.doc_length.sum())
        self.avg_doc_length = self.total_tokens / n

        key, tf = np.unique(type_doc * nterms + type_term, return_counts=True)
        p_doc, p_term = np.divmod(key, nterms)
        self.l_d = np.sqrt(np.bincount(
            p_doc, weights=(1.0 + np.log(tf)) ** 2, minlength=n))

        # postings grouped by term (the empty term is never indexed)
        empty = term_id.get("")
        order = np.lexsort((p_doc, p_term))
        self._p_doc, self._p_tf = p_doc[order], tf[order]
        self._p_bounds = np.searchsorted(p_term[order],
                                         np.arange(nterms + 1))

        # positional keys doc * stride + pos, grouped by term (phrases)
        self._stride = int(tok_pos.max()) + 2
        order = np.lexsort((type_pos, type_doc, type_term))
        self._pos_key = (type_doc * self._stride + type_pos)[order]
        self._pos_bounds = np.searchsorted(type_term[order],
                                           np.arange(nterms + 1))
        self._empty = empty

    # ---- dictionary ----

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        t = self.term_id.get(term)
        if t is None or t == self._empty:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        s, e = self._p_bounds[t], self._p_bounds[t + 1]
        return self._p_doc[s:e], self._p_tf[s:e]

    @functools.cached_property
    def term_stats(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(sorted indexed terms, df, cf)."""
        terms = sorted(t for t in self.terms if t and self.postings(t)[0].size)
        df = np.array([self.postings(t)[0].size for t in terms])
        cf = np.array([int(self.postings(t)[1].sum()) for t in terms])
        return terms, df, cf

    # ---- ranked ----

    def scores(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """(dense score per doc, mask of scored docs): a doc is scored
        when it holds any query term (repeated terms count again)."""
        n = self.num_docs
        acc = np.zeros(n, dtype=np.float64)
        hit = np.zeros(n, dtype=bool)
        for term in q.text.lower().split():
            docs, tf = self.postings(term)
            df = docs.size
            if df == 0:
                continue
            tf = tf.astype(np.float64)
            if q.okapi:
                wqt = max(0.1, math.log((n - df + 0.5) / (df + 0.5)))
                norm = (1.0 - BM25_B) + BM25_B * (
                    self.doc_length[docs] / self.avg_doc_length)
                contrib = wqt * ((BM25_K1 + 1.0) * tf / (BM25_K1 * norm + tf))
            else:
                wqt = math.log(1.0 + n / df)
                ld = self.l_d[docs]
                contrib = wqt * (1.0 + np.log(tf)) / np.where(ld == 0, 1.0, ld)
            acc[docs] += contrib
            hit[docs] = True
        return acc, hit

    def top_k(self, q: Query, k: int = TOP_K,
              scored=None) -> list[tuple[int, float]]:
        acc, hit = scored if scored is not None else self.scores(q)
        docs = np.flatnonzero(hit)
        order = np.lexsort((docs, -acc[docs]))[:k]
        return [(int(docs[i]), float(acc[docs[i]])) for i in order]

    def check_ranked(self, q: Query, got, k: int = TOP_K) -> bool:
        """Top-k ids and scores within RTOL; any doc whose exact score
        ties the expected one at a rank is accepted there, and equal
        reported scores must list doc ids ascending."""
        acc, hit = scored = self.scores(q)
        want = self.top_k(q, k, scored)
        if len(got) != len(want):
            return False
        seen = set()
        prev = None
        for (d, s), (_, ws) in zip(got, want):
            d = int(d)
            if d in seen or not 0 <= d < self.num_docs or not hit[d]:
                return False
            seen.add(d)
            tol = RTOL * abs(ws)
            if abs(s - ws) > tol or abs(acc[d] - ws) > tol:
                return False
            if prev is not None and (s > prev[1] + tol
                                     or (s == prev[1] and d < prev[0])):
                return False
            prev = (d, s)
        return True

    # ---- Boolean ----

    def docs(self, term: str) -> np.ndarray:
        return self.postings(term)[0]

    def phrase_docs(self, a: str, b: str) -> np.ndarray:
        ka, kb = self._keys(a), self._keys(b)
        both = np.intersect1d(ka, kb - 1, assume_unique=False)
        return np.unique(both // self._stride)

    def _keys(self, term: str) -> np.ndarray:
        t = self.term_id.get(term)
        if t is None or t == self._empty:
            return np.empty(0, np.int64)
        return self._pos_key[self._pos_bounds[t]:self._pos_bounds[t + 1]]

    def boolean(self, q: Query) -> np.ndarray:
        sets = [self.docs(t) for t in q.terms]
        if q.kind == "and":
            out = sets[0]
            for s in sets[1:]:
                out = np.intersect1d(out, s)
            return out
        if q.kind == "or":
            out = sets[0]
            for s in sets[1:]:
                out = np.union1d(out, s)
            return out
        if q.kind == "andnot":
            return np.setdiff1d(sets[0], sets[1])
        if q.kind == "phrase":
            return self.phrase_docs(*q.terms)
        raise ValueError(f"not a Boolean query kind: {q.kind}")

    def check_boolean(self, q: Query, got_digest) -> bool:
        return digest(self.boolean(q)) == tuple(got_digest)
