"""Spelling correction — semantics of the reference's SpellingCorrection
(/root/reference/engine/text/spellingcorrection.py:1-37):

- vocabulary = the index's full term dictionary (ST6),
- candidate score = Levenshtein distance, top-5 ascending (O6),
- query correction: strip non-letters, split on whitespace, replace each
  word with its best candidate.

The reference iterates a Python set, so its tie order is unspecified; we
break ties (distance asc, candidate asc) for determinism.  The distance
loop is vectorized over many candidates at once with numpy (one DP row
per step across all of them) instead of the reference's per-word two-row
loop — same distances.  A word is compared with the vocabulary band by
band, in increasing length difference, until no unscanned term can rank
(the distance is at least the length difference).
"""

from __future__ import annotations

import re

import numpy as np

_LETTERS_RE = re.compile(r"[^a-zA-Z\s]")


def levenshtein(s1: str, s2: str) -> int:
    """Classic two-row DP edit distance."""
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    if not s2:
        return len(s1)
    prev = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1):
        cur = [i + 1]
        for j, c2 in enumerate(s2):
            cur.append(
                min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (c1 != c2))
            )
        prev = cur
    return prev[-1]


class SpellingCorrection:
    def __init__(self, index):
        self.vocabulary = sorted(index.get_vocabulary())
        # fixed-width uint32 codepoint matrix for vectorized DP
        if self.vocabulary:
            self._max_len = max(len(w) for w in self.vocabulary)
            self._mat = np.zeros(
                (len(self.vocabulary), self._max_len), dtype=np.uint32
            )
            for i, w in enumerate(self.vocabulary):
                self._mat[i, : len(w)] = np.frombuffer(
                    w.encode("utf-32-le"), dtype=np.uint32
                )
            self._lens = np.array(
                [len(w) for w in self.vocabulary], dtype=np.int64
            )
        else:
            self._max_len = 0
            self._mat = np.zeros((0, 0), dtype=np.uint32)
            self._lens = np.zeros(0, dtype=np.int64)
        # term ids grouped by length: the ids of length L are
        # _by_len[_len_start[L]:_len_start[L + 1]]
        self._by_len = np.argsort(self._lens, kind="stable")
        self._len_start = np.searchsorted(
            self._lens[self._by_len], np.arange(self._max_len + 2))

    def distances(self, word: str, ids: np.ndarray | None = None) -> np.ndarray:
        """Levenshtein distance from ``word`` to the vocabulary terms
        ``ids`` (default: all of them), one numpy DP sweep over those
        terms simultaneously."""
        if ids is None:
            ids = np.arange(len(self.vocabulary))
        n = ids.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        lens = self._lens[ids]
        width = int(lens.max())
        mat = self._mat[ids, :width]
        w = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
        # dp[v, j] = distance between word[:i] and term v's first j chars
        dp = np.tile(np.arange(width + 1, dtype=np.int64), (n, 1))
        for i in range(w.size):
            sub = dp[:, :-1] + (mat != w[i])
            ins = dp[:, 1:] + 1
            dp[:, 0] = i + 1
            for j in range(width):
                dp[:, j + 1] = np.minimum(
                    np.minimum(ins[:, j], sub[:, j]), dp[:, j] + 1
                )
        return dp[np.arange(n), lens]

    def suggest_for_word(self, word: str, max_suggestions: int = 5) -> list[str]:
        """The ``max_suggestions`` nearest terms, by (distance, term).
        Terms are scanned in bands of equal length difference |Δ| from
        ``word``, |Δ| = 0, 1, 2, ...; a term's distance is at least its
        |Δ|, so once the k-th best distance is <= the band just scanned,
        every unscanned term is strictly farther and the scan stops with
        the exhaustive scan's answer."""
        if not self.vocabulary or max_suggestions <= 0:
            return []
        m = len(word)
        ids, dist = [], []
        for delta in range(max(m, self._max_len - m) + 1):
            band = [self._by_len[self._len_start[L]:self._len_start[L + 1]]
                    for L in {m - delta, m + delta}
                    if 0 <= L <= self._max_len]
            band = np.concatenate(band) if band else np.zeros(0, np.int64)
            ids.append(band)
            dist.append(self.distances(word, band))
            got = np.concatenate(dist)
            if (got.size >= max_suggestions and np.partition(
                    got, max_suggestions - 1)[max_suggestions - 1] <= delta):
                break
        ids, dist = np.concatenate(ids), np.concatenate(dist)
        order = np.lexsort((ids, dist))[:max_suggestions]
        return [self.vocabulary[int(i)] for i in ids[order]]

    def suggest(self, query: str, max_suggestions: int = 5) -> str:
        """Whole-query correction (spellingcorrection.py:32-37)."""
        out = []
        for word in _LETTERS_RE.sub("", query).split():
            cands = self.suggest_for_word(word, max_suggestions)
            out.append(cands[0] if cands else word)
        return " ".join(out)
