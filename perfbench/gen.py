"""Seeded inputs: the synthetic corpus and the query streams.

Everything here depends only on the seed (and, for query streams, on the
built index's vocabulary), never on ``searchengine_ray.corpus``, so a
change to the program cannot change the workload it is measured on.

The corpus has the shape of a source-code table (repo, path, commit,
lang, content, doc_id): a fixed ~20k-word vocabulary drawn Zipf-skewed
(weight 1/(rank + 5)), 60-600 words per document, 14 words per line.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Head of the vocabulary: code-ish tokens, several of which exercise the
# tokenizer's hyphen expansion, edge stripping, quote and non-ASCII
# removal, and stemming.
HEAD_WORDS = [
    "def", "return", "self", "import", "class", "lambda", "yield", "async",
    "await", "none", "true", "false", "if", "else:", "elif", "while", "for",
    "in", "not", "dict", "list[int]", "print('hi')", "x=1", "y+=2",
    "foo-bar-baz", "state-of-the-art", "data-driven", "hello.", '"quoted"',
    "192.168.1.1", "MixedCase", "naïve", "café", "apos'trophe", "--",
    "running", "indexes", "search", "engine", "tokenize", "caresses",
    "ponies", "relational", "conditional", "generously", "self.value",
    "os.path", "np.array",
]
TAIL_SIZE = 20_000
_CONS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_SUFFIXES = ["", "s", "ing", "ed", "ation", "er", "ly", "_id"]

WORDS_PER_LINE = 14
MIN_WORDS, MAX_WORDS = 60, 600
NUM_FILES = 8
_LANGS = ["py", "py", "py", "js", "js", "go", "java", "rs"]

# Query terms must survive Boolean syntax untouched (no '"', '+', '-').
QUERY_TERM_RE = re.compile(r"[a-z0-9_.]+")


def vocabulary() -> list[str]:
    """The fixed word list, in Zipf rank order (seed-independent)."""
    syll = [c + v for c in _CONS for v in _VOWELS]
    tail = []
    for i in range(TAIL_SIZE):
        a, b, c = i % 80, (i // 80) % 80, (i // 6400) % 80
        tail.append(syll[c] + syll[b] + syll[a] + _SUFFIXES[(i * 7) % 8])
    return HEAD_WORDS + tail


@dataclass
class Corpus:
    words: list[str]          # vocabulary, by word id
    word_ids: np.ndarray      # every token's word id, docs concatenated
    doc_offsets: np.ndarray   # doc d's tokens: word_ids[off[d]:off[d+1]]

    @property
    def num_docs(self) -> int:
        return len(self.doc_offsets) - 1

    def doc_words(self, d: int) -> np.ndarray:
        return self.word_ids[self.doc_offsets[d]:self.doc_offsets[d + 1]]


def make_corpus(num_docs: int, seed: int) -> Corpus:
    words = vocabulary()
    rng = np.random.default_rng([seed, 0xC0])
    lengths = rng.integers(MIN_WORDS, MAX_WORDS + 1, size=num_docs)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    w = 1.0 / (ranks + 5.0)
    cumw = np.cumsum(w / w.sum())
    draws = np.searchsorted(cumw, rng.random(int(lengths.sum())))
    word_ids = np.minimum(draws, len(words) - 1).astype(np.int32)
    offsets = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return Corpus(words, word_ids, offsets)


def corpus_table(corpus: Corpus) -> pa.Table:
    vocab = np.array(corpus.words, dtype=object)
    contents, repos, paths, commits, langs = [], [], [], [], []
    for d in range(corpus.num_docs):
        toks = vocab[corpus.doc_words(d)]
        contents.append("\n".join(
            " ".join(toks[j:j + WORDS_PER_LINE])
            for j in range(0, len(toks), WORDS_PER_LINE)))
        repo = f"org{d % 31}/repo{d % 199}"
        path = f"src/mod{d % 47}/file_{d}.py"
        repos.append(repo)
        paths.append(path)
        commits.append(hashlib.sha1(f"{repo}/{path}".encode()).hexdigest())
        langs.append(_LANGS[d % len(_LANGS)])
    return pa.table({
        "repo": repos, "path": paths, "commit": commits, "lang": langs,
        "content": contents,
        "doc_id": pa.array(np.arange(corpus.num_docs), type=pa.int64()),
    })


def write_corpus(corpus: Corpus, out_dir: str) -> str:
    """Write the corpus as NUM_FILES parquet files; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    tbl = corpus_table(corpus)
    per = -(-tbl.num_rows // NUM_FILES)
    for i in range(NUM_FILES):
        pq.write_table(tbl.slice(i * per, per),
                       os.path.join(out_dir, f"part_{i:02d}.parquet"))
    return out_dir


# ---- query streams ----

@dataclass(frozen=True)
class Query:
    kind: str             # 'ranked' | 'and' | 'or' | 'andnot' | 'phrase'
    terms: tuple[str, ...]
    okapi: bool = True    # ranked only: BM25 (True) or tf-idf (False)

    @property
    def text(self) -> str:
        if self.kind in ("ranked", "and"):
            return " ".join(self.terms)
        if self.kind == "or":
            return " + ".join(self.terms)
        if self.kind == "andnot":
            return f"{self.terms[0]} -{self.terms[1]}"
        return '"' + " ".join(self.terms) + '"'

    @property
    def ranked(self) -> bool:
        return self.kind == "ranked"


HOT_POOL = 64
TFIDF_SHARE = 0.25
COLD_ZIPF_S = 0.8


def query_candidates(terms: list[str], df: np.ndarray,
                     stable_term) -> list[str]:
    """Index terms usable in any query, by df descending (ties by term).

    ``stable_term(t)`` must say whether Boolean preprocessing maps ``t``
    to itself, so the same string is one term on the ranked path (no
    stemming) and on the Boolean path (stemmed)."""
    keep = [i for i, t in enumerate(terms)
            if QUERY_TERM_RE.fullmatch(t) and stable_term(t)]
    keep.sort(key=lambda i: (-int(df[i]), terms[i]))
    return [terms[i] for i in keep]


class Strata:
    """Stratified uniform draws: each block of ``block`` consecutive values
    holds exactly one value in every interval [j/block, (j+1)/block), in
    random order.  Every seed then gets the same mix of cheap and costly
    queries (query lengths, kinds, head vs tail terms), and seeds differ
    only in which terms fill it."""

    def __init__(self, rng: np.random.Generator, block: int = 64):
        self.rng = rng
        self.block = block
        self._buf: list[float] = []

    def __call__(self) -> float:
        if not self._buf:
            b = self.block
            self._buf = ((self.rng.permutation(b) + self.rng.random(b))
                         / b).tolist()
        return self._buf.pop()


def _distinct(k: int, draw) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < k:
        t = draw()
        if t not in out:
            out.append(t)
    return tuple(out)


def hot_queries(candidates: list[str], seed: int):
    """BM25/tf-idf queries of 1-4 distinct terms from the HOT_POOL
    highest-df candidates (they all fit the reader's posting cache)."""
    pool = candidates[:HOT_POOL]
    rng = np.random.default_rng([seed, 0x40])
    u_k, u_mode, u_term = Strata(rng), Strata(rng), Strata(rng)

    def draw() -> str:
        return pool[int(u_term() * len(pool))]

    while True:
        k = 1 + int(u_k() * 4)
        yield Query("ranked", _distinct(k, draw),
                    okapi=u_mode() >= TFIDF_SHARE)


# kinds of a cold query, in equal strata: half ranked, half Boolean
COLD_KINDS = ("ranked",) * 4 + ("and", "or", "andnot", "phrase")


def cold_queries(candidates: list[str], corpus: Corpus, word_terms,
                 seed: int):
    """Ranked and Boolean queries with terms drawn Zipf(COLD_ZIPF_S) over
    every candidate, so the distinct terms outgrow the reader's caches.
    ``word_terms[w]`` is the term tuple of vocabulary word ``w``; phrase
    queries are adjacent word pairs taken from the corpus."""
    rng = np.random.default_rng([seed, 0xC01D])
    ranks = np.arange(1, len(candidates) + 1, dtype=np.float64)
    w = ranks ** -COLD_ZIPF_S
    cumw = np.cumsum(w / w.sum())
    u_kind, u_k, u_bk, u_mode, u_term, u_pair = (Strata(rng)
                                                 for _ in range(6))

    def draw() -> str:
        i = int(np.searchsorted(cumw, u_term()))
        return candidates[min(i, len(candidates) - 1)]

    # phrase pairs: positions p whose word and next word (same document)
    # are each one candidate term, ordered by the product of the two
    # words' frequency ranks (a proxy for the pair's common documents,
    # which set a phrase query's cost), so stratified quantiles pick
    # costly and cheap pairs in fixed shares
    cand_set = set(candidates)
    single = np.array([len(t) == 1 and t[0] in cand_set for t in word_terms])
    ids = corpus.word_ids
    ok = single[ids[:-1]] & single[ids[1:]]
    ok[corpus.doc_offsets[1:-1] - 1] = False
    pos = np.flatnonzero(ok).astype(np.int32)
    cost_rank = (ids[pos] + 5.0) * (ids[pos + 1] + 5.0)
    pos = pos[np.argsort(cost_rank, kind="stable")]
    del ok, cost_rank

    def stream():
        while True:
            kind = COLD_KINDS[int(u_kind() * len(COLD_KINDS))]
            if kind == "ranked":
                yield Query("ranked", _distinct(1 + int(u_k() * 4), draw),
                            okapi=u_mode() >= TFIDF_SHARE)
            elif kind == "phrase":
                p = int(pos[int(u_pair() * pos.size)])
                yield Query("phrase", (word_terms[ids[p]][0],
                                       word_terms[ids[p + 1]][0]))
            elif kind == "andnot":
                yield Query("andnot", _distinct(2, draw))
            else:
                yield Query(kind, _distinct(2 + int(u_bk() * 2), draw))

    return stream()  # the set-up above runs now, not at the first query


def serve_batches(candidates: list[str], seed: int, batch: int = 4):
    """Batches of hot queries; ``ranked_many`` takes one mode per batch."""
    inner = hot_queries(candidates, seed)
    u_mode = Strata(np.random.default_rng([seed, 0x5E]))
    while True:
        okapi = u_mode() >= TFIDF_SHARE
        yield [Query("ranked", next(inner).terms, okapi=okapi)
               for _ in range(batch)]
