"""Tokenization chain (T1-T4) — reproduces the reference's term identity.

Reference semantics (see SURVEY.md §2.2, all cites into /root/reference):

- T1 stream split: each *line* of a document is split on the literal space
  character only; pieces are ``strip()``-ed and empties dropped
  (engine/text/englishtokenstream.py:12-18).  For .txt documents the content
  iterable is the file's lines (documents/textfiledocument.py:17-25), so our
  single ``content`` string is split on ``\n`` first.
- T2 token -> types: hyphen expansion (each ``split("-")`` part plus the
  concatenation), then per type: strip leading/trailing non-alphanumerics,
  remove quotes/apostrophes/spaces, remove non-ASCII, lowercase
  (engine/text/basictokenprocessor.py:10-36).  Empty strings are *kept* in
  the type list (they count toward doc_length) but never indexed
  (engine/indexing/postionalinvertedindex.py:28).
- T3 type -> term: Porter2 stem (engine/text/basictokenprocessor.py:38-40).
- T4 positions: counter starts at 1 and increments once per stream token;
  all types from one token share its position
  (engine/text/preprocessing.py:65-80).

doc_length counts EVERY emitted type, including empty ones
(engine/indexing/spimi.py:66-79: ``doc_length += 1`` per yielded term).
The empty term also participates in doc_term_freq and therefore in L_d
(engine/indexing/spimi.py:110-117) — replicated here.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator

from .porter2 import stem

_EDGE_RE = re.compile(r"^[^a-zA-Z0-9]+|[^a-zA-Z0-9]+$")
_QUOTE_RE = re.compile(r"[\"' ]")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7F]+")


def stream_tokens(content: str) -> Iterator[str]:
    """T1: yield raw stream tokens from a document's content string."""
    for line in content.split("\n"):
        for piece in line.split(" "):
            tok = piece.strip()
            if tok:
                yield tok


def process_token(token: str) -> list[str]:
    """T2: token -> cleaned types (empties kept, duplicates kept)."""
    if "-" in token:
        parts = token.split("-")
        result = parts + ["".join(parts)]
    else:
        result = [token]
    out = []
    for tok in result:
        tok = _EDGE_RE.sub("", tok)
        tok = _QUOTE_RE.sub("", tok)
        tok = _NON_ASCII_RE.sub("", tok)
        out.append(tok.lower())
    return out


def normalize_type(type_: str) -> str:
    """T3: type -> term (Porter2 stem)."""
    return stem(type_)


class TokenTermCache:
    """Memoizing token -> tuple[terms] map (per-actor state; the 'stemmer
    cache' stateful stage from the north star).  Source code repeats tokens
    heavily, so hit rates are high."""

    def __init__(self, max_size: int = 1_000_000):
        self._cache: dict[str, tuple[str, ...]] = {}
        self._max_size = max_size

    def terms_for(self, token: str) -> tuple[str, ...]:
        hit = self._cache.get(token)
        if hit is not None:
            return hit
        terms = tuple(stem(t) for t in process_token(token))
        if len(self._cache) < self._max_size:
            self._cache[token] = terms
        return terms


def iter_term_positions(
    content: str, cache: TokenTermCache | None = None
) -> Iterator[tuple[str, int]]:
    """T4: yield (term, position) pairs; position starts at 1, one per
    stream token, shared by all of that token's types."""
    position = 0
    if cache is None:
        for token in stream_tokens(content):
            position += 1
            for type_ in process_token(token):
                yield stem(type_), position
    else:
        for token in stream_tokens(content):
            position += 1
            for term in cache.terms_for(token):
                yield term, position


def process_query_terms(query: str) -> list[str]:
    """T5/query-side chain (boolean path): T1 -> T2 -> T3 over a query
    string (engine/text/preprocessing.py:36-48)."""
    out = []
    for token in stream_tokens(query):
        for type_ in process_token(token):
            out.append(stem(type_))
    return out


def ranked_query_terms(raw_query: str) -> list[str]:
    """T9 quirk: the ranked path lowercases and whitespace-splits ONLY —
    no cleaning, no stemming (engine/querying/rankedquery.py:55-57)."""
    return raw_query.lower().split()


def analyze_document(
    content: str, cache: TokenTermCache | None = None
) -> tuple[dict[str, list[int]], int]:
    """Tokenize one document.

    Returns (term -> sorted positions dict incl. the empty term, doc_length).
    doc_length counts every emitted type (empty types included), matching
    engine/indexing/spimi.py:71-79.
    """
    term_positions: dict[str, list[int]] = {}
    doc_length = 0
    for term, pos in iter_term_positions(content, cache):
        doc_length += 1
        term_positions.setdefault(term, []).append(pos)
    return term_positions, doc_length


def analyze_document_whitespace(
    content: str, cache: TokenTermCache | None = None
) -> tuple[dict[str, list[int]], int]:
    """Alternative pluggable tokenizer (user-extension surface, SURVEY §2.11):
    lowercase + any-whitespace split, no cleanup, no stemming — exactly
    DuckDB's ``regexp_split_to_array(lower(text), '\\s+')``, which makes the
    whole index + scoring pipeline SQL-oracle-checkable end to end."""
    term_positions: dict[str, list[int]] = {}
    position = 0
    for token in content.lower().split():
        position += 1
        term_positions.setdefault(token, []).append(position)
    return term_positions, position


def _analyze_spanish(content: str, cache=None):
    from .spanish import analyze_document_spanish

    return analyze_document_spanish(content, cache)


ANALYZERS = {
    "reference": analyze_document,
    "whitespace": analyze_document_whitespace,
    # T7: pure-Python Snowball Spanish stemming in place of the
    # reference's spaCy lemmatizer (not installable here); see spanish.py
    "spanish": _analyze_spanish,
}


def euclidean_weight(term_freqs: Iterable[int]) -> float:
    """L_d = sqrt(sum over a doc's types of (1 + ln tf)^2)
    (engine/indexing/spimi.py:110-121; the empty term participates)."""
    return math.sqrt(sum((1.0 + math.log(tf)) ** 2 for tf in term_freqs if tf > 0))
