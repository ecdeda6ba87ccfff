"""Vectorized batch tokenization — the per-occurrence-Python-free path.

``TokenizeDocs`` originally walked every (token, position) pair of every
document in Python (tokenizer.analyze_document).  That is inherent for
per-token work, but the per-token work itself is memoized per *distinct*
token (TokenTermCache) — so the only part that needs Python at all is the
distinct-piece vocabulary of a batch.  This module restructures the stage:

1. split documents into pieces with classification-free Arrow kernels
   (literal `split_pattern` after a whitespace-normalizing regex pass —
   verified char-for-char equal to the reference's ``line.split(" ")`` /
   Python ``str.split()``; see _PY_WS_PATTERN for why no utf8_* kernel),
2. dictionary-encode the flat pieces and run the token->terms chain
   (T2 strip/clean/hyphen-expand + T3 stem, or whitespace identity) once
   per DISTINCT piece through the existing worker cache,
3. scatter terms back per occurrence with one Arrow list-take,
4. group (doc, term) -> (tftd, positions) with one numpy argsort over a
   packed int64 key + run-boundary reduceats.

Semantics are bit-identical to tokenizer.analyze_document /
analyze_document_whitespace (pytest parity suite: tests/test_tokenizer.py)
— including the reference quirks: empty types count toward doc_length and
L_d but are never indexed (/root/reference/engine/indexing/spimi.py:66-117,
postionalinvertedindex.py:28), positions are 1-based per stream token and
shared by a token's expanded types, and pieces that strip() to nothing
consume no position (englishtokenstream.py:12-18).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vbyte
from .tokenizer import TokenTermCache

# analyzers this fast path covers; others fall back to the per-doc loop
VECTORIZED_ANALYZERS = ("reference", "whitespace")

# Every codepoint Python's str.split() treats as whitespace, space itself
# excepted.  pyarrow 16.1.0's utf8_split_whitespace (and utf8_lower)
# nondeterministically misclassify the FINAL codepoint of an array's data
# buffer depending on the heap state left by unrelated allocations —
# observed live on a buffer-final U+00A0, U+001C, and even ASCII \x0b,
# each kept inside the last piece while an identical freshly-built array
# split correctly (found by the hypothesis parity suite; reproducers in
# tests/test_batch_tokenize.py).  RE2's byte-DFA replace showed correct
# output in the same bad heap states, so the whitespace path uses ONLY
# classification-free kernels: one regex pass normalizes every
# whitespace codepoint to a plain space, then the literal memcmp-based
# split_pattern(" ") — the same kernel family as the reference path,
# which has never exhibited the flake — does the splitting.  Piece
# boundaries are exactly Python str.split()'s; the extra empty pieces
# from uncollapsed runs are already inert downstream (zero terms, no
# position, zero doc_length weight).
_PY_WS_PATTERN = (
    "[\t\n\x0b\x0c\r\x1c-\x1f\u0085\u00a0\u1680\u2000-\u200a"
    "\u2028\u2029\u202f\u205f\u3000]"
)


def _flat_pieces(
    contents: pa.Array, analyzer: str
) -> tuple[pa.Array, np.ndarray]:
    """Split a batch's contents into flat pieces.

    Returns (flat piece strings, per-piece doc index).  For ``reference``
    the split is T1's exact two-level split (lines on "\\n", pieces on a
    single space — empties preserved here; the strip/drop happens in the
    distinct-piece pass so position accounting stays exact).  For
    ``whitespace`` every character in ``_PY_WS_PATTERN`` is first
    rewritten to a single space by a regex replace, then the contents
    are split on the literal " ".  Runs of whitespace therefore leave
    empty pieces (as do leading/trailing spaces); those map to zero terms
    and no position, same as reference empties, and the non-empty pieces
    are exactly Python ``str.split()``'s."""
    contents = pc.fill_null(contents, "")
    if analyzer == "whitespace":
        # Split BEFORE lowercasing (no codepoint changes case into or out
        # of whitespace, so piece boundaries are identical); the lowercase
        # itself happens per DISTINCT piece in Python (_distinct_terms).
        # pc.utf8_lower is kept out of this path deliberately: it shows
        # the same heap-state-dependent final-codepoint misclassification
        # as utf8_split_whitespace (observed leaving a lone É uppercase),
        # and even its good state diverges from Python's str.lower() on
        # context-sensitive mappings — Greek final sigma ("ΑΣ" must lower
        # to "ας", utf8proc's per-codepoint map gives "ασ") and U+0130
        # ("İ" must expand to "i" + U+0307).
        normalized = pc.replace_substring_regex(
            contents, _PY_WS_PATTERN, " ")
        lists = pc.split_pattern(normalized, " ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        piece_doc = np.repeat(
            np.arange(len(lists), dtype=np.int64), lens)
        return lists.flatten(), piece_doc
    lines = pc.split_pattern(contents, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    lines_per_doc = pc.list_value_length(lines).to_numpy(
        zero_copy_only=False)
    flat_lines = lines.flatten()
    pieces = pc.split_pattern(flat_lines, " ")
    if isinstance(pieces, pa.ChunkedArray):
        pieces = pieces.combine_chunks()
    pieces_per_line = pc.list_value_length(pieces).to_numpy(
        zero_copy_only=False)
    line_doc = np.repeat(
        np.arange(len(lines), dtype=np.int64), lines_per_doc)
    piece_doc = np.repeat(line_doc, pieces_per_line)
    return pieces.flatten(), piece_doc


def _distinct_terms(
    distinct: list, analyzer: str, cache: TokenTermCache
) -> tuple[pa.ListArray, np.ndarray, np.ndarray]:
    """token->terms chain once per distinct piece (the ONLY Python loop).

    Returns (list<string> terms per distinct piece, per-distinct term
    counts, per-distinct consumes-a-position flags)."""
    n = len(distinct)
    lens = np.zeros(n, dtype=np.int64)
    is_tok = np.zeros(n, dtype=bool)
    flat: list[str] = []
    if analyzer == "whitespace":
        # Python str.lower() here (not pc.utf8_lower at the batch level)
        # for exact slow-path semantics incl. final sigma and U+0130 —
        # see _flat_pieces; cost is per distinct piece only.
        for i, piece in enumerate(distinct):
            if piece:
                is_tok[i] = True
                lens[i] = 1
                flat.append(piece.lower())
    else:
        terms_for = cache.terms_for
        for i, piece in enumerate(distinct):
            tok = piece.strip()
            if tok:
                is_tok[i] = True
                terms = terms_for(tok)
                lens[i] = len(terms)
                flat.extend(terms)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    terms_list = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(flat, type=pa.string()))
    return terms_list, lens, is_tok


def analyze_batch(
    contents: pa.Array, analyzer: str, cache: TokenTermCache
) -> dict:
    """Tokenize a batch of documents fully vectorized.

    Returns dict with per-doc numpy/Arrow columns:
      doc_length int64[n_docs], l_d float64[n_docs],
      terms list<string>, tftds list<int32>,
      pos_blob list<binary> (per-term VByte position-gap blob, docterms
      format v2 — encoded HERE so the embarrassingly-parallel tokenize
      stage pays the encode and the exchange ships final bytes).
    """
    n_docs = len(contents)
    pieces, piece_doc = _flat_pieces(contents, analyzer)
    if isinstance(pieces, pa.ChunkedArray):
        pieces = pieces.combine_chunks()

    empty32 = pa.array(np.zeros(n_docs + 1, dtype=np.int32))
    if len(pieces) == 0:
        return {
            "doc_length": np.zeros(n_docs, dtype=np.int64),
            "l_d": np.zeros(n_docs, dtype=np.float64),
            "terms": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.string())),
            "tftds": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.int32())),
            "pos_blob": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.binary())),
        }

    dic = pieces.dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    distinct = dic.dictionary.to_pylist()
    terms_list_d, lens_d, is_tok_d = _distinct_terms(
        distinct, analyzer, cache)

    lens = lens_d[codes]                       # types per piece
    is_tok = is_tok_d[codes]

    # positions: 1-based running count of position-consuming pieces,
    # restarting per doc (pieces arrive doc-ordered)
    pos_global = np.cumsum(is_tok, dtype=np.int64)
    doc_piece_counts = np.bincount(piece_doc, minlength=n_docs)
    doc_starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(doc_piece_counts[:-1], out=doc_starts[1:])
    base_at_start = np.concatenate(([0], pos_global))[doc_starts]
    piece_pos = pos_global - np.repeat(base_at_start, doc_piece_counts)

    # doc_length counts EVERY emitted type (empties included)
    doc_length = np.bincount(
        piece_doc, weights=lens, minlength=n_docs).astype(np.int64)

    # scatter terms per occurrence (Arrow gather; no Python)
    occ_lists = terms_list_d.take(pa.array(codes))
    flat_terms = occ_lists.flatten()
    type_doc = np.repeat(piece_doc, lens)
    type_pos = np.repeat(piece_pos, lens).astype(np.int32)

    if len(flat_terms) == 0:
        return {
            "doc_length": doc_length,
            "l_d": np.zeros(n_docs, dtype=np.float64),
            "terms": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.string())),
            "tftds": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.int32())),
            "pos_blob": pa.ListArray.from_arrays(
                empty32, pa.array([], type=pa.binary())),
        }

    tdic = flat_terms.dictionary_encode()
    tcodes = tdic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    tdistinct = tdic.dictionary
    n_t = len(tdistinct)
    # lexicographic rank per distinct term: per-doc term lists come out
    # sorted like the per-doc path's sorted(term_pos)
    rank_of = np.empty(n_t, dtype=np.int64)
    rank_of[
        pc.sort_indices(tdistinct).to_numpy(zero_copy_only=False)
    ] = np.arange(n_t, dtype=np.int64)
    ranks = rank_of[tcodes]

    order = np.argsort(type_doc * n_t + ranks, kind="stable")
    doc_s = type_doc[order]
    rank_s = ranks[order]
    pos_s = type_pos[order]          # ascending within a run (stable sort)
    code_s = tcodes[order]

    n = doc_s.size
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = (doc_s[1:] != doc_s[:-1]) | (rank_s[1:] != rank_s[:-1])
    run_starts = np.flatnonzero(new_run)
    run_lens = np.diff(np.append(run_starts, n)).astype(np.int64)
    run_doc = doc_s[run_starts]
    run_code = code_s[run_starts]

    # L_d over ALL runs (the empty term participates:
    # /root/reference/engine/indexing/spimi.py:110-117)
    contrib = (1.0 + np.log(run_lens.astype(np.float64))) ** 2
    l_d = np.sqrt(np.bincount(
        run_doc, weights=contrib, minlength=n_docs))

    # drop empty-term runs from the index output
    empty_idx = None
    for cand in pc.index_in(
            pa.array([""]), value_set=tdistinct).to_pylist():
        empty_idx = cand
    if empty_idx is not None:
        keep_run = run_code != empty_idx
    else:
        keep_run = np.ones(run_starts.size, dtype=bool)
    k_starts = run_starts[keep_run]
    k_lens = run_lens[keep_run]
    k_doc = run_doc[keep_run]
    k_code = run_code[keep_run]

    # positions values: types of kept runs, in sorted order
    keep_type = np.repeat(keep_run, run_lens)
    pos_vals = pos_s[keep_type]
    inner_off = np.zeros(k_starts.size + 1, dtype=np.int32)
    np.cumsum(k_lens, out=inner_off[1:])
    positions_inner = pa.ListArray.from_arrays(
        pa.array(inner_off), pa.array(pos_vals, type=pa.int32()))

    runs_per_doc = np.bincount(k_doc, minlength=n_docs)
    outer_off = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(runs_per_doc, out=outer_off[1:])
    outer_off_arr = pa.array(outer_off)

    terms_vals = tdistinct.take(pa.array(k_code))
    if isinstance(terms_vals, pa.ChunkedArray):
        terms_vals = terms_vals.combine_chunks()
    return {
        "doc_length": doc_length,
        "l_d": l_d,
        "terms": pa.ListArray.from_arrays(outer_off_arr, terms_vals),
        "tftds": pa.ListArray.from_arrays(
            outer_off_arr, pa.array(k_lens.astype(np.int32))),
        "pos_blob": pa.ListArray.from_arrays(
            outer_off_arr, vbyte.encode_position_lists(positions_inner)),
    }
