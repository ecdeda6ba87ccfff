"""Batch tokenization: the build's one analyzer entry point.

:func:`analyze_batch` turns a batch of documents into per-doc columns for
every analyzer: ``reference`` and ``whitespace`` take the vectorized pass
below, others (``spanish``) the per-doc chain of ``tokenizer.ANALYZERS``
(:func:`analyze_per_doc`, also the vectorized pass's parity oracle).  A
pass's memory grows with its content, so a batch is analyzed in slices of
at most ``ANALYZE_SLICE_BYTES`` content bytes, cut on the string array's
offsets; a doc's output depends on that doc alone, so the cut never shows.

The vectorized pass needs Python only per DISTINCT piece (the per-token
work is memoized in TokenTermCache):

1. split documents into pieces with classification-free Arrow kernels
   (literal `split_pattern` after a whitespace-normalizing regex pass —
   verified char-for-char equal to the reference's ``line.split(" ")`` /
   Python ``str.split()``; see _PY_WS_PATTERN for why no utf8_* kernel),
2. dictionary-encode the flat pieces and run the token->terms chain
   (T2 strip/clean/hyphen-expand + T3 stem, or whitespace identity) once
   per distinct piece through the worker cache,
3. scatter terms back per occurrence with one Arrow list-take,
4. group (doc, term) -> (tftd, positions) with one numpy argsort over a
   packed int64 key + run-boundary reduceats.

Semantics are bit-identical to the per-doc chain (parity suite:
tests/test_batch_tokenize.py) — including the reference quirks: empty
types count toward doc_length and L_d but are never indexed (spimi.py:66-117,
postionalinvertedindex.py:28), positions are 1-based per stream token and
shared by a token's expanded types, and pieces that strip() to nothing
consume no position (englishtokenstream.py:12-18).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import vbyte
from .tokenizer import ANALYZERS, TokenTermCache, euclidean_weight

# analyzers the vectorized path covers; others run the per-doc loop
VECTORIZED_ANALYZERS = ("reference", "whitespace")

# Most content bytes one pass of ``analyze_batch`` analyzes.  A pass's
# peak RSS rises by ~30x its content, so the bound caps it whatever the
# batch's doc count; a larger doc gets a pass of its own.  Over
# perfbench's 4,000 generated docs (10.8 MiB) in one process on a shared
# 4-vCPU host, a whole call rose by 148 MB at 2 MiB against 201 MB at
# 4 MiB and 382 MB unsliced, in 1.21 s against 1.12 s and 1.10 s
# (medians of 5).
ANALYZE_SLICE_BYTES = 2 << 20

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
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        piece_doc = np.repeat(
            np.arange(len(lists), dtype=np.int64), lens)
        return lists.flatten(), piece_doc
    lines = pc.split_pattern(contents, "\n")
    lines_per_doc = pc.list_value_length(lines).to_numpy(
        zero_copy_only=False)
    flat_lines = lines.flatten()
    pieces = pc.split_pattern(flat_lines, " ")
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
    """Tokenize a batch of documents with ``analyzer``, one pass per
    slice of at most ``ANALYZE_SLICE_BYTES`` content bytes.

    Returns dict with per-doc numpy/Arrow columns:
      doc_length int64[n_docs], l_d float64[n_docs],
      terms list<string> (sorted per doc), tftds list<int32>,
      pos_blob list<binary> (per-term VByte position-gap blob, docterms
      format v2 — encoded HERE so the embarrassingly-parallel tokenize
      stage pays the encode and the exchange ships final bytes).
    """
    one_pass = (_analyze_vectorized if analyzer in VECTORIZED_ANALYZERS
                else analyze_per_doc)
    parts = [one_pass(contents.slice(a, b - a), analyzer, cache)
             for a, b in _byte_slices(contents)]
    if len(parts) == 1:
        return parts[0]
    return {k: (np.concatenate([p[k] for p in parts])
                if isinstance(parts[0][k], np.ndarray)
                else pa.concat_arrays([p[k] for p in parts]))
            for k in parts[0]}


def _byte_slices(contents: pa.Array) -> list[tuple[int, int]]:
    """``[(start, stop)]`` doc ranges tiling ``contents``, each holding at
    most ``ANALYZE_SLICE_BYTES`` content bytes (a larger doc alone), cut
    on the string array's offsets."""
    n = len(contents)
    if n == 0:
        return [(0, 0)]
    width = np.int64 if pa.types.is_large_string(contents.type) else np.int32
    offs = np.frombuffer(contents.buffers()[1], dtype=width)[
        contents.offset:contents.offset + n + 1]
    cuts = [0]
    while cuts[-1] < n:
        a = cuts[-1]
        b = int(np.searchsorted(offs, offs[a] + ANALYZE_SLICE_BYTES,
                                side="right")) - 1
        cuts.append(max(b, a + 1))
    return list(zip(cuts[:-1], cuts[1:]))


def analyze_per_doc(
    contents: pa.Array, analyzer: str, cache: TokenTermCache
) -> dict:
    """``analyze_batch``'s output from the per-doc chain of
    ``tokenizer.ANALYZERS[analyzer]``, one document at a time: the path
    of analyzers with no vectorized pass (``spanish``), and the parity
    oracle of the vectorized one."""
    analyze = ANALYZERS[analyzer]
    doc_length, l_d, terms, tftds, positions = [], [], [], [], []
    for content in contents.to_pylist():
        term_pos, n_types = analyze(content, cache)
        # L_d includes the empty term (spimi.py:72-79,110-117); the
        # index itself never stores it (postionalinvertedindex.py:28).
        doc_length.append(n_types)
        l_d.append(euclidean_weight(len(v) for v in term_pos.values()))
        term_pos.pop("", None)
        doc_terms = sorted(term_pos)
        terms.append(doc_terms)
        tftds.append([len(term_pos[t]) for t in doc_terms])
        positions.append([term_pos[t] for t in doc_terms])
    nested = pa.array(positions, type=pa.list_(pa.list_(pa.int32())))
    return {
        "doc_length": np.array(doc_length, dtype=np.int64),
        "l_d": np.array(l_d, dtype=np.float64),
        "terms": pa.array(terms, type=pa.list_(pa.string())),
        "tftds": pa.array(tftds, type=pa.list_(pa.int32())),
        "pos_blob": pa.ListArray.from_arrays(
            nested.offsets, vbyte.encode_position_lists(nested.flatten())),
    }


def _analyze_vectorized(
    contents: pa.Array, analyzer: str, cache: TokenTermCache
) -> dict:
    """One vectorized pass over ``contents`` (``reference`` or
    ``whitespace``); the same dict as :func:`analyze_per_doc`."""
    n_docs = len(contents)
    pieces, piece_doc = _flat_pieces(contents, analyzer)

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
    new_run = np.ones(n, dtype=bool)
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
    return {
        "doc_length": doc_length,
        "l_d": l_d,
        "terms": pa.ListArray.from_arrays(outer_off_arr, terms_vals),
        "tftds": pa.ListArray.from_arrays(
            outer_off_arr, pa.array(k_lens.astype(np.int32))),
        "pos_blob": pa.ListArray.from_arrays(
            outer_off_arr, vbyte.encode_position_lists(positions_inner)),
    }
