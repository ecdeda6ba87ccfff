"""Parity of the flat numpy positional merges in ``query/ast.py`` with the
frozen per-document loops in ``tests/merge_oracle.py``: every output array
and its dtype must be identical."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from searchengine_ray.query import ast
from searchengine_ray.query.postings import PostingList
from tests import merge_oracle

I64_MAX = int(np.iinfo(np.int64).max)


def make_list(docs: dict[int, list[int]], pos_dtype=np.int64) -> PostingList:
    """PostingList from {doc_id: positions}; positions kept as given."""
    ids = sorted(docs)
    tftds = np.array([len(docs[d]) for d in ids], dtype=np.int64)
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(tftds, out=offsets[1:])
    flat = [p for d in ids for p in docs[d]]
    return PostingList(np.array(ids, dtype=np.int64), tftds,
                       np.array(flat, dtype=pos_dtype), offsets)


def assert_same(got: PostingList, want: PostingList) -> None:
    for field in ("doc_ids", "tftds", "positions", "pos_offsets"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None, field
            continue
        assert g.dtype == w.dtype, (field, g.dtype, w.dtype)
        assert np.array_equal(g, w), (field, g, w)


def chain(merge, lists):
    """PhraseLiteral's chaining of positional intersects."""
    out = lists[0]
    for nxt in lists[1:]:
        out = merge(out, nxt)
        if len(out) == 0:
            break
    return out


# Small doc and position ranges so lists overlap and phrases match often.
# Positions within a doc are drawn unsorted and may repeat, which the old
# merges accept; index reads are sorted and unique, a special case.
positions_st = st.lists(st.integers(0, 12), min_size=0, max_size=6)
docs_st = st.dictionaries(st.integers(0, 25), positions_st, max_size=12)
dtype_st = st.sampled_from([np.int64, np.int32])


@st.composite
def posting_lists(draw, n):
    dtype = draw(dtype_st)
    return [make_list(draw(docs_st), dtype) for _ in range(n)]


@given(st.integers(2, 4).flatmap(posting_lists))
@settings(max_examples=400, deadline=None)
def test_phrase_chain_matches_oracle(lists):
    assert_same(chain(ast.positional_intersect, lists),
                chain(merge_oracle.positional_intersect, lists))


@given(posting_lists(1))
@settings(max_examples=200, deadline=None)
def test_repeated_word_phrase_matches_oracle(lists):
    (pl,) = lists
    for n in (2, 3):
        assert_same(chain(ast.positional_intersect, [pl] * n),
                    chain(merge_oracle.positional_intersect, [pl] * n))


@given(st.integers(2, 5).flatmap(posting_lists),
       st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=400, deadline=None)
def test_union_matches_oracle(lists, drop_positions):
    assert_same(ast.union_first_wins(lists),
                merge_oracle.union_first_wins(lists))
    # The positionless branch: any component read without positions.
    mixed = [PostingList(p.doc_ids, p.tftds) if drop else p
             for p, drop in zip(lists, drop_positions)]
    assert_same(ast.union_first_wins(mixed),
                merge_oracle.union_first_wins(mixed))


@given(posting_lists(2))
@settings(max_examples=200, deadline=None)
def test_and_and_not_keep_left_postings(lists):
    left, right = lists
    in_right = np.isin(left.doc_ids, right.doc_ids)
    assert_same(ast.intersect_keep_left(left, right),
                left.take(np.flatnonzero(in_right)))
    assert_same(ast.difference(left, right),
                left.take(np.flatnonzero(~in_right)))


def test_mixed_position_dtypes():
    a = make_list({1: [0, 4], 2: [3], 5: [1]}, np.int32)
    b = make_list({1: [1, 5], 2: [9], 3: [0]}, np.int64)
    c = make_list({1: [2], 4: [7]}, np.int32)
    for lists in ([a, b], [b, a], [a, b, c]):
        assert_same(chain(ast.positional_intersect, lists),
                    chain(merge_oracle.positional_intersect, lists))
        assert_same(ast.union_first_wins(lists),
                    merge_oracle.union_first_wins(lists))


def test_edge_cases():
    empty = PostingList.empty(True)
    a = make_list({1: [0], 3: [5], 7: [2]})
    b = make_list({2: [1], 4: [6], 8: [3]})          # no common docs
    single = make_list({1: [1], 3: [6], 7: [9]})      # one position per doc
    for left, right in [(empty, a), (a, empty), (empty, empty), (a, b),
                        (a, single), (single, a)]:
        assert_same(ast.positional_intersect(left, right),
                    merge_oracle.positional_intersect(left, right))
    assert len(ast.positional_intersect(a, single)) == 2
    positionless = PostingList(b.doc_ids, b.tftds)
    for parts in ([], [empty], [empty, a], [a, empty, b], [a, b, single],
                  [a, positionless, single]):
        assert_same(ast.union_first_wins(parts),
                    merge_oracle.union_first_wins(parts))


def _limit_case(n_docs: int, span: int):
    """n_docs common docs whose gathered positions span exactly
    ``[0, span)``: each right doc holds 0, 1 and span - 1; each left doc
    holds span - 2 (matches span - 1) and 5 (6 matches nowhere)."""
    left = make_list({d: [span - 2, 5] for d in range(n_docs)})
    right = make_list({d: [0, 1, span - 1] for d in range(n_docs)})
    return left, right


@pytest.mark.parametrize("n_docs, span", [
    (7, I64_MAX // 7),            # n_docs * span == 2**63 - 1: raw keys
    (7, I64_MAX // 7 + 1),        # one past: positions ranked first
    (1000, 1 << 53),              # many docs x large positions, fits
    (2000, 1 << 53),              # ... and overflows without ranking
    (3, I64_MAX),                 # span alone at the int64 limit
])
def test_position_keys_at_int64_limit(n_docs, span):
    left, right = _limit_case(n_docs, span)
    got = ast.positional_intersect(left, right)
    assert_same(got, merge_oracle.positional_intersect(left, right))
    assert got.tftds.tolist() == [1] * n_docs
    assert set(got.positions.tolist()) == {span - 1}


def test_position_keys_cannot_wrap():
    """With span 2**62 and 5 common docs, a raw int64 key for (doc 4,
    p) would wrap to doc 0's key for p: doc 4 must still not match."""
    span = 1 << 62
    left = make_list({d: [6] for d in range(5)})
    right = make_list({0: [0, 7, span - 1], 1: [0], 2: [0], 3: [0], 4: [0]})
    got = ast.positional_intersect(left, right)
    assert_same(got, merge_oracle.positional_intersect(left, right))
    assert got.doc_ids.tolist() == [0] and got.positions.tolist() == [7]


def test_phrase_chains_over_index_reads(engine, oracle):
    """2- and 3-word phrases over the most frequent terms of a built
    index, read the way PhraseLiteral reads them, match the oracle."""
    top = sorted(oracle.index, key=lambda t: -len(oracle.index[t]))[:6]
    lists = {t: engine.index.get_postings(t, True) for t in top}
    phrases = [[a, b] for a in top for b in top] + [
        [a, b, c] for a in top[:3] for b in top[:3] for c in top[:3]]
    matched = 0
    for words in phrases:
        got = ast.PhraseLiteral([ast.TermLiteral(w) for w in words]
                                ).get_postings(engine.index)
        want = chain(merge_oracle.positional_intersect,
                     [lists[w] for w in words])
        assert_same(got, want)
        matched += len(got) > 0
    assert matched > 0
