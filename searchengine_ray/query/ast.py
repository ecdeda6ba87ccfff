"""Boolean query AST — semantics from /root/reference/engine/querying/*.

Nodes mirror the reference's QueryComponent tree
(querycomponent.py:5-27): TermLiteral, PhraseLiteral, AndQuery, OrQuery,
NotQuery.  Merges are numpy set operations over doc_id-sorted PostingLists,
with the reference's exact result conventions:

- AND keeps the *first* operand's postings for matching docs
  (andquery.py:30-34: ``result.append(first_postings[i])``).
- AND-NOT emits left postings absent from right.  Deliberate deviation:
  the reference's merge (andquery.py:35-37) stops when the right list
  exhausts, silently dropping left postings beyond the right list's last
  doc (left=[1,5,9], right=[2,3] -> reference [1]); we compute the true
  set difference ([1,5,9]), which is what NOT means.
- OR dedups by first occurrence (orquery.py:10-20); since our inputs are
  always doc_id-sorted we produce the sorted union keeping the leftmost
  component's posting.
- Phrase chains positional intersects with offset 1, carrying the matched
  right-side positions (phraseliteral.py:36-63).
"""

from __future__ import annotations

import numpy as np

from .postings import PostingList, _ragged_gather_indices


class QueryNode:
    def get_postings(self, index, with_positions: bool = False) -> PostingList:
        raise NotImplementedError

    def is_positive(self) -> bool:
        return True

    def terms(self) -> list[str]:
        """All term strings in the subtree (for phrase detection etc.)."""
        return []


class TermLiteral(QueryNode):
    """One term.  Like the reference (booleanqueryparser.py:118-123), the
    stored string is the full space-joined processed query token — a token
    that expands to several terms (hyphens) produces a multi-word string
    that matches nothing in the index, faithfully."""

    def __init__(self, term: str):
        self.term = term

    def get_postings(self, index, with_positions: bool = False) -> PostingList:
        return index.get_postings(self.term, with_positions)

    def terms(self) -> list[str]:
        return [self.term]

    def __repr__(self):
        return f"Term({self.term!r})"


class NotQuery(QueryNode):
    def __init__(self, component: QueryNode):
        self.component = component

    def is_positive(self) -> bool:
        return False

    def get_postings(self, index, with_positions: bool = False) -> PostingList:
        return self.component.get_postings(index, with_positions)

    def terms(self) -> list[str]:
        return self.component.terms()

    def __repr__(self):
        return f"Not({self.component!r})"


class AndQuery(QueryNode):
    def __init__(self, components: list[QueryNode]):
        self.components = components

    def get_postings(self, index, with_positions: bool = False) -> PostingList:
        result = self.components[0].get_postings(index, with_positions)
        for comp in self.components[1:]:
            other = comp.get_postings(index, with_positions)
            if comp.is_positive():
                result = intersect_keep_left(result, other)
            else:
                result = difference(result, other)
        return result

    def terms(self) -> list[str]:
        return [t for c in self.components for t in c.terms()]

    def __repr__(self):
        return f"And({self.components!r})"


class OrQuery(QueryNode):
    def __init__(self, components: list[QueryNode]):
        self.components = components

    def get_postings(self, index, with_positions: bool = False) -> PostingList:
        parts = [c.get_postings(index, with_positions) for c in self.components]
        return union_first_wins(parts)

    def terms(self) -> list[str]:
        return [t for c in self.components for t in c.terms()]

    def __repr__(self):
        return f"Or({self.components!r})"


class PhraseLiteral(QueryNode):
    def __init__(self, literals: list[QueryNode]):
        self.literals = literals

    def get_postings(self, index, with_positions: bool = True) -> PostingList:
        if not self.literals or not isinstance(self.literals[0], TermLiteral):
            return PostingList.empty(True)
        lists = [lit.get_postings(index, with_positions=True) for lit in self.literals]
        if not lists or any(len(pl) == 0 for pl in lists):
            return PostingList.empty(True)
        result = lists[0]
        for nxt in lists[1:]:
            result = positional_intersect(result, nxt)
            if len(result) == 0:
                break
        return result

    def terms(self) -> list[str]:
        return [t for lit in self.literals for t in lit.terms()]

    def __repr__(self):
        return f"Phrase({self.literals!r})"


def contains_phrase(node: QueryNode) -> bool:
    """Reference's _is_phrase_query walk (interface/model.py:170-196):
    positional reads are used iff the tree contains a PhraseLiteral."""
    if isinstance(node, PhraseLiteral):
        return True
    if isinstance(node, (AndQuery, OrQuery)):
        return any(contains_phrase(c) for c in node.components)
    if isinstance(node, NotQuery):
        return contains_phrase(node.component)
    return False


# ---- vectorized merges ----
#
# Every merge below is a fixed number of numpy passes over whole arrays;
# none loops over documents or postings in Python.  All inputs are
# doc_id-ascending with unique doc_ids.

_I64_MAX = int(np.iinfo(np.int64).max)


def _in_sorted(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` entries present in the ascending ``ref``."""
    if ref.size == 0:
        return np.zeros(values.size, dtype=bool)
    i = np.searchsorted(ref, values)
    np.minimum(i, ref.size - 1, out=i)
    return ref[i] == values


def intersect_keep_left(left: PostingList, right: PostingList) -> PostingList:
    return left.take(np.flatnonzero(_in_sorted(left.doc_ids, right.doc_ids)))


def difference(left: PostingList, right: PostingList) -> PostingList:
    return left.take(np.flatnonzero(~_in_sorted(left.doc_ids, right.doc_ids)))


def union_first_wins(parts: list[PostingList]) -> PostingList:
    """Sorted union of doc_ids; for a doc in several lists keep the posting
    from the earliest component (orquery.py first-seen-dedup).  A stable
    sort of the concatenated doc_ids puts each doc's earliest posting
    first; positions of the winners come out of one ragged gather over
    the concatenated positions."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return PostingList.empty()
    if len(parts) == 1:
        return parts[0]
    all_ids = np.concatenate([p.doc_ids for p in parts])
    order = np.argsort(all_ids, kind="stable")  # doc_id asc, then component
    ids_sorted = all_ids[order]
    first = np.ones(ids_sorted.size, dtype=bool)
    first[1:] = ids_sorted[1:] != ids_sorted[:-1]
    sel = order[first]  # winning posting per doc, indexing the concatenation
    doc_ids = ids_sorted[first]
    tftds = np.concatenate([p.tftds for p in parts])[sel].astype(
        np.int64, copy=False)
    if any(p.positions is None for p in parts):
        return PostingList(doc_ids, tftds)
    base = np.cumsum([0] + [p.positions.size for p in parts[:-1]])
    starts = np.concatenate(
        [p.pos_offsets[:-1] + b for p, b in zip(parts, base)]
    )[sel]
    gather = _ragged_gather_indices(starts, tftds)
    positions = np.concatenate([p.positions for p in parts])[gather]
    offsets = np.zeros(doc_ids.size + 1, dtype=np.int64)
    np.cumsum(tftds, out=offsets[1:])
    return PostingList(
        doc_ids, tftds, positions.astype(np.int64, copy=False), offsets)


def positional_intersect(left: PostingList, right: PostingList) -> PostingList:
    """Docs in both lists where some left position p has p+1 in right;
    result positions are the matching p+1 values, in left order
    (phraseliteral.py:36-63).

    The positions of the common docs are gathered flat from both sides
    and tagged with their common-doc index d; a left p+1 matches iff its
    key ``d * span + (p + 1 - lo)`` is among the right side's keys, where
    ``[lo, lo + span)`` covers every gathered position.  Keys are exact
    while ``n_common * span`` fits int64, which it always does for
    indexes this package writes (positions are int32 token offsets).
    Past that, positions are first replaced by their rank among the
    distinct gathered positions, which bounds the key by
    ``n_common * (n_left + n_right)`` -- below 2**63 for any arrays that
    fit in memory -- so no input can overflow the key.
    """
    li = np.flatnonzero(_in_sorted(left.doc_ids, right.doc_ids))
    ri = np.searchsorted(right.doc_ids, left.doc_ids[li])
    l_lens = left.pos_offsets[li + 1] - left.pos_offsets[li]
    r_lens = right.pos_offsets[ri + 1] - right.pos_offsets[ri]
    if not (l_lens.any() and r_lens.any()):
        return PostingList.empty(True)
    nxt = left.positions[
        _ragged_gather_indices(left.pos_offsets[li], l_lens)] + 1
    rpos = right.positions[
        _ragged_gather_indices(right.pos_offsets[ri], r_lens)]
    l_doc = np.repeat(np.arange(li.size), l_lens)
    lkey, rkey = _doc_position_keys(
        li.size, l_doc, nxt, np.repeat(np.arange(li.size), r_lens), rpos)
    hit = _in_sorted(lkey, np.sort(rkey, kind="stable"))
    lens = np.bincount(l_doc[hit], minlength=li.size)
    keep = np.flatnonzero(lens)
    if keep.size == 0:
        return PostingList.empty(True)
    lens = lens[keep]
    offsets = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    doc_ids = left.doc_ids[li[keep]].astype(np.int64, copy=False)
    return PostingList(doc_ids, lens, nxt[hit], offsets)


def _doc_position_keys(n_docs, l_doc, lpos, r_doc, rpos):
    """int64 keys equal iff (doc, position) pairs are equal; see
    ``positional_intersect`` for why they cannot overflow."""
    lpos = lpos.astype(np.int64, copy=False)
    rpos = rpos.astype(np.int64, copy=False)
    lo = min(int(lpos.min()), int(rpos.min()))
    span = max(int(lpos.max()), int(rpos.max())) - lo + 1
    if n_docs * span > _I64_MAX:
        ranks = np.unique(np.concatenate([lpos, rpos]), return_inverse=True)[1]
        lpos, rpos = ranks[:lpos.size], ranks[lpos.size:]
        lo, span = 0, int(ranks.max()) + 1
    return l_doc * span + (lpos - lo), r_doc * span + (rpos - lo)
