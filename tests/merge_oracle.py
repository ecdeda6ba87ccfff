"""Frozen per-document positional merges, kept as test oracles.

These are the engine's earlier ``positional_intersect`` and the positional
branch of ``union_first_wins``: one Python iteration (and one ``np.isin``
or slice copy) per document.  The engine now does both merges as flat
numpy operations over the ragged positions; the parity tests in
``tests/test_ast_merges.py`` pin the two bit-identical, dtypes included.
Do not "fix" or speed these up.
"""

from __future__ import annotations

import numpy as np

from searchengine_ray.query.postings import PostingList


def union_first_wins(parts: list[PostingList]) -> PostingList:
    parts = [p for p in parts if len(p)]
    if not parts:
        return PostingList.empty()
    if len(parts) == 1:
        return parts[0]
    all_ids = np.concatenate([p.doc_ids for p in parts])
    comp = np.concatenate(
        [np.full(len(p), i, dtype=np.int64) for i, p in enumerate(parts)]
    )
    within = np.concatenate([np.arange(len(p), dtype=np.int64) for p in parts])
    order = np.lexsort((comp, all_ids))
    ids_sorted = all_ids[order]
    first = np.ones(ids_sorted.size, dtype=bool)
    first[1:] = ids_sorted[1:] != ids_sorted[:-1]
    sel = order[first]
    sel_comp = comp[sel]
    sel_within = within[sel]
    doc_ids = ids_sorted[first]
    tftds = np.empty(doc_ids.size, dtype=np.int64)
    for i, p in enumerate(parts):
        mask = sel_comp == i
        tftds[mask] = p.tftds[sel_within[mask]]
    if not all(p.positions is not None for p in parts):
        return PostingList(doc_ids, tftds)
    offsets = np.zeros(doc_ids.size + 1, dtype=np.int64)
    np.cumsum(tftds, out=offsets[1:])
    positions = np.empty(int(tftds.sum()), dtype=np.int64)
    for j in range(doc_ids.size):
        positions[offsets[j]:offsets[j + 1]] = parts[
            int(sel_comp[j])
        ].positions_of(int(sel_within[j]))
    return PostingList(doc_ids, tftds, positions, offsets)


def positional_intersect(left: PostingList, right: PostingList) -> PostingList:
    common = np.intersect1d(left.doc_ids, right.doc_ids, assume_unique=True)
    if common.size == 0:
        return PostingList.empty(True)
    li = np.searchsorted(left.doc_ids, common)
    ri = np.searchsorted(right.doc_ids, common)

    out_ids, out_lens, out_pos = [], [], []
    for l_idx, r_idx, doc in zip(li, ri, common):
        lp = left.positions_of(int(l_idx)) + 1
        rp = right.positions_of(int(r_idx))
        matched = lp[np.isin(lp, rp)]
        if matched.size:
            out_ids.append(doc)
            out_lens.append(matched.size)
            out_pos.append(matched)
    if not out_ids:
        return PostingList.empty(True)
    doc_ids = np.asarray(out_ids, dtype=np.int64)
    lens = np.asarray(out_lens, dtype=np.int64)
    offsets = np.zeros(doc_ids.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    positions = np.concatenate(out_pos)
    return PostingList(doc_ids, lens, positions, offsets)
