"""Query-side posting-list representation.

The reference materialises ``list[Posting(doc_id, positions)]``
(/root/reference/engine/indexing/postings.py:1-11).  We keep postings
columnar: numpy arrays for doc_ids / tftds plus an optional ragged
positions array (values + offsets), which keeps every Boolean merge and
scorer vectorizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass
class PostingList:
    """doc_id-ascending postings for one term (or merge result).

    ``positions``/``pos_offsets`` follow Arrow list layout: the positions of
    posting i are ``positions[pos_offsets[i]:pos_offsets[i+1]]``.  They are
    None for skip (positionless) reads — the reference's ``skipPostings``
    mode yields positions ``[0]`` per posting
    (/root/reference/engine/indexing/diskpositionalindex.py:98-114); callers
    needing positions must request a positional read instead.
    """

    doc_ids: np.ndarray
    tftds: np.ndarray
    positions: np.ndarray | None = None
    pos_offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    @staticmethod
    def empty(with_positions: bool = False) -> "PostingList":
        if with_positions:
            return PostingList(
                _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, np.zeros(1, dtype=np.int64)
            )
        return PostingList(_EMPTY_I64, _EMPTY_I64)

    def positions_of(self, i: int) -> np.ndarray:
        assert self.positions is not None and self.pos_offsets is not None
        return self.positions[self.pos_offsets[i]:self.pos_offsets[i + 1]]

    def take(self, idx: np.ndarray) -> "PostingList":
        """Select postings by index, keeping positions if present."""
        if self.positions is None:
            return PostingList(self.doc_ids[idx], self.tftds[idx])
        lens = (self.pos_offsets[1:] - self.pos_offsets[:-1])[idx]
        new_off = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(lens, out=new_off[1:])
        starts = self.pos_offsets[:-1][idx]
        gather = _ragged_gather_indices(starts, lens)
        return PostingList(
            self.doc_ids[idx], self.tftds[idx], self.positions[gather], new_off
        )


def _ragged_gather_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices selecting ``lens[i]`` consecutive ints from ``starts[i]``."""
    out = np.arange(int(lens.sum()), dtype=np.int64)
    out += np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return out
