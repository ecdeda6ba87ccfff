"""Legacy v0 index export and the dev text merged-postings parser.

Parity targets (the last two reference components SURVEY §2 had scoped
out as dead code — rebuilt here so a reference user's *whole* surface,
including its dev/interop utilities, has an equivalent):

- S10 ``DiskIndexWriter`` (/root/reference/engine/indexing/diskindexwriter.py:27-91):
  the older non-SPIMI writer.  Byte format: per term a fixed 4-byte
  little-endian unsigned ``df`` followed by, per posting,
  ``doc_gap`` (delta from previous doc_id, first absolute),
  ``len(positions)`` and the position gaps (first absolute) — all
  4-byte unsigned, no varint (diskindexwriter.py:57-71).  Doc weights
  are packed float64 ``L_d = sqrt(sum tf^2)`` — the LEGACY formula,
  deliberately different from the live SPIMI
  ``sqrt(sum (1+ln tf)^2)`` (SURVEY §2.5 discrepancy note) — written
  doc_id-ascending for exactly the docs that appear in >=1 postings
  list (diskindexwriter.py:73-91).  The term->offset and doc metadata
  SQLite tables (diskindexwriter.py:14-25) become parquet side files,
  the same SQLite->manifest-file substitution the live path already
  makes for ST7.

- T8 ``Preprocessing.process_merged``
  (/root/reference/engine/text/preprocessing.py:82-98): parse the dev
  text postings format ``term: doc,[p1, p2];doc,[p3]`` back into a
  positional index.  The Ray-native equivalent yields a Dataset of
  ``(term, doc_id, position)`` rows — the columnar form of the
  reference's reconstructed in-memory index.

Neither utility is on the live 100-TB path (the live writer is the
fragment exchange, SURVEY S5/S6); the legacy binary format itself is a
single sequential file with byte offsets, so the export is a
driver-side stream over the vocabulary by design.  The per-term encode
is vectorized (one numpy scatter per term, no Python loop over
postings).
"""

from __future__ import annotations

import json
import os
import re
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

__all__ = [
    "encode_term_postings_legacy",
    "decode_term_postings_legacy",
    "export_legacy_index",
    "parse_merged_lines",
    "process_merged",
    "format_merged",
]

_U4 = np.dtype("<u4")


# ---------------------------------------------------------------------------
# S10: legacy binary postings encode / export
# ---------------------------------------------------------------------------

def encode_term_postings_legacy(
    doc_ids: np.ndarray,
    pos_offsets: np.ndarray,
    positions: np.ndarray,
) -> bytes:
    """One term's postings in the legacy fixed-4-byte layout.

    Mirrors ``DiskIndexWriter._encode_postings``
    (/root/reference/engine/indexing/diskindexwriter.py:57-71):
    ``df | (doc_gap, n_pos, pos_gap...)*`` — every word a 4-byte
    little-endian unsigned int (the reference's ``struct.pack('I')`` on
    its little-endian CPython hosts).  Vectorized: the word stream is
    assembled with numpy scatters, no per-posting Python loop.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    pos_offsets = np.asarray(pos_offsets, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    df = int(doc_ids.size)
    cf = int(positions.size)
    n_pos = pos_offsets[1:] - pos_offsets[:-1]

    words = np.empty(1 + 2 * df + cf, dtype=_U4)
    words[0] = df
    # posting i's (doc_gap, n_pos) words start at 1 + 2*i + pos_offsets[i]
    slots = 1 + 2 * np.arange(df, dtype=np.int64) + pos_offsets[:-1]
    doc_gaps = np.empty(df, dtype=np.int64)
    if df:
        doc_gaps[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=doc_gaps[1:])
    words[slots] = doc_gaps
    words[slots + 1] = n_pos
    # position words: gaps restarting at each posting (first absolute)
    if cf:
        pos_gaps = np.empty(cf, dtype=np.int64)
        pos_gaps[0] = positions[0]
        np.subtract(positions[1:], positions[:-1], out=pos_gaps[1:])
        starts = pos_offsets[:-1][n_pos > 0]
        pos_gaps[starts] = positions[starts]
        pos_slots = slots[np.repeat(np.arange(df), n_pos)] + 2 + (
            np.arange(cf) - np.repeat(pos_offsets[:-1], n_pos)
        )
        words[pos_slots] = pos_gaps
    return words.tobytes()


def decode_term_postings_legacy(
    buf: bytes, offset: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Inverse of :func:`encode_term_postings_legacy` (for tests and
    interop reads).  Returns (doc_ids, pos_offsets, positions,
    end_offset)."""
    words = np.frombuffer(buf, dtype=_U4, offset=offset)
    df = int(words[0])
    doc_ids = np.empty(df, dtype=np.int64)
    pos_off = np.zeros(df + 1, dtype=np.int64)
    pos_chunks: list[np.ndarray] = []
    w = 1
    last_doc = 0
    for i in range(df):
        last_doc += int(words[w])
        doc_ids[i] = last_doc
        k = int(words[w + 1])
        gaps = words[w + 2:w + 2 + k].astype(np.int64)
        pos_chunks.append(np.cumsum(gaps))
        pos_off[i + 1] = pos_off[i] + k
        w += 2 + k
    positions = (np.concatenate(pos_chunks) if pos_chunks
                 else np.empty(0, dtype=np.int64))
    return doc_ids, pos_off, positions, offset + 4 * w


def export_legacy_index(index_dir: str, out_dir: str) -> dict:
    """Export a live index directory to the legacy v0 on-disk format.

    Walks the sorted vocabulary and decodes each term's postings through
    the reader's uncached fetch (``DiskIndexReader.fetch_postings``: one
    ``os.pread`` per fragment, fragments concatenated doc_id-ascending,
    so a merged generational index exports the same bytes as one build
    over its whole corpus), re-encodes them to the legacy layout, and collects the legacy
    ``L_d = sqrt(sum tf^2)`` accumulator (diskindexwriter.py:73-82) from
    the same pass.  Side files:

    - ``term_positions.parquet`` (term, position): the byte offset of
      each term's block, the SQLite ``term_positions`` table's content
      (diskindexwriter.py:14-18).
    - ``doc_weights.bin``: packed little-endian float64 legacy L_d,
      doc_id-ascending over docs with >=1 posting
      (diskindexwriter.py:84-91).
    - ``doc_metadata.parquet`` (doc_id, title): every corpus doc
      (diskindexwriter.py:46-52 iterates the whole corpus).

    The legacy format is one sequential byte-offset file, so the export
    is a driver-side dev/interop utility by the format's own nature
    (the live 100-TB writer is the fragment exchange, SURVEY S5/S6).
    """
    from .query.reader import DiskIndexReader

    os.makedirs(out_dir, exist_ok=True)
    reader = DiskIndexReader(index_dir)
    tf_sq = np.zeros(reader.num_docs, dtype=np.float64)

    terms = reader.get_vocabulary()
    offsets: list[int] = []
    with open(os.path.join(out_dir, "postings.bin"), "wb") as f:
        for term in terms:
            pl = reader.fetch_postings(term, with_positions=True)
            offsets.append(f.tell())
            f.write(encode_term_postings_legacy(
                pl.doc_ids, pl.pos_offsets, pl.positions))
            np.add.at(tf_sq, pl.doc_ids, pl.tftds.astype(np.float64) ** 2)

    pq.write_table(
        pa.table({"term": pa.array(terms, pa.string()),
                  "position": pa.array(offsets, pa.int64())}),
        os.path.join(out_dir, "term_positions.parquet"),
    )

    indexed = np.flatnonzero(tf_sq > 0.0)
    weights = np.sqrt(tf_sq[indexed])
    with open(os.path.join(out_dir, "doc_weights.bin"), "wb") as f:
        f.write(weights.astype("<f8").tobytes())

    all_ids = list(range(reader.num_docs))
    pq.write_table(
        pa.table({"doc_id": pa.array(all_ids, pa.int64()),
                  "title": pa.array(reader.get_titles(all_ids),
                                    pa.string())}),
        os.path.join(out_dir, "doc_metadata.parquet"),
    )

    manifest = {
        "format": "legacy-v0",
        "num_terms": len(terms),
        "num_weighted_docs": int(indexed.size),
        "num_docs": reader.num_docs,
        "source_index": os.path.abspath(index_dir),
    }
    with open(os.path.join(out_dir, "legacy_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


# ---------------------------------------------------------------------------
# T8: merged text postings format
# ---------------------------------------------------------------------------

#: a posting inside one line: ``doc_id,[p1, p2, ...]`` with optional
#: quote noise (the reference strips ``'`` wholesale,
#: preprocessing.py:91-93)
_POSTING_RE = re.compile(r"\s*(\d+)\s*,?\s*\[([^\]]*)\]")


def parse_merged_lines(lines: list[str]) -> pa.Table:
    """Parse merged-format lines to (term, doc_id, position) rows.

    Accepts exactly what ``process_merged``
    (/root/reference/engine/text/preprocessing.py:82-98) accepts:
    ``term: doc,[p1, p2];doc,[p3]`` with tolerated whitespace and
    single-quote noise inside the brackets.  Dev utility, not a hot
    path (SURVEY T8): a compiled-regex loop per line is deliberate.
    """
    terms: list[str] = []
    docs: list[int] = []
    poss: list[int] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        term, _, postings_str = line.partition(": ")
        for m in _POSTING_RE.finditer(postings_str.replace("'", "")):
            doc_id = int(m.group(1))
            inner = m.group(2).strip()
            if not inner:
                continue
            for p in inner.split(","):
                terms.append(term)
                docs.append(doc_id)
                poss.append(int(p))
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array(docs, pa.int64()),
        "position": pa.array(poss, pa.int64()),
    })


def process_merged(path: str):
    """Ray-native ``process_merged``: read the merged text file(s) and
    return a Dataset of (term, doc_id, position) rows — the columnar
    equivalent of the reference's reconstructed ``PositionalIndex``
    (preprocessing.py:96-98 replays addTerm per position)."""
    import ray.data

    ds = ray.data.read_text(path)

    def _parse(batch: pa.Table) -> pa.Table:
        return parse_merged_lines(batch.column("text").to_pylist())

    return ds.map_batches(_parse, batch_format="pyarrow")


def format_merged(index: dict[str, list[tuple[int, list[int]]]]) -> list[str]:
    """Write postings in the merged text format (the round-trip partner
    of :func:`parse_merged_lines`; the reference never shipped its
    writer side, so the format is pinned by what its parser accepts)."""
    lines = []
    for term in sorted(index):
        parts = [f"{doc_id},{list(map(str, pos))}"
                 for doc_id, pos in index[term]]
        lines.append(f"{term}: " + ";".join(parts))
    return lines
