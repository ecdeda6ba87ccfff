"""On-disk names and constants an index's readers share with its build.

The query path (``query/reader.py``, ``query/ranked.py``,
``query/sharded.py``) takes these from here, not from ``build.py``:
``build.py`` imports Ray Data, which a query process or shard actor
never uses but would pay for at import (measured: +0.4 s and +46 MB
of peak RSS per process).  ``build.py`` reads them as ``layout.NAME``
too, so each name has this one home.
"""

from __future__ import annotations

import os
import zlib

MANIFEST_NAME = "manifest.json"

# Per-document weights, written once at build time in doc-id order (the
# reference's docWeights.bin, spimi.py:359-364): dense doc_length (int64)
# and l_d (float64) arrays, indexed by doc_id - doc_id_base.  A sibling
# of docstats/, never inside it: docstats readers scan that whole dir.
DOCWEIGHTS_DIR = "docweights"
# Per-document stats (doc_id, title, doc_length, l_d, sha256), one
# parquet file per dense doc-id run (``build._group_and_write``).
DOCSTATS_DIR = "docstats"

# Segment layout version (history beside ``build._SEGMENT_SCHEMA``),
# folded into the build's stage fingerprints so an index built by an
# older code revision is rebuilt rather than misread.  v10: Elias–Fano
# doc streams over each segment's recorded doc range, no stored
# ``skip_last_doc``.
SEGMENT_FORMAT = 10

# wdt < k1+1 = 2.2, so ceil(wdt * 115) fits uint8 (max 253).  The
# segments store that uint8 as ``max_wdt`` / ``skip_max_wdt`` (v9) and
# the reader serves it divided by WDT_QUANT: ONLY WAND pruning bounds
# (``query/ranked.py``), and a quantized-UP bound keeps block-max WAND
# exact (the exact scorers recompute wdt from tftd + doc stats).
WDT_QUANT = 115.0

BM25_K1 = 1.2
BM25_B = 0.75


def term_bucket(term: str, num_buckets: int) -> int:
    return zlib.crc32(term.encode("utf-8")) % num_buckets


def segment_bin_path(parquet_path: str) -> str:
    """The postings file that belongs to a segment parquet (format v6)."""
    return os.path.splitext(parquet_path)[0] + ".bin"


def docweights_paths(index_dir: str) -> tuple[str, str]:
    """(doc_length.npy, l_d.npy) of an index."""
    d = os.path.join(index_dir, DOCWEIGHTS_DIR)
    return (os.path.join(d, "doc_length.npy"), os.path.join(d, "l_d.npy"))
