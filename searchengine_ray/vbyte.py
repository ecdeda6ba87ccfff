"""Vectorized VByte (variable-byte) integer codec.

The reference encodes postings as fixed 4-byte little-endian ints with gap
(delta) encoding (/root/reference/engine/indexing/spimi.py:145-187).  Per the
north rule we keep the gap encoding but compress with VByte: each integer is
written as 1-10 bytes, 7 payload bits per byte, high bit set on continuation
bytes (little-endian groups; the final byte of each integer has high bit 0).

Both encode and decode are numpy-vectorized, with fast paths tuned for the
posting-gap distribution: most gaps fit one byte, so round k >= 2 of the
encoder only touches the (rare) values that still need more bytes, and the
all-one-byte case is a single cast.
"""

from __future__ import annotations

import numpy as np


def _as_unsigned(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values)
    if v.dtype == np.uint64 or v.dtype == np.uint32:
        return v
    if v.dtype == np.int32:
        return v.view(np.uint32) if v.flags.c_contiguous else v.astype(np.uint32)
    if v.dtype == np.int64:
        # callers only pass non-negative values; a view avoids an n*8-byte
        # copy on the bandwidth-bound reduce side
        return v.view(np.uint64) if v.flags.c_contiguous else v.astype(np.uint64)
    return v.astype(np.uint64, copy=False)


def encoded_lengths(values: np.ndarray) -> np.ndarray:
    """Byte length of each value's VByte encoding (vectorized).

    Returns uint8 (a VByte length is <= 10): callers cumsum with an
    explicit dtype — the narrow array matters because length arrays sit
    in bandwidth-bound encode loops."""
    v = _as_unsigned(values)
    lengths = np.ones(v.shape, dtype=np.uint8)
    big_idx = np.flatnonzero(v >= 128)
    if big_idx.size == 0:
        return lengths
    work = v[big_idx].astype(np.uint64) >> np.uint64(7)
    lengths[big_idx] += 1
    while True:
        mask = work >= 128
        if not mask.any():
            break
        big_idx = big_idx[mask]
        work = work[mask] >> np.uint64(7)
        lengths[big_idx] += 1
    return lengths


def encode(values: np.ndarray, lengths: np.ndarray | None = None) -> bytes:
    """VByte-encode an array of non-negative integers.  Pass precomputed
    ``lengths`` (from ``encoded_lengths``) to avoid recomputing them."""
    v = _as_unsigned(np.ascontiguousarray(values))
    if v.size == 0:
        return b""
    if lengths is None:
        lengths = encoded_lengths(v)
    max_len = int(lengths.max())
    if max_len == 1:
        # every value < 128: the encoding IS the low byte
        return v.astype(np.uint8).tobytes()
    total = int(lengths.sum())
    out = np.empty(total, dtype=np.uint8)
    idx_dt = np.int32 if total < (1 << 31) else np.int64
    ends = np.cumsum(lengths, dtype=idx_dt)
    starts = ends - lengths
    # round 0 writes every value's first byte in one vector op
    first = (v & v.dtype.type(0x7F)).astype(np.uint8)
    cont = lengths > 1
    first[cont] |= np.uint8(0x80)
    out[starts] = first
    # later rounds touch only the values still carrying bits (rare for
    # gap-coded postings)
    idx = np.flatnonzero(cont)
    work = v[idx].astype(np.uint64) >> np.uint64(7)
    pos = starts[idx] + 1
    remaining = lengths[idx] - 1
    for _ in range(1, max_len):
        byte_vals = (work & np.uint64(0x7F)).astype(np.uint8)
        is_last = remaining == 1
        byte_vals[~is_last] |= np.uint8(0x80)
        out[pos] = byte_vals
        keep = ~is_last
        if not keep.any():
            break
        work = work[keep] >> np.uint64(7)
        pos = pos[keep] + 1
        remaining = remaining[keep] - 1
    return out.tobytes()


def decode(buf: bytes | memoryview | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a VByte stream into a uint64 array.

    Each value ends on its one byte < 128.  The decode starts from every
    value's terminator and folds in one earlier byte per round, Horner
    style, touching only the values still longer than the round (few
    posting gaps or tfs pass two bytes), so it pays no per-byte scatter.
    A byte before a value's first is the previous value's terminator, or
    (index -1) the stream's last byte, also a terminator: either ends
    the value."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < 128
    if not is_last[-1]:
        raise ValueError("truncated VByte stream (trailing continuation byte)")
    n_values = np.count_nonzero(is_last)
    if count is not None and n_values != count:
        raise ValueError(f"expected {count} values, decoded {n_values}")
    if n_values == b.size:
        # pure one-byte stream
        return b.astype(np.uint64)
    ends = np.flatnonzero(is_last)
    out = b[ends].astype(np.uint64)
    pos = ends - 1
    multi = np.flatnonzero(~is_last[pos])
    pos = pos[multi]
    while multi.size:
        out[multi] = (out[multi] << np.uint64(7)) | (b[pos] & np.uint8(0x7F))
        pos -= 1
        more = ~is_last[pos]
        multi = multi[more]
        pos = pos[more]
    return out

def encode_position_lists(flat_positions) -> "object":
    """``list<int32>`` per (doc, term) row -> one VByte blob per row.

    Gap encoding within each row's list, first position absolute — the
    per-posting gaps a docterms fragment's ``pos_blob`` concatenates.
    Runs in the TOKENIZE stage (docterms format v2) so the embarrassingly-
    parallel stage pays the gap encode once; the reducer decodes each
    merged list's gaps and bit-packs them for the segment (format v9,
    ``build._pack_positions``), and ``reader._segmented_cumsum`` turns
    them back into positions.  The output is always 32-bit-offset
    ``pa.binary()`` so every tokenize batch block shares one schema (a
    single batch's encoded positions exceeding 2 GB raises).
    """
    import pyarrow as pa

    n_rows = len(flat_positions)
    pos_flat = flat_positions.flatten().to_numpy(zero_copy_only=False)
    pos_offsets = flat_positions.offsets.to_numpy(
        zero_copy_only=False).astype(np.int64)
    pos_offsets = pos_offsets - pos_offsets[0]
    pos_gap = np.ascontiguousarray(pos_flat, dtype=np.int32).copy()
    if pos_gap.size:
        pos_gap[1:] -= pos_gap[:-1].copy()
        # a trailing empty list's "start" equals pos_gap.size: mask it
        # (duplicate starts from interior empty rows all write the same
        # value, so fancy assignment is safe for them)
        row_starts = pos_offsets[:-1]
        row_starts = row_starts[row_starts < pos_gap.size]
        pos_gap[row_starts] = pos_flat[row_starts]
    blen = encoded_lengths(pos_gap)
    encoded = encode(pos_gap, blen)
    if len(encoded) >= (1 << 31):
        raise ValueError(
            "a single tokenize batch encoded >= 2 GB of positions, past "
            "the 32-bit binary-offset range"
        )
    cum = np.concatenate(([0], np.cumsum(blen, dtype=np.int64)))
    row_byte_offsets = cum[pos_offsets]
    return pa.Array.from_buffers(
        pa.binary(), n_rows,
        [None, pa.py_buffer(row_byte_offsets.astype(np.int32)),
         pa.py_buffer(encoded)],
    )
