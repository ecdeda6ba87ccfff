"""Bit-packed integer lists: one bit width per list (segment format v9).

A packed list is one width byte ``w`` (the bit length of the list's
largest value), then ``ceil(n*w/8)`` bytes holding its ``n`` values as
``w``-bit fields, LSB-first: bit ``k`` of the list is bit ``k % 8`` of
payload byte ``k // 8``.  This is binary packing with one frame per list
(Lemire & Boytsov, "Decoding billions of integers per second through
vectorization", SPE 2015), without SIMD: both directions are numpy
vector ops.
"""

from __future__ import annotations

import numpy as np

# bit weights of a field, 2**k as float64 (exact up to 2**53)
_WEIGHTS = np.exp2(np.arange(54))


def pack_lists(values: np.ndarray, counts: np.ndarray
               ) -> tuple[bytes, np.ndarray]:
    """Pack consecutive lists of non-negative ints below 2**53
    (``counts[i]`` values each, in order) back to back; returns the
    bytes and each list's byte length (``1 + ceil(counts[i] * w_i / 8)``).

    Fields are OR-ed into little-endian 64-bit words: every value lands
    at its bit offset, the values of one word are contiguous so one
    ``bitwise_or.reduceat`` fills it, and a value that crosses into the
    next word spills its high bits there."""
    v = np.ascontiguousarray(values).astype(np.uint64, copy=False)
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    nonempty = counts > 0
    top = np.zeros(counts.size, dtype=np.uint64)
    top[nonempty] = np.maximum.reduceat(v, starts[nonempty])
    # bit_length: frexp's exponent, exact for values < 2**53
    width = np.frexp(top.astype(np.float64))[1].astype(np.int64)
    nbytes = 1 + (counts * width + 7) // 8
    head = np.cumsum(nbytes) - nbytes
    # one spare word: a width-0 list's (empty) fields may sit at the end
    words = np.zeros(int(nbytes.sum()) // 8 + 1, dtype="<u8")
    if v.size:
        lst = np.repeat(np.arange(counts.size), counts)
        w = width[lst]
        bit = 8 * (head[lst] + 1) + (np.arange(v.size) - starts[lst]) * w
        word, shift = bit >> 6, (bit & 63).astype(np.uint64)
        first = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[first]] = np.bitwise_or.reduceat(v << shift, first)
        spill = shift + w.astype(np.uint64) > 64
        words[word[spill] + 1] |= v[spill] >> (64 - shift[spill])
    out = words.view(np.uint8)[:int(nbytes.sum())]
    out[head] = width
    return out.tobytes(), nbytes


def unpack(buf, n: int) -> np.ndarray:
    """The ``n`` values of one packed list (int64).  Refuses a ``buf``
    whose length disagrees with its width byte: a torn stream raises
    instead of decoding to wrong values.

    The weighted sum runs in float64 (a BLAS matrix-vector product, 2x
    the speed of numpy's integer matmul), exact because every partial
    sum is an integer below 2**53."""
    b = np.frombuffer(buf, dtype=np.uint8)
    w = int(b[0]) if b.size else -1
    if not 0 <= w <= 53 or b.size != 1 + (n * w + 7) // 8:
        raise ValueError(
            f"bit-packed list of {n} values holds {b.size} B with width "
            f"byte {w}: the stream is torn")
    bits = np.unpackbits(b[1:], count=n * w, bitorder="little")
    return (bits.reshape(n, w) @ _WEIGHTS[:w]).astype(np.int64)
