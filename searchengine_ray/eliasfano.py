"""Elias–Fano doc-id lists (segment format v10).

A list of ``n`` ascending values ``x_0 < ... < x_{n-1}`` in a universe
``[0, u)``, with a one-bit flag per value, is one bit stream, LSB-first
(bit ``k`` is bit ``k % 8`` of byte ``k // 8``), zero-padded to whole
bytes:

- ``n`` low parts ``x_i mod 2**L`` as ``L``-bit fields, with
  ``L = floor(log2(u / n))``;
- the high parts in unary: ``n + ((u - 1) >> L) + 1`` bits, with bit
  ``(x_i >> L) + i`` set, so exactly ``n`` of them are ones;
- the ``n`` flags, one bit each.

Its byte length follows from ``n`` and ``u`` alone (``params``).  This is
Elias–Fano coding as quasi-succinct indices use it (Vigna, "Quasi-succinct
indices", WSDM 2013): about ``2 + L`` bits per value, and value ``i``'s
high part is the position of the ``i``-th one minus ``i``, so a block of
values decodes from its slice of the low bits and its ones.  Both
directions are numpy vector ops.
"""

from __future__ import annotations

import numpy as np

from .bitpack import _WEIGHTS


def params(n: int, u: int) -> tuple[int, int, int]:
    """``(L, high bits, stream bytes)`` of an ``n``-value list over
    ``[0, u)``, ``1 <= n <= u``."""
    low = (u // n).bit_length() - 1
    high = n + ((u - 1) >> low) + 1
    return low, high, (n * (low + 1) + high + 7) // 8


def encode_lists(x: np.ndarray, counts: np.ndarray, universes: np.ndarray,
                 flags: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode consecutive lists back to back: list ``i`` holds the next
    ``counts[i]`` (>= 1) values of ``x`` (int64, strictly ascending in
    ``[0, universes[i])``) and of the bool ``flags``.  Returns the bytes
    and each list's byte length.

    Every bit is set in a one-byte-per-bit array, then ``packbits``: the
    high ones and the flags by one fancy assignment each, the low
    fields bit by bit, one pass per bit of each width in use."""
    counts = np.asarray(counts, dtype=np.int64)
    u = np.asarray(universes, dtype=np.int64)
    # L = bit_length(u // n) - 1: frexp's exponent, exact below 2**53
    low = np.frexp((u // counts).astype(np.float64))[1].astype(np.int64) - 1
    top = (u - 1) >> low
    nbytes = (counts * (low + 2) + top + 1 + 7) // 8
    head = 8 * (np.cumsum(nbytes) - nbytes)
    bits = np.zeros(8 * int(nbytes.sum()), dtype=np.uint8)
    lst = np.repeat(np.arange(counts.size), counts)
    k = np.arange(x.size) - (np.cumsum(counts) - counts)[lst]
    w = low[lst]
    bits[(head + counts * low)[lst] + (x >> w) + k] = 1
    flag_at = (head + counts * (low + 1) + top + 1)[lst] + k
    bits[flag_at[flags]] = 1
    for width in np.unique(low[low > 0]).tolist():
        sel = np.flatnonzero(w == width)
        at = head[lst[sel]] + k[sel] * width
        xs = x[sel]
        for j in range(width):
            bits[at + j] = (xs >> j) & 1
    return np.packbits(bits, bitorder="little").tobytes(), nbytes


def _torn(n: int, u: int, why: str) -> ValueError:
    return ValueError(f"Elias-Fano list of {n} values over [0, {u}) "
                      f"{why}: the stream is torn")


def decode(buf, n: int, u: int) -> tuple[np.ndarray, np.ndarray]:
    """One list's values (int64) and flags (bool).  Refuses a stream
    whose length, count of high ones, last value or padding disagrees
    with ``n`` and ``u``: a torn stream raises instead of decoding to
    wrong values (a change that keeps all of these, such as a high
    byte's ones moved within it, needs a checksum, which the format
    has not)."""
    if not 1 <= n <= u:
        raise _torn(n, u, "cannot hold its values")
    low, high, nbytes = params(n, u)
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size != nbytes:
        raise _torn(n, u, f"holds {b.size} B, not {nbytes}")
    bits = np.unpackbits(b, bitorder="little")
    x = high_parts(bits, n, low, high)
    if low:
        x <<= low
        x += low_parts(bits, n, low, slice(None))
    end = n * low + high + n
    pad = end & 7  # the last byte's bits from ``pad`` on are padding
    if x[-1] >= u or (pad and b[-1] >> pad):
        raise _torn(n, u, "ends out of range")
    return x, bits[end - n:end].view(bool)


def high_parts(bits: np.ndarray, n: int, low: int, high: int) -> np.ndarray:
    """Every value's high part ``x_i >> L`` (int64) from the list's
    unpacked ``bits`` (``L``, high bits: ``params``): the position of
    the i-th high one minus i."""
    # nonzero takes its fast path on bool, ~2x uint8's
    x = np.flatnonzero(bits[n * low:n * low + high].view(bool))
    if x.size != n:
        raise ValueError(f"Elias-Fano list of {n} values has {x.size} "
                         "high ones: the stream is torn")
    x -= np.arange(n)
    return x


def low_parts(bits: np.ndarray, n: int, low: int, which) -> np.ndarray | int:
    """The low parts (int64) of the values ``which`` (a slice or an
    index array) selects, from the list's unpacked ``bits``: value i's
    ``L``-bit field starts at bit ``i * L``.  One-bit fields are the
    bits themselves; wider ones are a float64 weighted sum, as
    ``bitpack.unpack`` takes it; with ``L = 0`` every low part is 0."""
    if low == 1:
        return bits[:n][which].astype(np.int64)
    if not low:
        return 0
    return (bits[:n * low].reshape(n, low)[which]
            @ _WEIGHTS[:low]).astype(np.int64)
