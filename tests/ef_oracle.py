"""Per-list reference Elias–Fano coder for segment format v10's doc
streams, kept as a test oracle: one Python int per list, each field
shifted to its bit offset.  ``searchengine_ray.eliasfano.encode_lists``
must produce these bytes exactly, and ``decode`` must invert them.  Do
not "fix" or speed this up.
"""

from __future__ import annotations


def _low_width(n: int, u: int) -> int:
    """floor(log2(u / n)), by exact integer comparison."""
    low = 0
    while n << (low + 1) <= u:
        low += 1
    return low


def encode_list(values, u: int, flags) -> bytes:
    """One list: ``n`` low parts of ``L`` bits, then ``n + ((u-1) >> L)
    + 1`` high bits with bit ``(x_i >> L) + i`` set, then one flag bit
    per value, LSB-first, padded to whole bytes."""
    values = [int(v) for v in values]
    n = len(values)
    low = _low_width(n, u)
    high = n + ((u - 1) >> low) + 1
    acc = 0
    for i, v in enumerate(values):
        acc |= (v & ((1 << low) - 1)) << (i * low)
        acc |= 1 << (n * low + (v >> low) + i)
        if flags[i]:
            acc |= 1 << (n * low + high + i)
    nbits = n * low + high + n
    return acc.to_bytes((nbits + 7) // 8, "little")


def decode_list(buf: bytes, n: int, u: int) -> tuple[list[int], list[bool]]:
    """The values and flags of one list, bit by bit."""
    low = _low_width(n, u)
    high = n + ((u - 1) >> low) + 1
    acc = int.from_bytes(buf, "little")
    values, i = [], 0
    for pos in range(high):
        if acc >> (n * low + pos) & 1:
            lo_part = acc >> (i * low) & ((1 << low) - 1)
            values.append(((pos - i) << low) | lo_part)
            i += 1
    flags = [bool(acc >> (n * low + high + k) & 1) for k in range(n)]
    return values, flags
