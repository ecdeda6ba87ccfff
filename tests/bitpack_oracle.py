"""Per-list reference packer for segment format v9's position streams,
kept as a test oracle: one Python int per list, each value shifted to
its bit offset.  ``searchengine_ray.bitpack.pack_lists`` must produce
these bytes exactly.  Do not "fix" or speed this up.
"""

from __future__ import annotations


def pack_list(values) -> bytes:
    """One list: its width byte ``w`` (bit length of its largest
    value), then its values as ``w``-bit fields, LSB-first."""
    values = [int(v) for v in values]
    w = max(values, default=0).bit_length()
    acc = 0
    for i, v in enumerate(values):
        acc |= v << (i * w)
    return bytes([w]) + acc.to_bytes((len(values) * w + 7) // 8, "little")
