"""Frozen VByte decode of segment formats up to v9, kept as a test
oracle: it combines every byte's 7-bit payload into its value with one
``np.add.at`` scatter.  ``searchengine_ray.vbyte.decode`` must return the
same values and raise the same errors for every input.  Do not "fix" or
speed this up.
"""

from __future__ import annotations

import numpy as np


def decode(buf, count: int | None = None) -> np.ndarray:
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < 128
    if not is_last[-1]:
        raise ValueError("truncated VByte stream (trailing continuation byte)")
    n_values = int(is_last.sum())
    if n_values == b.size:
        # pure one-byte stream
        out = b.astype(np.uint64)
        if count is not None and n_values != count:
            raise ValueError(f"expected {count} values, decoded {n_values}")
        return out
    # group id of each byte = number of terminators before it
    group = np.cumsum(is_last) - is_last  # 0-based group index per byte
    # position of each byte within its group
    starts_of_group = np.flatnonzero(np.concatenate(([True], is_last[:-1])))
    pos_in_group = np.arange(b.size) - starts_of_group[group]
    payload = (b & np.uint8(0x7F)).astype(np.uint64) << (
        np.uint64(7) * pos_in_group.astype(np.uint64)
    )
    out = np.zeros(n_values, dtype=np.uint64)
    np.add.at(out, group, payload)
    if count is not None and n_values != count:
        raise ValueError(f"expected {count} values, decoded {n_values}")
    return out
