"""``searchengine_ray.bitpack`` (segment format v9 position streams):
round trips, and byte-exact agreement with the per-list reference
packer in ``tests/bitpack_oracle.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from searchengine_ray import bitpack
from tests.bitpack_oracle import pack_list


# one list: 1 to 40 values below 2**w, for a drawn w in 0..31
_LIST = st.integers(min_value=0, max_value=31).flatmap(
    lambda w: st.lists(st.integers(min_value=0, max_value=(1 << w) - 1),
                       min_size=1, max_size=40))


@given(st.lists(_LIST, min_size=0, max_size=12))
@hyp_settings(max_examples=200, deadline=None)
def test_pack_lists_matches_reference_and_round_trips(lists):
    """Many lists in one call: the bytes are the reference packer's,
    list by list, and each list unpacks to its values."""
    flat = np.array([v for lst in lists for v in lst], dtype=np.int64)
    buf, nbytes = bitpack.pack_lists(flat, [len(lst) for lst in lists])
    want = [pack_list(lst) for lst in lists]
    assert buf == b"".join(want)
    assert nbytes.tolist() == [len(w) for w in want]
    off = 0
    for lst, n in zip(lists, nbytes.tolist()):
        out = bitpack.unpack(buf[off:off + n], len(lst))
        assert out.dtype == np.int64
        assert out.tolist() == lst
        off += n


@pytest.mark.parametrize("values, width", [
    ([0], 0), ([0, 0, 0], 0), ([1], 1), ([5], 3), ([2**31 - 1], 31),
    ([2**31 - 1, 0, 1, 2**30], 31), ([7, 1, 255, 256], 9)])
def test_edge_widths(values, width):
    """cf = 1, width 0 (all gaps 0: no payload bytes) and width 31."""
    buf, nbytes = bitpack.pack_lists(np.array(values), [len(values)])
    assert buf[0] == width
    assert len(buf) == nbytes[0] == 1 + (len(values) * width + 7) // 8
    assert buf == pack_list(values)
    assert bitpack.unpack(buf, len(values)).tolist() == values


def test_empty_lists_and_no_values():
    buf, nbytes = bitpack.pack_lists(np.array([], np.int64), [0, 0])
    assert buf == b"\x00\x00" and nbytes.tolist() == [1, 1]
    assert bitpack.unpack(b"\x00", 0).tolist() == []
    buf, nbytes = bitpack.pack_lists(np.array([3, 1]), [0, 2, 0])
    assert buf == b"\x00" + pack_list([3, 1]) + b"\x00"


@pytest.mark.parametrize("mutate", [
    lambda b: b[:-1],                      # a payload byte short
    lambda b: b + b"\x00",                 # a byte too many
    lambda b: bytes([b[0] + 1]) + b[1:],   # wider width byte
    lambda b: bytes([b[0] - 1]) + b[1:],   # narrower width byte
    lambda b: bytes([64]) + b[1:],         # width past int64
    lambda b: b"",                         # no width byte
])
def test_unpack_refuses_torn_stream(mutate):
    """With 8 or more values any change of the width byte changes the
    payload length, so every mutation below is refused."""
    buf, _ = bitpack.pack_lists(np.arange(1, 17), [16])
    with pytest.raises(ValueError, match="torn"):
        bitpack.unpack(mutate(buf), 16)
