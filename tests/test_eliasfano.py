"""``searchengine_ray.eliasfano`` (segment format v10 doc streams): round
trips, byte-exact agreement with the per-list reference coder in
``tests/ef_oracle.py``, the reducer's sliced encode, and refusal of torn
streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from searchengine_ray import build, eliasfano
from tests.ef_oracle import decode_list, encode_list


@st.composite
def _list(draw, max_u=5000):
    """One list: a universe u, 1 to 60 distinct ascending values below
    it, and a flag per value."""
    u = draw(st.integers(min_value=1, max_value=max_u))
    values = sorted(draw(st.sets(st.integers(min_value=0, max_value=u - 1),
                                 min_size=1, max_size=min(u, 60))))
    flags = draw(st.lists(st.booleans(), min_size=len(values),
                          max_size=len(values)))
    return values, u, flags


def _encode(lists):
    x = np.array([v for vals, _, _ in lists for v in vals], dtype=np.int64)
    flags = np.array([f for _, _, fl in lists for f in fl], dtype=bool)
    return eliasfano.encode_lists(
        x, [len(v) for v, _, _ in lists], [u for _, u, _ in lists], flags)


def _assert_lists(lists, buf, nbytes):
    want = [encode_list(v, u, f) for v, u, f in lists]
    assert buf == b"".join(want)
    assert nbytes.tolist() == [len(w) for w in want]
    off = 0
    for (values, u, flags), w in zip(lists, want):
        assert eliasfano.params(len(values), u)[2] == len(w)
        x, one = eliasfano.decode(buf[off:off + len(w)], len(values), u)
        assert x.dtype == np.int64 and one.dtype == bool
        assert x.tolist() == values and one.tolist() == flags
        assert decode_list(w, len(values), u) == (values, flags)
        off += len(w)


@given(st.lists(st.one_of(_list(), _list(max_u=2**40)), min_size=1,
                max_size=12))
@hyp_settings(max_examples=200, deadline=None)
def test_encode_lists_matches_reference_and_round_trips(lists):
    """Many lists in one call: the bytes are the reference coder's, list
    by list, and each list decodes to its values and flags."""
    _assert_lists(lists, *_encode(lists))


@pytest.mark.parametrize("values, u", [
    ([0], 1),                          # u = 1
    (list(range(5)), 5),               # df = u
    ([999], 1000),                     # df = 1, a value at u - 1
    ([0, 3, 5, 6], 7),                 # L = 0 (u < 2 df)
    ([1, 6], 8),                       # L = 2, u a power of two
    ([2**40 - 2, 2**40 - 1], 2**40),   # wide low parts
    (list(range(0, 4096, 64)) + [4095], 4096),
])
def test_edge_lists(values, u):
    flags = [i % 3 == 0 for i in range(len(values))]
    low = eliasfano.params(len(values), u)[0]
    assert len(values) << low <= u < len(values) << (low + 1)
    _assert_lists([(values, u, flags)], *_encode([(values, u, flags)]))


@given(st.lists(_list(max_u=300), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=40))
@hyp_settings(max_examples=100, deadline=None)
def test_reducer_slices_write_reference_bytes(lists, size):
    """The reducer codes doc streams in slices of whole lists
    (``build.DOC_SLICE`` postings per window): at any slice size, many
    lists per slice or one, the bytes are the reference coder's for
    every list, each coded as ``doc - lo`` in its universe."""
    lo = np.arange(len(lists), dtype=np.int64) * 1000
    docs = np.array([lo[i] + v for i, (vals, _, _) in enumerate(lists)
                     for v in vals], dtype=np.int64)
    flags = np.array([f for _, _, fl in lists for f in fl], dtype=bool)
    counts = np.array([len(v) for v, _, _ in lists], dtype=np.int64)
    u = np.array([u for _, u, _ in lists], dtype=np.int64)
    saved = build.DOC_SLICE
    build.DOC_SLICE = size
    try:
        buf, nbytes = build._encode_docs(docs, flags, counts, lo, u)
    finally:
        build.DOC_SLICE = saved
    _assert_lists(lists, bytes(buf), nbytes)


_VALUES = [1, 4, 9, 10, 25, 26, 40, 59]


def _stream():
    """8 values below 60: L = 2, so bits 0-15 are low parts, bits 16-38
    high parts (byte 2 wholly), bits 39-46 flags and bit 47 padding."""
    buf, _ = _encode([(_VALUES, 60, [True] * 8)])
    assert eliasfano.params(8, 60) == (2, 23, 6)
    return buf, 8, 60


@pytest.mark.parametrize("mutate", [
    lambda b: b[:-1],                                  # a byte short
    lambda b: b + b"\x00",                             # a byte too many
    lambda b: b[:2] + bytes([b[2] ^ 0x01]) + b[3:],    # a high bit flipped
    lambda b: b[:-1] + bytes([b[-1] | 0x80]),          # the padding bit set
])
def test_decode_refuses_torn_stream(mutate):
    """Length, the count of high ones and the padding are checked; a
    change that keeps all three (a high byte's ones moved within it)
    is not detectable without a checksum, which the format has not."""
    buf, n, u = _stream()
    assert eliasfano.decode(buf, n, u)[0].tolist() == _VALUES
    with pytest.raises(ValueError, match="torn"):
        eliasfano.decode(mutate(buf), n, u)


def test_decode_refuses_more_values_than_universe():
    with pytest.raises(ValueError, match="torn"):
        eliasfano.decode(b"\x00", 3, 2)
