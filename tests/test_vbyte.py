import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchengine_ray import vbyte


def test_empty():
    assert vbyte.encode(np.empty(0, dtype=np.uint64)) == b""
    assert vbyte.decode(b"").size == 0


def test_known_values():
    # 0 -> 0x00; 127 -> 0x7f; 128 -> 0x80 0x01 (little-endian 7-bit groups)
    assert vbyte.encode(np.array([0], dtype=np.uint64)) == b"\x00"
    assert vbyte.encode(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert vbyte.encode(np.array([128], dtype=np.uint64)) == b"\x80\x01"


def test_roundtrip_simple():
    vals = np.array([0, 1, 127, 128, 255, 300, 2**20, 2**40, 2**63], dtype=np.uint64)
    assert np.array_equal(vbyte.decode(vbyte.encode(vals), count=vals.size), vals)


def test_lengths_match_encoding():
    vals = np.array([0, 127, 128, 2**14 - 1, 2**14, 2**21], dtype=np.uint64)
    lens = vbyte.encoded_lengths(vals)
    enc = vbyte.encode(vals)
    assert int(lens.sum()) == len(enc)
    # per-value slices decode independently (skip-block independence)
    ends = np.cumsum(lens)
    starts = ends - lens
    for i, v in enumerate(vals):
        piece = enc[starts[i]:ends[i]]
        assert vbyte.decode(piece, count=1)[0] == v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63), max_size=200))
def test_roundtrip_property(values):
    arr = np.array(values, dtype=np.uint64)
    out = vbyte.decode(vbyte.encode(arr), count=arr.size)
    assert np.array_equal(out, arr)


def test_count_mismatch_raises():
    with pytest.raises(ValueError):
        vbyte.decode(b"\x01\x02", count=3)


def test_int64_view_matches_uint64():
    """int64 inputs (doc-gap arrays) take the zero-copy view fast path;
    encoding must be byte-identical to the uint64 equivalent, including
    for non-contiguous inputs."""
    vals = np.array([0, 1, 127, 128, 300, 2**21, 2**40], dtype=np.int64)
    assert vbyte.encode(vals) == vbyte.encode(vals.astype(np.uint64))
    strided = np.arange(400, dtype=np.int64)[::2]
    assert vbyte.encode(strided) == vbyte.encode(strided.astype(np.uint64))
    assert np.array_equal(
        vbyte.decode(vbyte.encode(vals), count=vals.size),
        vals.astype(np.uint64),
    )


class TestEncodePositionLists:
    """Per-(doc,term) position blobs (docterms format v2 tokenize-side
    encoder) — must produce the VByte gap streams the reducer decodes
    before it bit-packs each merged list (segment format v9)."""

    def _roundtrip(self, rows):
        import pyarrow as pa

        arr = pa.array(rows, type=pa.list_(pa.int32()))
        out = vbyte.encode_position_lists(arr)
        assert out.type == pa.binary()
        for i, row in enumerate(rows):
            blob = out[i].as_py()
            if not row:
                assert blob == b""
                continue
            dec = np.cumsum(
                vbyte.decode(blob, count=len(row)).astype(np.int64))
            assert list(dec) == row

    def test_basic_gaps(self):
        self._roundtrip([[1, 5, 9], [2], [3, 4, 5, 1000]])

    def test_interior_and_trailing_empty_rows(self):
        self._roundtrip([[7, 8], [], [], [42], [], []])

    def test_all_empty(self):
        self._roundtrip([[], [], []])

    def test_empty_array(self):
        import pyarrow as pa

        out = vbyte.encode_position_lists(pa.array([], type=pa.list_(pa.int32())))
        assert len(out) == 0

    def test_sliced_input_offsets(self):
        """A sliced ListArray (nonzero offset) must encode only its own
        rows — offsets are rebased inside the encoder."""
        import pyarrow as pa

        arr = pa.array([[9, 9, 9], [1, 4], [2, 10]], type=pa.list_(pa.int32()))
        out = vbyte.encode_position_lists(arr.slice(1))
        assert len(out) == 2
        assert list(np.cumsum(vbyte.decode(out[0].as_py(), count=2))) == [1, 4]
        assert list(np.cumsum(vbyte.decode(out[1].as_py(), count=2))) == [2, 10]
