"""Parity of the batch tokenizer's one entry point
(batch_tokenize.analyze_batch) with the per-doc chain
(batch_tokenize.analyze_per_doc over tokenizer.ANALYZERS): the vectorized
pass must be bit-identical, including the reference quirks (empty types
count toward doc_length and L_d but are never indexed; positions are
1-based per stream token; pieces that strip to nothing consume no
position), and cutting a batch into byte-bounded slices must not show in
the output."""

from unittest import mock

import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from searchengine_ray import batch_tokenize
from searchengine_ray.batch_tokenize import analyze_batch, analyze_per_doc
from searchengine_ray.tokenizer import TokenTermCache

ADVERSARIAL = [
    "Hello world-wide web",
    "  \t leading  spaces\nand\nlines  ",
    "",
    "---",
    "a-b-c x--y",
    "don't \"quote\" me",
    "héllo wörld naïve",
    "same same same different",
    "\n\n\n",
    "end-",
    "123 456.789 a1b2",
    "tab\tseparated stays one-token",
    "ALL CAPS Mixed Case",
    "x \x1c y",
    "a " * 200 + "b",
    " - ",
    "-' '-",
    " nbsp token",  # non-breaking space: NOT a split char for T1
]

# a slice bound below most test batches' content, so analyze_batch cuts
# them into several passes (a doc past it gets a pass of its own)
TINY_SLICE_BYTES = 200


def _columns(out: dict) -> dict:
    return {k: pa.array(v).to_pylist() for k, v in out.items()}


def _assert_parity(docs, analyzer):
    contents = pa.array(docs, type=pa.string())
    fast = analyze_batch(contents, analyzer, TokenTermCache())
    with mock.patch.object(batch_tokenize, "ANALYZE_SLICE_BYTES",
                           TINY_SLICE_BYTES):
        sliced = analyze_batch(contents, analyzer, TokenTermCache())
    slow = analyze_per_doc(contents, analyzer, TokenTermCache())
    assert set(fast) == set(slow) == set(sliced)
    for col in fast:
        f, s = pa.array(fast[col]), pa.array(slow[col])
        assert f.type == s.type == pa.array(sliced[col]).type, col
    fast, sliced, slow = _columns(fast), _columns(sliced), _columns(slow)
    assert sliced == fast
    for col in fast:
        f, s = fast[col], slow[col]
        if col == "l_d":
            assert all(abs(a - b) < 1e-12 for a, b in zip(f, s)), col
        else:
            assert f == s, col


def test_adversarial_reference():
    _assert_parity(ADVERSARIAL, "reference")


def test_adversarial_whitespace():
    _assert_parity(ADVERSARIAL, "whitespace")


def test_adversarial_spanish():
    # no vectorized pass: analyze_batch runs the per-doc chain, sliced
    _assert_parity(ADVERSARIAL, "spanish")


def test_empty_batch():
    _assert_parity([], "reference")
    _assert_parity([], "whitespace")


def test_all_empty_docs():
    _assert_parity(["", "", ""], "reference")
    _assert_parity([" ", "\n", "--"], "reference")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet="abcdef -'\"\n\t.é世 x",
            min_size=0,
            max_size=80,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_parity_reference(docs):
    _assert_parity(docs, "reference")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet="abcdef \t\n\xa0\u2003\u3000\x85\x1cXZ.",
            min_size=0,
            max_size=80,
        ),
        min_size=1,
        max_size=12,
    )
)
@example(
    docs=['\xa0\u2003 X ',
     'XZX Xc\t',
     '',
     '\u2003c\u2003ZXX',
     'c',
     'ZXZX XXaXX\xa0X e',
     'X\xa0',
     ''],
).via('discovered failure')
def test_property_parity_whitespace(docs):
    _assert_parity(docs, "whitespace")

# every multi-byte codepoint Python's str.split() splits on (the set
# batch_tokenize._PY_WS_PATTERN normalizes away): each one mid-
# string, at string start, and at string END — the last doc's trailing
# char is the end of the batch's data buffer, where pyarrow 16.1.0's
# utf8_split_whitespace misclassified U+00A0 depending on heap state
_MB_WS = "\x1c\x1d\x1e\x1f\x85\xa0\u1680" + "".join(
    chr(c) for c in range(0x2000, 0x200B)
) + "\u2028\u2029\u202f\u205f\u3000"
MB_WS_DOCS = (
    [f"a{ch}b" for ch in _MB_WS]
    + [f"{ch}lead" for ch in _MB_WS]
    + [f"trail{ch}" for ch in _MB_WS]
)


def test_multibyte_whitespace_parity():
    _assert_parity(MB_WS_DOCS, "whitespace")
    _assert_parity(MB_WS_DOCS, "reference")


def test_multibyte_whitespace_buffer_final():
    # trailing U+00A0 as the batch's final data byte, empty doc after —
    # the exact shape of the discovered failure
    _assert_parity(["X Y", "X\xa0", ""], "whitespace")
    _assert_parity(["X Y", "X\u3000", ""], "whitespace")

def test_buffer_final_ascii_whitespace():
    # buffer-final ASCII \x0b — the live-caught shape where even the
    # ASCII whitespace classification of the last data byte flipped
    _assert_parity(["a b", "c\x0b"], "whitespace")
    _assert_parity(["x-x\x1c\r2\u1680\u1680\x0b"], "whitespace")


def test_python_lower_special_cases():
    # context-sensitive case mappings Python implements but utf8proc's
    # per-codepoint table does not: Greek final sigma and U+0130
    _assert_parity(["\u0391\u03a3 \u0392\u0397\u03a4\u0391\u03a3"],
                   "whitespace")
    _assert_parity(["b\u01300 \u0130 x", "\u00c9 \u00d1"], "whitespace")

