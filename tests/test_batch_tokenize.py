"""Parity of the vectorized batch tokenizer (batch_tokenize.analyze_batch)
with the per-doc reference chain (tokenizer.analyze_document*): the fast
path must be bit-identical, including the reference quirks (empty types
count toward doc_length and L_d but are never indexed; positions are
1-based per stream token; pieces that strip to nothing consume no
position)."""

import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from searchengine_ray.build import IndexBuildConfig, TokenizeDocs, _worker_cache

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


def _batch(docs):
    return pa.table(
        {
            "doc_id": pa.array(range(len(docs)), type=pa.int64()),
            "path": pa.array([f"p{i}" for i in range(len(docs))],
                             type=pa.string()),
            "content": pa.array(docs, type=pa.string()),
        }
    )


def _assert_parity(docs, analyzer):
    cfg = IndexBuildConfig(analyzer=analyzer)
    tk = TokenizeDocs(cfg)
    tbl = _batch(docs)
    fast = tk(tbl)
    slow = tk._call_per_doc(tbl, _worker_cache(analyzer))
    assert fast.schema.equals(slow.schema)
    for col in fast.column_names:
        f, s = fast.column(col).to_pylist(), slow.column(col).to_pylist()
        if col == "l_d":
            assert all(abs(a - b) < 1e-12 for a, b in zip(f, s)), col
        else:
            assert f == s, col


def test_adversarial_reference():
    _assert_parity(ADVERSARIAL, "reference")


def test_adversarial_whitespace():
    _assert_parity(ADVERSARIAL, "whitespace")


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

