"""Randomized batch-vs-per-doc tokenizer parity fuzz (round-5 harness).

This is the harness that caught pyarrow 16.1.0's heap-state-dependent
final-codepoint misclassification in utf8_split_whitespace / utf8_lower
(see batch_tokenize._PY_WS_PATTERN and SURVEY.md §5): unlike the
hypothesis suite it dumps the Arrow intermediates AT THE MOMENT of a
failure, in the same heap state, which is what localized the bug to the
splitter's last-buffer-byte classification.  Usage:

    python scripts/fuzz_tokenize_parity.py [seed] [trials]

Exit 0 = all trials clean for both analyzers.
"""
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.compute as pc

from searchengine_ray.batch_tokenize import _PY_WS_PATTERN
from searchengine_ray.build import IndexBuildConfig, TokenizeDocs, _worker_cache

ALPHA = list(
    "abcdef -'\"\n\t.\xe9\xc9\xd1\u0130\u4e16 xXZ\xa0\u2003\u3000\x85"
    "\u2028\u2029\u1680\u200a\u202f\u205f\x1c\x0b\x0c\r0123-"
    "\u0391\u03a3\u03c2"
)


def batch(docs):
    return pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "path": pa.array([f"p{i}" for i in range(len(docs))]),
        "content": pa.array(docs, type=pa.string()),
    })


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 4000
    rng = random.Random(seed)
    tks = {a: TokenizeDocs(IndexBuildConfig(analyzer=a))
           for a in ("whitespace", "reference")}
    for trial in range(trials):
        docs = ["".join(rng.choice(ALPHA) for _ in range(rng.randint(0, 100)))
                for _ in range(rng.randint(1, 16))]
        tbl = batch(docs)
        for analyzer, tk in tks.items():
            fast = tk(tbl)
            slow = tk._call_per_doc(tbl, _worker_cache(analyzer))
            for col in fast.column_names:
                if col == "l_d":
                    continue
                f = fast.column(col).to_pylist()
                s = slow.column(col).to_pylist()
                if f != s:
                    print(f"TRIAL {trial} analyzer={analyzer} DIFF {col}")
                    for i, (a, b) in enumerate(zip(f, s)):
                        if a != b:
                            print("row", i, "doc:", repr(docs[i]))
                            print("  fast:", repr(a)[:400])
                            print("  slow:", repr(b)[:400])
                            # dump Arrow intermediates NOW, same heap state
                            c = pa.array([docs[i]], type=pa.string())
                            norm = pc.replace_substring_regex(
                                c, _PY_WS_PATTERN, " ")
                            print("  norm:", repr(norm.to_pylist()[0])[:400])
                            print("  split:", repr(pc.split_pattern(
                                norm, " ").to_pylist()[0])[:400])
                    return 1
    print(f"clean {trials} trials seed {seed} (both analyzers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
