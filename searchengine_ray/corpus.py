"""Corpus loading: the engine's input is a Parquet table of source-code
repositories with columns (repo, path, commit, lang, content) — the
BASELINE.json ``input_hint`` shape.  This module provides:

- ``read_corpus``: read + column-prune such a table,
- ``corpus_from_documents``: adapter from the driver's
  ``documents.parquet`` (doc_id, text, lang, source, n_chars) to the corpus
  shape (text -> content, source -> repo, path from doc_id),
- ``synthetic_corpus_table``: the deterministic FIXTURES.md §1 generator
  used by tests (seeded, no external data).

The reference's corpus abstraction is a directory walk assigning dense doc
ids in walk order (/root/reference/engine/documents/directorycorpus.py:64-79);
here a corpus is just a ``ray.data.Dataset`` and doc ids come from
``ids.assign_doc_ids`` (deterministic under any parallelism).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def read_corpus(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a corpus parquet table, pruning to the needed columns."""
    return ray.data.read_parquet(path, columns=columns or CORPUS_COLUMNS)


def _documents_to_corpus_batch(batch: pa.Table) -> pa.Table:
    doc_id = batch.column("doc_id")
    n = len(batch)
    paths = pa.array([f"doc_{i}.txt" for i in doc_id.to_pylist()], type=pa.string())
    commits = pa.array(
        [
            hashlib.sha1(f"{s}/{i}".encode()).hexdigest()
            for s, i in zip(batch.column("source").to_pylist(), doc_id.to_pylist())
        ],
        type=pa.string(),
    )
    return pa.table(
        {
            "repo": batch.column("source"),
            "path": paths,
            "commit": commits,
            "lang": batch.column("lang"),
            "content": batch.column("text"),
            "doc_id": doc_id.cast(pa.int64()),
        }
    )


def corpus_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Adapt ``{sf_dir}/documents.parquet`` to the corpus shape.

    The driver table already carries a dense ``doc_id`` which we keep (it
    plays the role of the reference's directory-walk enumeration id).
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    return ds.map_batches(_documents_to_corpus_batch, batch_format="pyarrow")


_LANGS = ["py", "py", "py", "js", "js", "go", "java", "rs"]

_WORD_POOL = [
    "running", "indexes", "search", "engine", "tokenize", "foo-bar-baz",
    "hello.", '"quoted"', "192.168.1.1", "MixedCase", "def", "return",
    "import", "class", "self", "lambda", "yield", "async", "await",
    "data-driven", "state-of-the-art", "caresses", "ponies", "relational",
    "conditional", "generously", "naïve", "café", "x=1", "y+=2", "if",
    "else:", "elif", "while", "for", "in", "not", "None", "True", "False",
    "print('hi')", "list[int]", "dict", "''", "--", "apos'trophe",
]


def synthetic_corpus_table(num_rows: int, seed: int = 42) -> pa.Table:
    """Deterministic synthetic source-code-ish corpus (FIXTURES.md §1)."""
    rng = np.random.default_rng(seed)
    repos, paths, commits, langs, contents = [], [], [], [], []
    pool = np.array(_WORD_POOL)
    for i in range(num_rows):
        repo = f"org{i % 7}/repo{i % 23}"
        path = f"src/mod{i % 11}/file_{i}.py"
        commit = hashlib.sha1(f"{repo}/{path}".encode()).hexdigest()
        n_lines = int(rng.integers(1, 12))
        lines = []
        for _ in range(n_lines):
            n_words = int(rng.integers(1, 14))
            lines.append(" ".join(rng.choice(pool, size=n_words)))
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        langs.append(_LANGS[i % len(_LANGS)])
        contents.append("\n".join(lines))
    return pa.table(
        {
            "repo": pa.array(repos),
            "path": pa.array(paths),
            "commit": pa.array(commits),
            "lang": pa.array(langs),
            "content": pa.array(contents),
        }
    )
