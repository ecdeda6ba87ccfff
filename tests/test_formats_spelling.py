"""Per-format extraction (reference tests/test_corpus.py analogues) and
spelling correction."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st


class TestFormats:
    def test_text_title_is_stem(self):
        from searchengine_ray.formats import text_extract

        title, content = text_extract("hello\nworld", "dir/sub/story.txt")
        assert title == "story"
        assert content == "hello\nworld"

    def test_json_title_body(self):
        from searchengine_ray.formats import json_extract

        title, content = json_extract(
            '{"title": "My Doc", "body": "the body text"}', "a.json"
        )
        assert title == "My Doc"
        assert content == "the body text"

    def test_xml_title_priority_and_text_nodes(self):
        from searchengine_ray.formats import xml_extract

        xml = (
            "<doc><head>Heading</head><title>Real Title</title>"
            "<p>first para</p><p>second <b>bold</b> tail</p></doc>"
        )
        title, content = xml_extract(xml, "d.xml")
        assert title == "Real Title"   # 'title' outranks 'head'
        for piece in ["Heading", "first para", "second", "bold", "tail"]:
            assert piece in content

    def test_dispatch_stage(self, ray_session):
        import ray.data

        from searchengine_ray.formats import extract_documents

        tbl = pa.table(
            {
                "path": pa.array(["a.txt", "b.json", "c.xml"]),
                "fmt": pa.array(["txt", "json", "xml"]),
                "payload": pa.array(
                    [
                        "plain text",
                        '{"title": "T", "body": "B"}',
                        "<r><title>X</title><p>Y</p></r>",
                    ]
                ),
            }
        )
        rows = extract_documents(ray.data.from_arrow(tbl)).take_all()
        by_path = {r["path"]: r for r in rows}
        assert by_path["a.txt"]["title"] == "a"
        assert by_path["b.json"]["content"] == "B"
        assert by_path["c.xml"]["title"] == "X"

    def test_spanish_analyzer_works(self):
        # round 2: the NotImplementedError stub became a real pure-Python
        # Snowball Spanish implementation (spanish.py)
        from searchengine_ray.formats import analyze_document_spanish

        tp, n = analyze_document_spanish("hola mundos")
        assert n == 2
        assert "mund" in tp


class TestSpelling:
    def test_levenshtein_known_values(self):
        from searchengine_ray.query.spelling import levenshtein

        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0
        assert levenshtein("flaw", "lawn") == 2

    def test_vectorized_distances_match_scalar(self, engine):
        from searchengine_ray.query.spelling import (
            SpellingCorrection,
            levenshtein,
        )

        sc = SpellingCorrection(engine.index)
        for word in ["serch", "engin", "xyzzy", "run"]:
            d = sc.distances(word)
            for i in range(0, len(sc.vocabulary), 7):
                assert d[i] == levenshtein(sc.vocabulary[i], word)

    def test_suggest_top5_sorted_by_distance(self, engine):
        from searchengine_ray.query.spelling import (
            SpellingCorrection,
            levenshtein,
        )

        sc = SpellingCorrection(engine.index)
        cands = sc.suggest_for_word("serch", 5)
        assert len(cands) == 5
        dists = [levenshtein(c, "serch") for c in cands]
        assert dists == sorted(dists)
        assert cands[0] == "search"

    def test_whole_query_correction(self, engine):
        from searchengine_ray.query.spelling import SpellingCorrection

        sc = SpellingCorrection(engine.index)
        # an exact (alphabetic) vocab word maps to itself; the query
        # cleanup strips non-letters first (spellingcorrection.py:34)
        word = next(w for w in sc.vocabulary if w.isalpha())
        assert sc.suggest(f"{word}!!").startswith(word)


class _Vocab:
    def __init__(self, terms):
        self._terms = list(terms)

    def get_vocabulary(self):
        return self._terms


@given(
    st.sets(st.text(alphabet="abcdé", min_size=1, max_size=7),
            min_size=1, max_size=40),
    st.text(alphabet="abcdé", min_size=0, max_size=8),
    st.integers(min_value=1, max_value=8),
)
@hyp_settings(max_examples=150, deadline=None)
def test_suggest_for_word_equals_exhaustive_scan(vocab, word, k):
    """The length-band scan returns the exhaustive scan's ids in its
    order: every term's distance, then (distance, term id) ascending."""
    from searchengine_ray.query.spelling import SpellingCorrection

    sc = SpellingCorrection(_Vocab(vocab))
    d = sc.distances(word)
    order = np.lexsort((np.arange(d.size), d))[:k]
    assert sc.suggest_for_word(word, k) == [sc.vocabulary[i] for i in order]
