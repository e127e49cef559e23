from __future__ import annotations

import json
import logging
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stagepipe.retrieval import (
    Chunk,
    ChunkIndex,
    RetrievalError,
    build_index,
    chunk_document,
    hash_document,
    load_index,
    save_index,
    top_k,
)


def para(ch: str, size: int, space: str = " ") -> str:
    """One paragraph of `size` characters ending with a letter."""
    unit = (ch * 9 + space)
    body = (unit * (size // 10 + 1))[:size]
    return body[:-1] + ch


SPACES = [" ", "\t", "\xa0", "\x0b", "\x85", "\u2028"]
XA0_DOC = "a" * 150 + "\n\n\xa0\n\n" + "b" * 150


@st.composite
def documents(draw) -> str:
    """Paragraphs of words, runs with no whitespace to split them at, and
    whitespace-only paragraphs, between LF or CRLF blank lines, with blank
    text before and after."""
    parts = [draw(st.sampled_from(["", "\n\n", "\n \t\n\n", "\xa0\r\n\r\n"]))]
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        if i:
            parts.append(draw(st.sampled_from(["\n\n", "\r\n\r\n", "\n \t\n", "\n\r\n\n"])))
        kind, size = draw(st.sampled_from(["words", "run", "blank"])), draw(st.integers(5, 2000))
        space = draw(st.sampled_from(SPACES))
        parts.append({"words": para("azx"[i % 3], size, space), "run": "azx"[i % 3] * size,
                      "blank": space * (size % 4 + 1)}[kind])
    parts.append(draw(st.sampled_from(["", "\n\n", "\n\n \t ", "\n \n\n", "\xa0", "\r\n"])))
    return "".join(parts)


def fake_embedder(mapping: dict[str, list[float]], model_id: str = "fake"):
    def embed(texts):
        return [mapping[t] for t in texts], model_id

    return embed


class TestChunkDocument:
    def test_everything_fits_in_one_chunk(self):
        doc = "\n\n".join(para(c, 300) for c in "abc")
        chunks = chunk_document(doc, max_chars=1200)
        assert len(chunks) == 1
        assert chunks[0].text == doc

    def test_greedy_packing_never_exceeds_cap(self):
        # three 700-char paragraphs with a 1200 cap: no pair fits together
        # (700 + separator + 700 > 1200), so the greedy rule closes a chunk
        # at every paragraph boundary
        doc = "\n\n".join(para(c, 700) for c in "abc")
        chunks = chunk_document(doc, max_chars=1200)
        assert len(chunks) == 3
        assert all(len(c.text) <= 1200 for c in chunks)

    def test_two_paragraphs_that_fit_are_merged(self):
        doc = "\n\n".join([para("a", 400), para("b", 400), para("c", 900)])
        chunks = chunk_document(doc, max_chars=1200)
        assert len(chunks) == 2
        assert para("b", 400) in chunks[0].text
        assert chunks[1].text == para("c", 900)

    def test_empty_document(self):
        with pytest.raises(RetrievalError, match="empty"):
            chunk_document("", max_chars=1200)
        with pytest.raises(RetrievalError, match="empty"):
            chunk_document("  \n \n ", max_chars=1200)

    def test_long_paragraph_split_at_whitespace(self):
        words = ("word " * 200).strip()  # ~1000 chars, no blank lines
        chunks = chunk_document(words, max_chars=200)
        assert len(chunks) > 1
        for c in chunks[:-1]:
            assert len(c.text) <= 200
            assert c.text.endswith(" ")  # split lands after a whitespace

    def test_reconstruction(self):
        doc = "\n\n".join(para(c, 350) for c in "abcdef")
        chunks = chunk_document(doc, max_chars=800)
        assert "".join(c.text for c in chunks) == doc

    @pytest.mark.parametrize("doc, lengths", [
        # the blank line after the \xa0 ends no paragraph: the text since the
        # last paragraph end holds no content
        (XA0_DOC, [152, 153]),
        # the second window starts at the second space and holds no other
        # whitespace, so it is split at the cap
        ("a" * 199 + "  " + "b" * 300, [200, 200, 101]),
        # a run with no whitespace at all is split at the cap
        ("a" * 450, [200, 200, 50]),
        # a CRLF blank line ends a paragraph, and its chunk keeps the separator
        (para("a", 150) + "\r\n\r\n" + para("b", 150), [154, 150]),
        # blank lines before the first paragraph belong to its chunk
        ("\n\n" + para("a", 150) + "\n\n" + para("b", 150), [154, 150]),
        # a whitespace-only tail joins the last chunk rather than standing alone
        (para("a", 150) + "\n\n" + para("b", 150) + "\n\n \t ", [152, 155]),
    ], ids=["whitespace-only-paragraph", "whitespace-only-first-in-window", "run-split-at-cap",
            "crlf-separator", "blank-lead-joins-first", "blank-tail-joins-last"])
    def test_chunk_lengths(self, doc, lengths):
        assert [len(c.text) for c in chunk_document(doc, max_chars=200)] == lengths

    def test_ids_dense_from_zero_and_text_matches_span(self):
        doc = "\n\n".join(para(c, 400) for c in "abcd")
        chunks = chunk_document(doc, max_chars=500)
        assert [c.chunk_id for c in chunks] == list(range(len(chunks)))
        for c in chunks:
            assert doc[c.source_span[0] : c.source_span[1]] == c.text

    def test_parameter_validation(self):
        with pytest.raises(RetrievalError, match="max_chars must be >= 200, got 100"):
            chunk_document("text", max_chars=100)

    @given(doc=documents(), max_chars=st.integers(min_value=200, max_value=900))
    # blank lines first, a run with no whitespace past the cap, a blank tail
    @example(doc="\n\n" + "a" * 1000 + "\n\n" + para("z", 50) + "\n\n \t ", max_chars=200)
    @example(doc=XA0_DOC, max_chars=200)
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_property(self, doc, max_chars):
        assume(doc.strip())
        chunks = chunk_document(doc, max_chars=max_chars)
        assert "".join(c.text for c in chunks) == doc
        for c in chunks:
            assert doc[slice(*c.source_span)] == c.text
            # not always non-blank: "x" * 199 + "\n\n" + "y" * 300 gives a "\n" chunk
            assert 0 < len(c.text) <= max_chars
        for c, after in zip(chunks, chunks[1:]):
            assert after.source_span[1] - c.source_span[0] > max_chars  # greedy
            # split after a whitespace, or hard at the cap in a run with none
            assert c.text[-1].isspace() or (
                len(c.text) == max_chars and not any(map(str.isspace, c.text[1:]))
            )


class TestBuildIndex:
    def _chunks(self, texts):
        return [Chunk(i, t, (0, len(t))) for i, t in enumerate(texts)]

    def test_unit_norm_vectors(self):
        texts = [f"chunk {i}" for i in range(10)]
        mapping = {t: [float(i + 1), 1.0, 0.5] for i, t in enumerate(texts)}
        index = build_index(self._chunks(texts), fake_embedder(mapping), "dochash")
        assert len(index) == 10
        norms = np.linalg.norm(index.vectors, axis=1)
        assert np.allclose(norms, 1.0)
        assert index.doc_hash == "dochash"
        assert index.model_id == "fake"

    def test_dimension_mismatch(self):
        def bad_embed(texts):
            return [[1.0, 2.0], [1.0, 2.0, 3.0]], "m"

        with pytest.raises(RetrievalError, match="dimension"):
            build_index(self._chunks(["a", "b"]), bad_embed, "h")

    def test_empty_chunks(self):
        for texts in ([], [" ", "\n\t"]):  # blank chunks are not indexed
            with pytest.raises(RetrievalError, match="zero non-blank chunks"):
                build_index(self._chunks(texts), fake_embedder({}), "h")

    def test_index_of_zero_chunks_cannot_be_made(self):
        # the one empty-index check, so retrieval never meets an empty index
        with pytest.raises(RetrievalError, match="index is empty"):
            ChunkIndex(chunks=(), vectors=(), model_id="m", doc_hash="h")

    def test_one_chunk_index(self):
        embed = fake_embedder({"a": [3.0, 0.0, 4.0], "q": [1.0, 1.0, 1.0]})
        index = build_index(self._chunks(["a"]), embed, "h")
        assert (len(index), index.dim) == (1, 3)
        assert [c.chunk_id for c, _ in top_k(index, "q", 5, embed)] == [0]

    @given(doc=documents(), max_chars=st.integers(min_value=200, max_value=900))
    @example(doc="x" * 199 + "\n\n" + "y" * 300, max_chars=200)  # a "\n" chunk
    @example(doc="x" + " " * 300, max_chars=200)  # a blank tail every tiling has
    @settings(max_examples=50, deadline=None)
    def test_index_holds_every_non_blank_chunk_of_the_tiling(self, doc, max_chars):
        assume(doc.strip())
        chunks = chunk_document(doc, max_chars=max_chars)
        embed = lambda texts: ([[1.0, float(len(t))] for t in texts], "m")
        index = build_index(chunks, embed, "h")
        # ids and spans stay those of the tiling
        assert index.chunks == tuple(c for c in chunks if not c.text.isspace())

    def test_rebuild_is_byte_identical(self, tmp_path):
        texts = ["alpha text", "beta text"]
        mapping = {t: [1.0, float(i)] for i, t in enumerate(texts)}
        for name in ("a.json", "b.json"):
            index = build_index(self._chunks(texts), fake_embedder(mapping), "h")
            save_index(index, tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        texts = ["alpha", "beta"]
        mapping = {"alpha": [1.0, 0.0], "beta": [0.5, 0.5], "q": [1.0, 1.0]}
        index = build_index(self._chunks(texts), fake_embedder(mapping), "h")
        save_index(index, tmp_path / "idx.json")
        loaded = load_index(tmp_path / "idx.json")
        assert loaded.chunks == index.chunks
        assert np.array_equal(loaded.vectors, index.vectors)
        assert loaded.model_id == index.model_id
        assert loaded.doc_hash == index.doc_hash

    def test_numpy_written_index_ranks_as_a_rebuilt_one(self, tmp_path):
        """An index file whose rows numpy normalized, as earlier versions wrote
        it, loads and gives the ranking of an index rebuilt from the same
        embeddings."""
        rng = np.random.default_rng(5)
        n, dim = 40, 64
        raw = rng.normal(size=(n, dim))
        texts = [f"c{i}" for i in range(n)]
        mapping = {t: raw[i].tolist() for i, t in enumerate(texts)}
        queries = [f"q{j}" for j in range(20)]
        mapping.update({q: rng.normal(size=dim).tolist() for q in queries})
        chunks = [Chunk(i, t, (0, 2)) for i, t in enumerate(texts)]
        unit_rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        (tmp_path / "idx.json").write_text(json.dumps({
            "model_id": "fake",
            "doc_hash": "h",
            "chunks": [{"chunk_id": c.chunk_id, "text": c.text, "source_span": [0, 2]}
                       for c in chunks],
            "vectors": unit_rows.tolist(),
        }))
        loaded = load_index(tmp_path / "idx.json")
        assert np.array_equal(loaded.vectors, unit_rows)
        embed = fake_embedder(mapping)
        rebuilt = build_index(chunks, embed, "h")
        for q in queries:
            assert ([c.chunk_id for c, _ in top_k(loaded, q, n, embed)]
                    == [c.chunk_id for c, _ in top_k(rebuilt, q, n, embed)])


class TestTopK:
    def _index_with_cosines(self):
        # query (1, 0); chunk vectors chosen for cosines 0.9, 0.1, 0.5
        mapping = {
            "c0": [0.9, np.sqrt(1 - 0.81)],
            "c1": [0.1, np.sqrt(1 - 0.01)],
            "c2": [0.5, np.sqrt(0.75)],
            "q": [1.0, 0.0],
        }
        chunks = [Chunk(i, f"c{i}", (0, 2)) for i in range(3)]
        embed = fake_embedder(mapping)
        return build_index(chunks, embed, "h"), embed

    def test_descending_cosine_order(self):
        index, embed = self._index_with_cosines()
        hits = top_k(index, "q", 2, embed)
        assert [c.text for c, _ in hits] == ["c0", "c2"]
        scores = [s for _, s in hits]
        assert scores[0] == pytest.approx(0.9)
        assert scores[1] == pytest.approx(0.5)

    def test_k_equals_all(self):
        index, embed = self._index_with_cosines()
        hits = top_k(index, "q", 3, embed)
        assert [c.text for c, _ in hits] == ["c0", "c2", "c1"]

    def test_tie_broken_by_chunk_id(self):
        mapping = {"a": [1.0, 0.0], "b": [1.0, 0.0], "q": [2.0, 0.0]}
        chunks = [Chunk(0, "a", (0, 1)), Chunk(1, "b", (0, 1))]
        embed = fake_embedder(mapping)
        index = build_index(chunks, embed, "h")
        hits = top_k(index, "q", 1, embed)
        assert hits[0][0].chunk_id == 0

    def test_k_clamped_without_logging(self, caplog):
        # a run logs the clamp once, where its k meets its index (cli)
        index, embed = self._index_with_cosines()
        with caplog.at_level(logging.DEBUG):
            hits = top_k(index, "q", 10, embed)
        assert len(hits) == 3
        assert caplog.records == []

    @pytest.mark.parametrize(
        "text, k, message",
        [("  ", 5, "must be non-empty"), ("\n\t", 1, "must be non-empty"),
         ("q", 0, "k must be positive, got 0"), ("q", -1, "k must be positive, got -1")],
        ids=["spaces", "newline-tab", "k-zero", "k-negative"],
    )
    def test_bad_call_fails_before_embedding(self, text, k, message):
        index, embed = self._index_with_cosines()
        embedded = []

        def spy(texts):
            embedded.append(list(texts))
            return embed(texts)

        with pytest.raises(RetrievalError, match=message):
            top_k(index, text, k, spy)
        assert embedded == []

    def test_scores_bounded_and_scale_invariant(self):
        index, embed = self._index_with_cosines()
        hits = top_k(index, "q", 3, embed)
        assert all(-1.0 <= s <= 1.0 for _, s in hits)
        scaled = fake_embedder({"q": [7.0, 0.0]})
        hits_scaled = top_k(index, "q", 3, scaled)
        assert [c.chunk_id for c, _ in hits] == [c.chunk_id for c, _ in hits_scaled]

    def test_brute_force_oracle(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randrange(2, 20)
            dim = rng.randrange(2, 8)
            vectors = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
            qvec = [rng.uniform(-1, 1) for _ in range(dim)]
            mapping = {f"c{i}": vectors[i] for i in range(n)}
            mapping["q"] = qvec
            chunks = [Chunk(i, f"c{i}", (0, 2)) for i in range(n)]
            embed = fake_embedder(mapping)
            index = build_index(chunks, embed, "h")
            q = np.array(qvec) / np.linalg.norm(qvec)
            cosines = [
                float(np.array(v) / np.linalg.norm(v) @ q) for v in vectors
            ]
            expected = sorted(range(n), key=lambda i: (-cosines[i], i))
            for k in range(1, n + 1):
                hits = top_k(index, "q", k, embed)
                assert [c.chunk_id for c, _ in hits] == expected[:k]

    # 1e200 squares past the float range and 1e-170 to zero; 4e307 stands
    # for the top of the range (3s is not finite for s = 1e308), and its norm
    # 5s = 2e308 is past the range too
    @pytest.mark.parametrize("s", [1e200, 1e-170, 4e307])
    def test_any_finite_scale(self, tmp_path, s):
        mapping = {"c0": [3 * s, 4 * s], "c1": [4 * s, 3 * s], "q": [s, 0.0]}
        chunks = [Chunk(i, f"c{i}", (0, 2)) for i in range(2)]
        embed = fake_embedder(mapping)
        index = build_index(chunks, embed, "h")
        assert np.allclose(np.linalg.norm(index.vectors, axis=1), 1.0)
        hits = top_k(index, "q", 2, embed)
        assert [c.chunk_id for c, _ in hits] == [1, 0]
        assert [score for _, score in hits] == [pytest.approx(0.8), pytest.approx(0.6)]
        save_index(index, tmp_path / "idx.json")
        assert load_index(tmp_path / "idx.json") == index


def test_hash_document_stability():
    assert hash_document("abc") == hash_document("abc")
    assert hash_document("abc") != hash_document("abd")


def test_malformed_index_file(tmp_path):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps({"chunks": []}))
    with pytest.raises(RetrievalError):
        load_index(path)


def test_index_file_with_a_blank_chunk_is_refused(tmp_path):
    path = tmp_path / "idx.json"
    path.write_text(json.dumps({
        "chunks": [{"chunk_id": 0, "source_span": [0, 1], "text": "a"},
                   {"chunk_id": 1, "source_span": [1, 3], "text": " \n"}],
        "doc_hash": "h", "model_id": "m", "vectors": [[1.0, 0.0], [0.0, 1.0]],
    }))
    with pytest.raises(RetrievalError, match=r"blank chunk\(s\) \[1\]"):
        load_index(path)
