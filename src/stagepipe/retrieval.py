"""Guideline chunking, embedding, and exact top-k cosine retrieval.

The guideline corpus is small, so retrieval is exact: every chunk vector is
compared against the query. Chunking splits on blank-line paragraph
boundaries and packs paragraphs greedily up to a size cap; the chunks'
spans tile the document exactly.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .corpus import StageCategory, read_json, typed, write_json

# the T-stage retrieval query; the N variant is an extrapolation and is
# flagged as such in run manifests
DEFAULT_QUERIES = {
    StageCategory.T: "A list of rules as knowledge that help predict the T stage for breast cancer",
    StageCategory.N: "A list of rules as knowledge that help predict the N stage for breast cancer",
}
QUERY_PROVENANCE = {StageCategory.T: "stated", StageCategory.N: "extrapolated"}


class RetrievalError(ValueError):
    """Bad chunking input, index construction, or query."""


@dataclass(frozen=True)
class Chunk:
    chunk_id: int
    text: str
    source_span: tuple[int, int]  # character offsets into the source document

    def __post_init__(self) -> None:
        if not self.text:
            raise RetrievalError(f"chunk {self.chunk_id} has empty text")


@dataclass(frozen=True)
class ChunkIndex:
    chunks: tuple[Chunk, ...]
    vectors: tuple[tuple[float, ...], ...]  # one L2-normalized row per chunk
    model_id: str
    doc_hash: str

    def __post_init__(self) -> None:
        """The one check of the index: chunks, none blank, one row per chunk,
        one dimension, finite values and unit norm within 1e-6."""
        if not self.chunks:
            raise RetrievalError("index is empty")
        if blank := [c.chunk_id for c in self.chunks if c.text.isspace()]:
            raise RetrievalError(f"blank chunk(s) {blank}")
        if len(self.chunks) != len(self.vectors):
            raise RetrievalError(f"{len(self.chunks)} chunks but {len(self.vectors)} vectors")
        dims = {len(row) for row in self.vectors}
        if len(dims) != 1:
            raise RetrievalError(f"vectors of inconsistent dimensions: {sorted(dims)}")
        if not all(map(math.isfinite, chain.from_iterable(self.vectors))):
            raise RetrievalError("vectors are not finite")
        if any(abs(math.hypot(*row) - 1.0) > 1e-6 for row in self.vectors):
            raise RetrievalError("vectors are not unit-norm")

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])


def hash_document(doc: str) -> str:
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# a blank line; a paragraph ends after one once it holds non-whitespace
_SEPARATOR = re.compile(r"\n(?:[ \t\r]*\n)+")
_UP_TO_LAST_SPACE = re.compile(r".*\s", re.S)


def chunk_document(doc: str, max_chars: int = 1200) -> list[Chunk]:
    """Split `doc` into chunks of at most `max_chars` characters that tile it.

    Paragraphs end after blank lines; a whitespace-only paragraph joins the
    next one, and a whitespace-only tail the last. Paragraphs are packed
    greedily until adding the next one would pass the cap; a paragraph
    longer than the cap is split after the last whitespace before the limit,
    or at the limit when there is none. Each `source_span` covers exactly its
    chunk's text.
    """
    if max_chars < 200:
        raise RetrievalError(f"max_chars must be >= 200, got {max_chars}")
    content_end = len(doc.rstrip())
    if not content_end:
        raise RetrievalError("empty document")
    chunks: list[Chunk] = []
    start = end = 0  # the open chunk is doc[start:end]
    # blank lines in the whitespace tail end no paragraph
    stops = (m.end() for m in _SEPARATOR.finditer(doc, 0, content_end))
    for stop in chain(stops, [len(doc)]):
        if doc[end:stop].isspace():  # `end` is the last paragraph's end here
            continue
        while end < stop:
            cut = stop
            if stop - end > max_chars:
                # whitespace only at the window's first character does not count
                m = _UP_TO_LAST_SPACE.match(doc, end, end + max_chars)
                cut = m.end() if m and m.end() > end + 1 else end + max_chars
            if cut - start > max_chars:
                chunks.append(Chunk(len(chunks), doc[start:end], (start, end)))
                start = end
            end = cut
    chunks.append(Chunk(len(chunks), doc[start:end], (start, end)))
    return chunks


# `LlmClient.embed`'s shape: one vector per text, and the embedding model's id
EmbedFn = Callable[[Sequence[str]], tuple[list[list[float]], str]]


def _unit(values: Sequence[float]) -> tuple[float, ...]:
    """`values` over its L2 norm. `math.hypot` neither overflows nor
    underflows in the squares; a norm past the float range is taken of the
    values over their largest magnitude, so any finite non-zero vector gives
    a unit one."""
    norm = math.hypot(*values)
    if norm == math.inf:
        top = max(map(abs, values))
        values = [v / top for v in values]
        norm = math.hypot(*values)
    return tuple(v / norm for v in values)


def build_index(chunks: Sequence[Chunk], embed_fn: EmbedFn, doc_hash: str) -> ChunkIndex:
    """Embed every chunk that holds non-whitespace, keeping its tiling id
    and span, and store L2-normalized vectors; blank chunks are left out."""
    chunks = [c for c in chunks if not c.text.isspace()]
    if not chunks:
        raise RetrievalError("cannot build an index over zero non-blank chunks")
    vectors, model_id = embed_fn([c.text for c in chunks])
    return ChunkIndex(
        chunks=tuple(chunks),
        vectors=tuple(map(_unit, vectors)),
        model_id=model_id,
        doc_hash=doc_hash,
    )


def top_k(
    index: ChunkIndex, text: str, k: int, embed_fn: EmbedFn
) -> list[tuple[Chunk, float]]:
    """Exact cosine ranking of all chunks against the query `text`.

    Descending score; ties broken by ascending chunk_id; the best
    `min(k, len(index))` chunks. A blank `text` or a `k` below 1 fails before
    the embed call. The query must be embedded by the model that built the
    index.
    """
    if not text.strip():
        raise RetrievalError("query text must be non-empty")
    if k < 1:
        raise RetrievalError(f"k must be positive, got {k}")
    (embedded,), model_id = embed_fn([text])
    if len(embedded) != index.dim:
        raise RetrievalError(
            f"query embedding has dimension {len(embedded)}, the index {index.dim}"
        )
    if model_id != index.model_id:
        raise RetrievalError(
            f"query embedded by model {model_id!r}, the index by {index.model_id!r}"
        )
    q = _unit(embedded)
    scores = [sum(map(operator.mul, row, q)) for row in index.vectors]
    order = sorted(range(len(index)), key=lambda i: (-scores[i], index.chunks[i].chunk_id))
    return [(index.chunks[i], scores[i]) for i in order[:k]]


def save_index(index: ChunkIndex, path: str | Path) -> None:
    write_json(path, {
        "chunks": [
            {"chunk_id": c.chunk_id, "source_span": list(c.source_span), "text": c.text}
            for c in index.chunks
        ],
        "doc_hash": index.doc_hash,
        "model_id": index.model_id,
        "vectors": [list(row) for row in index.vectors],
    })


def load_index(path: str | Path) -> ChunkIndex:
    """Reads a `save_index` file; each field must hold the JSON type that
    `save_index` writes, the vectors a list of lists of JSON numbers, which
    `ChunkIndex` then checks."""
    obj = read_json(path, RetrievalError)
    try:
        chunks = []
        for c in typed(obj["chunks"], list, "chunks"):
            start, end = typed(c["source_span"], list, "source_span")
            chunks.append(Chunk(
                chunk_id=typed(c["chunk_id"], int, "chunk_id"),
                text=typed(c["text"], str, "text"),
                source_span=(typed(start, int, "source_span"), typed(end, int, "source_span")),
            ))
        rows = typed(obj["vectors"], list, "vectors")
        if not all(type(row) is list for row in rows):
            raise TypeError("vectors must be a 2-D list of lists")
        # a bool is not a number here
        if not all(type(x) in (int, float) for x in chain.from_iterable(rows)):
            raise TypeError("vectors must hold JSON numbers")
        return ChunkIndex(
            chunks=tuple(chunks),
            vectors=tuple(tuple(map(float, row)) for row in rows),
            model_id=typed(obj["model_id"], str, "model_id"),
            doc_hash=typed(obj["doc_hash"], str, "doc_hash"),
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        # ValueError covers spans of another length and the index's own
        # checks (a RetrievalError); OverflowError an int past the float range
        raise RetrievalError(f"malformed index file {path}: {exc}")
