"""Guideline chunking, embedding, and exact top-k cosine retrieval.

The guideline corpus is small, so retrieval is exact: every chunk vector is
compared against the query. Chunking splits on blank-line paragraph
boundaries and packs paragraphs greedily up to a size cap; the non-overlap
spans of consecutive chunks tile the document exactly.
"""

from __future__ import annotations

import hashlib
import logging
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .corpus import StageCategory, read_json, typed, write_json

log = logging.getLogger(__name__)

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
class RetrievalQuery:
    text: str
    k: int = 5

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise RetrievalError("query text must be non-empty")
        if self.k < 1:
            raise RetrievalError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class ChunkIndex:
    chunks: tuple[Chunk, ...]
    vectors: tuple[tuple[float, ...], ...]  # one L2-normalized row per chunk
    model_id: str
    doc_hash: str

    def __post_init__(self) -> None:
        """The one check of the vectors: one row per chunk, one dimension,
        finite values and unit norm within 1e-6."""
        if not self.chunks:
            raise RetrievalError("index is empty")
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


def _paragraph_spans(doc: str) -> list[tuple[int, int]]:
    """Disjoint covering spans, one per paragraph with its trailing separator.

    Whitespace-only spans are merged into a neighbor so every piece carries
    content.
    """
    bounds = [0]
    for m in re.finditer(r"\n(?:[ \t\r]*\n)+", doc):
        bounds.append(m.end())
    if bounds[-1] != len(doc):
        bounds.append(len(doc))
    spans = [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]
    merged: list[tuple[int, int]] = []
    for span in spans:
        if merged and not doc[merged[-1][0] : merged[-1][1]].strip():
            merged[-1] = (merged[-1][0], span[1])  # blank piece joins the next
        else:
            merged.append(span)
    if len(merged) > 1 and not doc[merged[-1][0] : merged[-1][1]].strip():
        tail = merged.pop()
        merged[-1] = (merged[-1][0], tail[1])
    return merged


def _split_long(doc: str, span: tuple[int, int], max_chars: int) -> list[tuple[int, int]]:
    """Split one over-long span at the last whitespace before each limit."""
    out = []
    start, end = span
    while end - start > max_chars:
        window = doc[start : start + max_chars]
        cut = -1
        for m in re.finditer(r"\s", window):
            cut = m.start()
        if cut <= 0:
            cut = max_chars - 1  # no whitespace: hard split
        out.append((start, start + cut + 1))
        start = start + cut + 1
    if end > start:
        out.append((start, end))
    return out


def chunk_document(
    doc: str, max_chars: int = 1200, overlap_chars: int = 0
) -> list[Chunk]:
    """Split `doc` into chunks of at most `max_chars` (non-overlap) characters.

    Paragraphs (blank-line delimited) are merged greedily until adding the
    next one would exceed the cap; a single paragraph longer than the cap is
    split at the last whitespace before the limit. With ``overlap_chars > 0``
    each chunk is prefixed with that much of the preceding chunk's text, and
    `source_span` covers exactly the chunk's text.
    """
    if max_chars < 200:
        raise RetrievalError(f"max_chars must be >= 200, got {max_chars}")
    if not 0 <= overlap_chars < max_chars:
        raise RetrievalError(
            f"overlap_chars must be in [0, max_chars), got {overlap_chars}"
        )
    if not doc.strip():
        raise RetrievalError("empty document")
    pieces: list[tuple[int, int]] = []
    for span in _paragraph_spans(doc):
        pieces.extend(_split_long(doc, span, max_chars))
    # greedy packing over the disjoint cover
    packed: list[tuple[int, int]] = []
    cur_start, cur_end = pieces[0]
    for start, end in pieces[1:]:
        if end - cur_start > max_chars:
            packed.append((cur_start, cur_end))
            cur_start, cur_end = start, end
        else:
            cur_end = end
    packed.append((cur_start, cur_end))
    chunks = []
    for i, (start, end) in enumerate(packed):
        if i > 0 and overlap_chars:
            prev_start = packed[i - 1][0]
            start = max(prev_start, start - overlap_chars)
        chunks.append(Chunk(chunk_id=i, text=doc[start:end], source_span=(start, end)))
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
    """Embed every chunk and store L2-normalized vectors."""
    if not chunks:
        raise RetrievalError("cannot build an index over zero chunks")
    vectors, model_id = embed_fn([c.text for c in chunks])
    return ChunkIndex(
        chunks=tuple(chunks),
        vectors=tuple(map(_unit, vectors)),
        model_id=model_id,
        doc_hash=doc_hash,
    )


def top_k(
    index: ChunkIndex, query: RetrievalQuery, embed_fn: EmbedFn
) -> list[tuple[Chunk, float]]:
    """Exact cosine ranking of all chunks against the query.

    Descending score; ties broken by ascending chunk_id; k clamped to the
    index size with a warning. The query must be embedded by the model that
    built the index.
    """
    k = query.k
    if k > len(index):
        log.warning("k=%d exceeds index size %d; clamping", k, len(index))
        k = len(index)
    (embedded,), model_id = embed_fn([query.text])
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
