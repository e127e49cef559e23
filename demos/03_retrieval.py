"""
Chunking a guideline and exact top-k retrieval
==============================================

Splits a small staging-guideline document into chunks, embeds them with the
deterministic hash embedder from a scripted backend (no model required), and
runs exact cosine retrieval. Every chunk is scored; nothing approximate.
"""

from stagepipe.llm import LlmClient, ScriptedBackend
from stagepipe.corpus import StageCategory
from stagepipe.retrieval import (
    DEFAULT_QUERIES,
    build_index,
    chunk_document,
    hash_document,
    top_k,
)

guideline = "\n\n".join(
    [
        "T1 tumors measure 2 cm or less in greatest dimension. "
        "Microinvasion up to 1 mm is reported as T1mi." * 3,
        "T2 tumors measure more than 2 cm but not more than 5 cm "
        "in greatest dimension." * 4,
        "T3 tumors measure more than 5 cm in greatest dimension; "
        "size alone is sufficient." * 4,
        "T4 tumors are any size with direct extension to the chest wall "
        "or skin, including ulceration or satellite nodules." * 3,
        "Nodal staging counts involved axillary lymph nodes; "
        "micrometastases have their own rules." * 4,
    ]
)

chunks = chunk_document(guideline, max_chars=400)
print(f"document of {len(guideline)} chars -> {len(chunks)} chunks")
for c in chunks:
    print(f"  chunk {c.chunk_id}: span {c.source_span}, {len(c.text)} chars")

# a scripted backend with a hash embedder: deterministic vectors per text
backend = ScriptedBackend(
    [{"kind": "embed", "body": {"hash_dim": 16}}]
)
client = LlmClient(embed_backend=backend)

index = build_index(chunks, client.embed, hash_document(guideline))
print(f"index: {len(index)} vectors of dim {index.dim}, doc {index.doc_hash[:12]}...")

# the T category's query, the one `stagepipe run` retrieves with
k = 3
hits = top_k(index, DEFAULT_QUERIES[StageCategory.T], k, client.embed)
print(f"top {k} chunks for the staging query:")
for chunk, score in hits:
    print(f"  chunk {chunk.chunk_id} (cosine {score:+.3f}): {chunk.text[:60]}...")
