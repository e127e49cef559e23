"""
All four workflows against a scripted backend
=============================================

Runs the two baselines and the two rule-elicitation workflows end to end
without any model: a scripted backend replays canned responses, so the whole
demonstration is offline and bit-reproducible. The script bodies carry
reasoning, a stage, and rules, which satisfies every schema the templates
use. Every workflow renders the one template set of its category
(`stagepipe.prompts.default_templates`), so no call takes prompts of its
own, and retrieval uses the category's query (`DEFAULT_QUERIES` in
`stagepipe.retrieval`), as `stagepipe run` does.
"""

from stagepipe.corpus import Corpus, Report, StageCategory, StageLabel
from stagepipe.llm import LlmClient, ScriptedBackend
from stagepipe.pipelines import (
    elicit_kewrag_rules,
    induce_ltm,
    infer,
    run_kewltm_inference,
    run_rag,
)
from stagepipe.retrieval import build_index, chunk_document, hash_document

T = StageCategory.T

reports = [
    Report(f"case{i}", f"Report {i}: invasive carcinoma, {size} cm, margins clear.",
           {T: StageLabel.parse(lab)})
    for i, (size, lab) in enumerate(
        [(1.5, "T1"), (3.0, "T2"), (6.2, "T3"), (1.1, "T1"), (2.8, "T2")]
    )
]
corpus = Corpus(tuple(reports))

guideline = "\n\n".join(
    [
        "T1: two centimeters or less in greatest dimension." * 6,
        "T2: more than two but not more than five centimeters." * 6,
        "T3: more than five centimeters; size alone suffices." * 6,
        "T4: any size with chest wall or skin involvement." * 6,
    ]
)


def scripted(n_inference: int, stages: list[str]) -> tuple[LlmClient, ScriptedBackend]:
    entries = [{"kind": "embed", "body": {"hash_dim": 12}}]
    entries += [
        {
            "kind": "chat",
            "body": {
                "reasoning": f"scripted reasoning {i}",
                "stage": stages[i % len(stages)],
                "rules": ["under 2 cm is T1", "2 to 5 cm is T2", "over 5 cm is T3"],
            },
        }
        for i in range(n_inference)
    ]
    backend = ScriptedBackend(entries)
    return LlmClient(chat_backend=backend, embed_backend=backend), backend


# --- baseline 1: plain step-by-step inference ---------------------------------
client, backend = scripted(5, ["T1", "T2", "T3", "T1", "T2"])
records = infer("zscot", reports, T, client)
print(f"zscot: {len(records)} records, {backend.chat_calls} chat calls")

# --- baseline 2: raw retrieved chunks in every prompt --------------------------
client, backend = scripted(5, ["T1", "T2", "T3", "T1", "T2"])
chunks = chunk_document(guideline, max_chars=400)
index = build_index(chunks, client.embed, hash_document(guideline))
records = run_rag(reports, T, client, index, k=3)
print(
    f"rag:   {len(records)} records, every one citing chunks "
    f"{records[0].retrieved_chunk_ids}"
)

# --- workflow 1: iterative induction, then frozen-memory inference ------------
client, backend = scripted(8, ["T1", "T2"])
induction = induce_ltm(reports[:3], T, client, threshold=80.0)
print(
    f"kewltm: induced memory v{induction.final_memory.version} "
    f"({len(induction.final_memory.rules)} rules) over {len(induction.traces)} reports; "
    f"acceptance pattern {[t.accepted for t in induction.traces]}"
)
records = run_kewltm_inference(reports[3:], T, induction.final_memory, client)
print(f"kewltm: {len(records)} inference records, all at memory version "
      f"{records[0].memory_version}")

# --- workflow 2: one-shot synthesis from retrieval, then rule-guided inference -
client, backend = scripted(6, ["T1", "T2", "T3"])
index = build_index(chunk_document(guideline, max_chars=400), client.embed,
                    hash_document(guideline))
elicited = elicit_kewrag_rules(index, T, client, k=3)
print(f"kewrag: synthesized {len(elicited.memory.rules)} rules from chunks "
      f"{elicited.chunk_ids} in a single pass")
before = backend.embed_calls
records = infer("kewrag", reports, T, client,
                rules=elicited.memory, chunk_ids=elicited.chunk_ids)
print(
    f"kewrag: {len(records)} inference records with zero retrieval calls "
    f"(embed calls during inference: {backend.embed_calls - before})"
)
