"""Staging workflows for pathology reports: corpus handling, rule-memory
induction with a Levenshtein similarity gate, one-shot rule synthesis from
retrieved guideline chunks, two baselines, and the full evaluation protocol.
"""

from .corpus import (
    Corpus,
    CorpusError,
    Report,
    Split,
    StageCategory,
    StageLabel,
    label_distribution,
    load_corpus,
    make_splits,
    truncate_train,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    MacroMetrics,
    aggregate_runs,
    compare_unique_errors,
    format_error_pct,
    mcnemar_p,
    memory_curve,
    score,
)
from .llm import (
    ChatRequest,
    EmbeddingVector,
    LlmClient,
    OutputSchema,
    StructuredOutput,
    parse_structured,
    scripted_backend,
)
from .memory import (
    RuleMemory,
    UpdateTrace,
    edit_distance,
    gated_update,
    render_numbered,
    serialize,
    similarity,
)
from .pipelines import (
    ElicitedRules,
    InductionResult,
    PredictionRecord,
    elicit_kewrag_rules,
    induce_ltm,
    infer,
    run_kewltm_inference,
    run_rag,
)
from .prompts import PromptTemplate, TemplateRegistry, default_templates, load_templates, render
from .retrieval import (
    Chunk,
    ChunkIndex,
    RetrievalQuery,
    build_index,
    chunk_document,
    hash_document,
    load_index,
    save_index,
    top_k,
)

__version__ = "0.1.0"
