"""The four staging workflows, from reports and a client to prediction records.

The workflows differ only in what goes beside each report in its prompt:
`METHODS` states it once per method, and `infer` is the inference step of
all four. zscot adds nothing, rag retrieved guideline chunks (`run_rag`),
kewltm the rule memory that `induce_ltm` builds by gated iterative
induction, and kewrag the rules that `elicit_kewrag_rules` synthesizes once
from retrieved chunks. Each induction is a strictly sequential chain, since
every step reads the memory the previous one left; the caller may run the
chains of independent (point, split) cycles concurrently. Every inference
of a run puts its reports on the run's one executor (`Run`), `max_in_flight`
threads wide, or `max_in_flight_total` in report-text RAG, where each report
embeds its query before its chat call, so that one report's embed runs while
others' chats hold the chat slots. No thread that waits on the executor runs
reports on it, so a kewltm run holds at most 1 + 2 x `max_in_flight` threads
and cannot deadlock. The client bounds each endpoint's calls and decides
which waiting call runs next. Records are sorted by report id so output
bytes never depend on scheduling.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .corpus import Report, StageCategory, StageLabel
from .llm import LlmClient, SchemaViolationError
from .memory import RuleMemory, UpdateTrace, gated_update, render_numbered
from .prompts import default_templates, render
from .retrieval import DEFAULT_QUERIES, ChunkIndex, top_k


@dataclass(frozen=True)
class Method:
    """What one workflow's inference needs: its template, and whether its
    records carry retrieved chunk ids and a rule memory's version."""

    template_id: str
    carries_chunks: bool
    carries_memory: bool


METHODS = {
    "zscot": Method("zscot_inference", carries_chunks=False, carries_memory=False),
    "rag": Method("rawrag_inference", carries_chunks=True, carries_memory=False),
    "kewltm": Method("ltm_inference", carries_chunks=False, carries_memory=True),
    "kewrag": Method("rag_inference", carries_chunks=True, carries_memory=True),
}
CHUNK_SEPARATOR = "\n---\n"
RAG_QUERY_MODES = ("guideline", "report-text")


class PipelineError(RuntimeError):
    """A workflow could not run (bad configuration or terminal step failure)."""


class Run(AbstractContextManager):
    """The tasks of one run: the executor of all its reports, `width` wide
    and shut down when the run's `with` block ends, and its first failure.

    Once a task has recorded a failure, `check()` raises that very error in
    every task that calls it, so no task of the run starts another step, and
    every caller waiting on the run's tasks raises the same first error.
    """

    def __init__(self, width: int) -> None:
        self._lock = threading.Lock()
        self.error: BaseException | None = None
        self.reports = ThreadPoolExecutor(max_workers=width)

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = exc

    def check(self) -> None:
        if self.error is not None:
            raise self.error

    def __exit__(self, *exc_info) -> None:
        self.reports.shutdown(cancel_futures=True)


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def run_bounded(
    task: Callable[[_Item], _Result],
    items: Sequence[_Item],
    pool: Executor,
    run: Run,
) -> list[_Result]:
    """`task(item)` for every item, on `pool`; results in item order.

    The first task to raise records its error in `run`, and so does an
    exception that ends this call's wait, an interrupt included, before it
    propagates. An item that finds `run` failed, by this call or by any other
    of the run, does not start; the tasks in flight finish, and the first
    error is raised.
    """

    def guarded(item: _Item) -> _Result | None:
        if run.error is not None:
            return None
        try:
            return task(item)
        except Exception as exc:  # terminal: raised below, once the items are done
            run.fail(exc)
            return None

    try:
        futures = [pool.submit(guarded, item) for item in items]
        results = [f.result() for f in futures]
    except BaseException as exc:  # so the run's queued and chained tasks stop
        run.fail(exc)
        raise
    run.check()
    return results


@dataclass(frozen=True)
class PredictionRecord:
    """One model prediction for one report under one method."""

    report_id: str
    category: StageCategory
    predicted: StageLabel | None  # None means unparseable
    reasoning: str
    method: str
    memory_version: int | None = None
    retrieved_chunk_ids: tuple[int, ...] | None = None
    timing_ms: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise PipelineError(f"unknown method {self.method!r}")
        for field, carries in (("memory_version", "carries_memory"),
                               ("retrieved_chunk_ids", "carries_chunks")):
            carriers = [name for name, row in METHODS.items() if getattr(row, carries)]
            if (getattr(self, field) is not None) != (self.method in carriers):
                raise PipelineError(
                    f"{field} must be present iff method is {'/'.join(carriers)} "
                    f"(method={self.method})"
                )
        if self.predicted is not None and self.predicted.category is not self.category:
            raise PipelineError(
                f"predicted label {self.predicted.render()} does not match "
                f"category {self.category.value}"
            )


@dataclass(frozen=True)
class InductionResult:
    """Outcome of the memory-induction phase over one ordered train stream."""

    final_memory: RuleMemory | None
    traces: tuple[UpdateTrace, ...]


@dataclass(frozen=True)
class ElicitedRules:
    """One-shot rule synthesis output plus the chunk ids it was built from."""

    memory: RuleMemory
    chunk_ids: tuple[int, ...]


def record_to_json(record: PredictionRecord, **extra) -> dict:
    obj: dict = {
        "report_id": record.report_id,
        "category": record.category.value,
        "predicted": record.predicted.render() if record.predicted else "unparseable",
        "reasoning": record.reasoning,
        "method": record.method,
        "timing_ms": record.timing_ms,
    }
    if record.memory_version is not None:
        obj["memory_version"] = record.memory_version
    if record.retrieved_chunk_ids is not None:
        obj["retrieved_chunk_ids"] = list(record.retrieved_chunk_ids)
    obj.update(extra)
    return obj


# the JSON types of each field a record line may hold (bool is not an int here)
_RECORD_TYPES = {
    "report_id": (str,), "category": (str,), "predicted": (str,), "reasoning": (str,),
    "method": (str,), "memory_version": (int, type(None)), "timing_ms": (int,),
    "retrieved_chunk_ids": (list, type(None)),
}


def record_from_json(obj) -> PredictionRecord:
    """The record of one `record_to_json` object. PipelineError when `obj` is
    not an object or a field holds the wrong JSON type; a missing field is a
    KeyError and an unknown category or label a ValueError."""
    if not isinstance(obj, dict):
        raise PipelineError(f"a record must be a JSON object, got {obj!r}")
    for key, kinds in _RECORD_TYPES.items():
        if key in obj and type(obj[key]) not in kinds:
            raise PipelineError(f"record field {key} has the wrong type: {obj[key]!r}")
    chunk_ids = obj.get("retrieved_chunk_ids")
    if chunk_ids is not None and any(type(c) is not int for c in chunk_ids):
        raise PipelineError(f"retrieved_chunk_ids must hold integers, got {chunk_ids!r}")
    category = StageCategory(obj["category"])
    predicted_raw = obj["predicted"]
    predicted = (
        None if predicted_raw == "unparseable" else StageLabel.parse(predicted_raw, category)
    )
    return PredictionRecord(
        report_id=obj["report_id"],
        category=category,
        predicted=predicted,
        reasoning=obj.get("reasoning", ""),
        method=obj["method"],
        memory_version=obj.get("memory_version"),
        retrieved_chunk_ids=tuple(chunk_ids) if chunk_ids is not None else None,
        timing_ms=obj.get("timing_ms", 0),
    )


def infer(
    method: str,
    reports: Sequence[Report],
    category: StageCategory,
    client: LlmClient,
    context: Callable[[Report], tuple[str, tuple[int, ...]]] | None = None,
    *,
    rules: RuleMemory | None = None,
    chunk_ids: Sequence[int] = (),
    run: Run | None = None,
) -> list[PredictionRecord]:
    """The inference step of every method: one chat call per report.

    The placeholder of `method`'s template other than ``report``, if it has
    one, takes `rules` rendered numbered (kewltm, kewrag) or the text that
    `context(report)` returns, with the chunk ids the record carries (rag);
    `context` is called just before the report's chat call. rag without a
    `context`, like kewltm and kewrag without rules, fails before any call.
    kewrag records carry `chunk_ids`, the chunks its rules came from. A
    report whose output stays unparseable is recorded as such and the batch
    goes on. The reports run on `run`'s executor (without a run, on a run of
    their own); the client decides which waiting call runs next. Any other
    failure is terminal: it is recorded in `run`, no report starts after it,
    the reports in flight finish, and the first failure is raised. Records
    are sorted by report id.
    """
    row = METHODS[method]
    if row.carries_memory and rules is None:
        raise PipelineError(f"cannot run {method} inference without rules")
    if not reports:
        raise PipelineError("no reports to run")
    template = default_templates(category)[row.template_id]
    slots = template.placeholders - {"report"}
    if context is None:
        if "chunks" in slots:
            raise PipelineError(f"cannot run {method} inference without a context")
        fixed = (render_numbered(rules) if row.carries_memory else "",
                 tuple(chunk_ids) if row.carries_chunks else None)
        context = lambda report: fixed

    def one(report: Report) -> PredictionRecord:
        text, ids = context(report)
        request = render(template, {"report": report.text, **dict.fromkeys(slots, text)})
        start = time.perf_counter()
        try:
            out = client.chat(request)
            predicted, reasoning = out.stage, out.reasoning or ""
        except SchemaViolationError:
            predicted, reasoning = None, ""
        return PredictionRecord(
            report_id=report.id,
            category=category,
            predicted=predicted,
            reasoning=reasoning,
            method=method,
            memory_version=rules.version if row.carries_memory else None,
            retrieved_chunk_ids=ids,
            # scripted runs report 0 ms, so their outputs are byte-stable
            timing_ms=0 if client.deterministic else int((time.perf_counter() - start) * 1000),
        )

    with nullcontext(run) if run is not None else Run(client.max_in_flight) as run:
        records = run_bounded(one, reports, run.reports, run)
    return sorted(records, key=lambda rec: rec.report_id)


def _retrieve(
    index: ChunkIndex, text: str, k: int, client: LlmClient
) -> tuple[str, tuple[int, ...]]:
    """Top-k chunks for `text`: their texts joined in rank order, and their ids."""
    hits = top_k(index, text, k, client.embed)
    return (
        CHUNK_SEPARATOR.join(c.text for c, _ in hits),
        tuple(c.chunk_id for c, _ in hits),
    )


def run_rag(
    reports: Sequence[Report],
    category: StageCategory,
    client: LlmClient,
    index: ChunkIndex,
    *,
    k: int,
    rag_query_mode: str = "guideline",
) -> list[PredictionRecord]:
    """Raw-context inference: the top `k` chunks concatenated into each prompt.

    In the default ``guideline`` mode the query is the category's
    `DEFAULT_QUERIES` entry and retrieval happens once per run;
    ``report-text`` mode retrieves per report, just before its chat call,
    using the report text as the query, on a run whose executor is
    `client.max_in_flight_total` wide, so that the embed and chat endpoints
    are both kept busy.
    """
    if rag_query_mode not in RAG_QUERY_MODES:
        raise PipelineError(f"unknown rag_query_mode {rag_query_mode!r}")
    if not reports:  # before the shared retrieval spends an embed call
        raise PipelineError("no reports to run")
    if rag_query_mode == "guideline":
        shared = _retrieve(index, DEFAULT_QUERIES[category], k, client)
        return infer("rag", reports, category, client, lambda report: shared)
    with Run(client.max_in_flight_total) as run:
        return infer(
            "rag", reports, category, client,
            lambda report: _retrieve(index, report.text, k, client),
            run=run,
        )


def induce_ltm(
    train_reports: Sequence[Report],
    category: StageCategory,
    client: LlmClient,
    threshold: float = 80.0,
    *,
    run: Run | None = None,
) -> InductionResult:
    """Iteratively induce the rule memory over `train_reports`, in order.

    While the memory is empty the elicitation template runs and its candidate
    is accepted unconditionally; afterwards each report runs the update
    template with the current memory bound in, gated by the similarity
    threshold. Every step goes through `gated_update` once and leaves one
    trace row; a step whose output stays unparseable passes no candidate, so
    the memory is unchanged and the row records a rejection at similarity 0.
    The stage each step predicts is not used. Once `run` holds a failure (of
    this or a concurrent task) no further step starts and that failure is
    raised.
    """
    templates = default_templates(category)
    memory: RuleMemory | None = None
    traces: list[UpdateTrace] = []
    for step, report in enumerate(train_reports, 1):
        if run is not None:
            run.check()
        if memory is None:
            request = render(templates["ltm_elicit"], {"report": report.text})
        else:
            request = render(
                templates["ltm_update"],
                {"report": report.text, "memory": render_numbered(memory)},
            )
        try:
            rules = client.chat(request).rules
        except SchemaViolationError:
            rules = None
        memory, trace = gated_update(memory, rules, threshold, step, category=category)
        traces.append(trace)
    return InductionResult(final_memory=memory, traces=tuple(traces))


def run_kewltm_inference(
    test_reports: Sequence[Report],
    category: StageCategory,
    memory: RuleMemory,
    client: LlmClient,
    *,
    run: Run | None = None,
) -> list[PredictionRecord]:
    """Memory-guided inference with the frozen induced rule list: `infer`
    for kewltm. It keeps a name of its own because the benchmark's tracer
    (`perfbench/spans.py`) wraps it by that name to time each cycle's
    inference."""
    return infer("kewltm", test_reports, category, client, rules=memory, run=run)


def elicit_kewrag_rules(
    index: ChunkIndex, category: StageCategory, client: LlmClient, *, k: int
) -> ElicitedRules:
    """Retrieve the top `k` chunks for the category's `DEFAULT_QUERIES` entry
    once and synthesize them into a frozen rule set.

    Single pass, no iteration; an unparseable synthesis is terminal for the
    run.
    """
    context, chunk_ids = _retrieve(index, DEFAULT_QUERIES[category], k, client)
    request = render(default_templates(category)["rag_elicit"], {"chunks": context})
    try:
        out = client.chat(request)
    except SchemaViolationError as exc:
        raise PipelineError(f"rule synthesis failed: {exc}")
    return ElicitedRules(memory=RuleMemory(category, out.rules, 1), chunk_ids=chunk_ids)
