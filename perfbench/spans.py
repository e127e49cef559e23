"""Spans recorded from outside the program, around calls into each layer.

`install` wraps the public functions of every stagepipe module the workloads
reach. Several of them are imported by name into their callers (pipelines
imports `render`, `top_k` and `gated_update`; cli imports `load_corpus`,
`make_splits` and `truncate_train`), so a wrapper is put in every stagepipe
namespace that holds the original function, not only in the defining module.
The benchmark compares the resulting call counts with counts derived from the
workload parameters, so a call site the wrappers miss fails the run instead
of silently reading zero.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

INDUCE_TEMPLATES = ("ltm_elicit", "ltm_update")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory. A span's parent is the innermost open span of
    its thread; a span opened on a thread with none open (a worker thread)
    takes the innermost open span of the thread that created the tracer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._root = threading.get_ident()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """`fn` timed as span `name`; `attrs(args, result)` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, stack, {"error": True})
                raise
            self._close(index, stack, attrs(args, result) if attrs else {})
            return result

        return traced

    def _open(self, name: str) -> tuple[int, list[int]]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            root = self._stacks.get(self._root) or [None]
            parent = stack[-1] if stack else root[-1]
            self.spans.append(Span(name, 0.0, parent=parent))
            index = len(self.spans) - 1
            stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index, stack

    def _close(self, index: int, stack: list[int], attrs: dict) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span.end = end
            span.attrs = attrs
            stack.pop()


def replace_everywhere(original, replacement) -> int:
    """Point every stagepipe module attribute bound to `original` at
    `replacement`; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "stagepipe" and not mod_name.startswith("stagepipe."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install(tracer: Tracer, model) -> None:
    """Wrap each layer boundary the workloads cross, plus the model backend."""
    from stagepipe import corpus, evaluation, llm, memory, pipelines, prompts, retrieval

    def func(name, fn, attrs=None):
        if replace_everywhere(fn, tracer.wrap(name, fn, attrs)) == 0:
            raise RuntimeError(f"no stagepipe module binds {fn.__qualname__}")

    def method(name, cls, attr, attrs=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))

    func("corpus.load", corpus.load_corpus)
    func("corpus.splits", corpus.make_splits)
    func("corpus.splits", corpus.truncate_train)
    corpus.Corpus.by_id = property(tracer.wrap("corpus.by_id", corpus.Corpus.by_id.fget))
    func("retrieval.chunk", retrieval.chunk_document)
    func("retrieval.build_index", retrieval.build_index)
    func("retrieval.top_k", retrieval.top_k)
    func("prompts.render", prompts.render)
    func("llm.parse", llm.parse_structured)
    method("llm.chat", llm.LlmClient, "chat",
           lambda args, result: {"template": args[1].template_id})
    method("llm.embed", llm.LlmClient, "embed",
           lambda args, result: {"texts": len(args[1])})
    func("memory.edit_distance", memory.edit_distance,
         lambda args, result: {"cells": len(args[0]) * len(args[1])})
    func("memory.gated_update", memory.gated_update,
         lambda args, result: {"gated": args[0] is not None,
                               "accepted": result[1].accepted})
    func("pipelines.induce", pipelines.induce_ltm)
    func("pipelines.infer", pipelines.run_rag)
    func("pipelines.infer", pipelines.run_kewltm_inference)
    func("evaluation.score", evaluation.score)
    model.complete = tracer.wrap("llm.backend.chat", model.complete)
    model.embed = tracer.wrap("llm.backend.embed", model.embed)


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _max_overlap(spans: list[Span]) -> int:
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and the call count of every span name."""
    self_times = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name):
        return sum((s.end - s.start for s in pick(name)), 0.0)

    def self_total(name):
        return sum((self_times[i] for i in by_name.get(name, ())), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    gated = [s for s in pick("memory.gated_update") if s.attrs.get("gated")]
    chat = pick("llm.chat")
    backend = pick("llm.backend.chat") + pick("llm.backend.embed")
    completions = len(pick("llm.backend.chat"))
    parses = pick("llm.parse")
    latencies_ms = [(s.end - s.start) * 1000 for s in chat]
    metrics = {
        "memory.edit_distance_calls": len(pick("memory.edit_distance")),
        "memory.edit_distance_s": total("memory.edit_distance"),
        "memory.edit_distance_cells": sum(s.attrs.get("cells", 0) for s in pick("memory.edit_distance")),
        "memory.gated_update_calls": len(pick("memory.gated_update")),
        "memory.gated_update_s": total("memory.gated_update"),
        "memory.gate_accept_ratio": ratio(sum(s.attrs["accepted"] for s in gated), len(gated)),
        "llm.chat_calls": len(chat),
        "llm.induce_chat_calls": sum(s.attrs.get("template") in INDUCE_TEMPLATES for s in chat),
        "llm.chat_s": total("llm.chat"),
        "llm.chat_latency_p50_ms": _percentile(latencies_ms, 0.5),
        "llm.chat_latency_p99_ms": _percentile(latencies_ms, 0.99),
        "llm.backend_wait_s": total("llm.backend.chat") + total("llm.backend.embed"),
        "llm.in_flight_max": _max_overlap(backend),
        "llm.reasks": completions - len(chat),
        "llm.parse_s": total("llm.parse"),
        "llm.parse_ok_ratio": ratio(sum(not s.attrs.get("error") for s in parses), completions),
        "llm.embed_calls": len(pick("llm.embed")),
        "llm.embed_texts": sum(s.attrs.get("texts", 0) for s in pick("llm.embed")),
        "llm.embed_s": total("llm.embed"),
        "retrieval.chunk_s": total("retrieval.chunk"),
        "retrieval.build_index_s": total("retrieval.build_index"),
        "retrieval.top_k_calls": len(pick("retrieval.top_k")),
        "retrieval.top_k_s": total("retrieval.top_k"),
        "prompts.render_calls": len(pick("prompts.render")),
        "prompts.render_s": total("prompts.render"),
        "pipelines.induce_calls": len(pick("pipelines.induce")),
        "pipelines.induce_s": total("pipelines.induce"),
        "pipelines.induce_self_s": self_total("pipelines.induce"),
        "pipelines.infer_calls": len(pick("pipelines.infer")),
        "pipelines.infer_s": total("pipelines.infer"),
        "pipelines.infer_self_s": self_total("pipelines.infer"),
        "corpus.load_s": total("corpus.load"),
        "corpus.splits_s": total("corpus.splits"),
        "corpus.by_id_builds": len(pick("corpus.by_id")),
        "evaluation.score_calls": len(pick("evaluation.score")),
        "evaluation.score_s": total("evaluation.score"),
        "cli.self_s": self_total("cli.main"),
    }
    counts = {name: len(indices) for name, indices in by_name.items()}
    return metrics, counts
