"""The benchmark's synthetic model answers by content alone, and its spans
arithmetic holds under overlap."""

from __future__ import annotations

import json
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

from spans import Span, _max_overlap, _self_times
from synthetic_model import CORRECTIVE_MARKER, ModelSpec, SyntheticModel
from workloads import CORPUS, WORKLOADS, write_inputs

from stagepipe.corpus import StageCategory, load_corpus
from stagepipe.llm import LlmClient, parse_structured
from stagepipe.memory import gated_update, render_numbered, serialize
from stagepipe.prompts import default_templates, render

T = StageCategory.T
SPEC = ModelSpec(seed=7, chat_latency_ms=20.0, embed_latency_ms=5.0, rules_chars=400)


REGISTRY = default_templates(T)


def _corrective(req):
    """The request as the client re-asks it; always answered validly."""
    return replace(req, user=req.user + CORRECTIVE_MARKER + " bad stage.")


def _rules(model: SyntheticModel, req) -> list[str]:
    return json.loads(model.reply(_corrective(req))[0])["rules"]


def _reports(tmp_path: Path) -> list:
    write_inputs(WORKLOADS["sweep-latency"], 7, tmp_path)
    return list(load_corpus(tmp_path / CORPUS))


def _requests(tmp_path: Path) -> list:
    reports = _reports(tmp_path)
    elicit = render(REGISTRY.get("ltm_elicit"), {"report": reports[0].text})
    memory = render_numbered(_rules(SyntheticModel(SPEC), elicit))
    requests = []
    for r in reports:
        requests.append(render(REGISTRY.get("ltm_update"), {"report": r.text, "memory": memory}))
        requests.append(render(REGISTRY.get("ltm_inference"), {"report": r.text, "memory": memory}))
        requests.append(render(REGISTRY.get("zscot_inference"), {"report": r.text}))
    return requests


def _issue(requests: list, threads: int) -> tuple[dict, object]:
    """Replies and injected latency per request from a fresh model, issued
    from `threads` threads, and the model's counters."""
    local = threading.local()
    model = SyntheticModel(SPEC, sleep=lambda s: local.slept.append(s))
    results: dict = {}
    lock = threading.Lock()

    def worker(batch):
        local.slept = []
        for req in batch:
            text = model.complete(req)
            embedded = model.embed([req.user[:200], req.user[-200:]])
            with lock:
                results[(req.template_id, req.user)] = (text, local.slept[-2], embedded, local.slept[-1])

    pool = [threading.Thread(target=worker, args=(requests[i::threads],)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return results, model.counters


def test_replies_and_latency_ignore_call_order_and_thread(tmp_path):
    requests = _requests(tmp_path)
    in_order, _ = _issue(requests, threads=1)
    shuffled = list(requests)
    random.Random(3).shuffle(shuffled)
    concurrent, counters = _issue(shuffled, threads=4)
    assert len(in_order) == len(requests)
    assert concurrent == in_order
    assert counters.chat_calls == counters.embed_calls == len(requests)
    latencies = [v[1] for v in in_order.values()]
    assert len(set(latencies)) > len(latencies) // 2  # latency varies by content
    assert 0.010 < sorted(latencies)[len(latencies) // 2] < 0.030


def test_some_replies_need_the_prose_fallback_or_one_reask(tmp_path):
    requests = _requests(tmp_path)
    model = SyntheticModel(SPEC, sleep=lambda s: None)
    prose = invalid = 0
    for req in requests:
        text, bad = model.reply(req)
        invalid += bad
        try:
            json.loads(text)
        except json.JSONDecodeError:
            prose += 1
            parse_structured(text, req.schema)  # the fallback finds the object
    assert 0 < prose < len(requests) // 8
    assert 0 < invalid < len(requests) // 8
    client = LlmClient(chat_backend=model)
    for req in requests:
        client.chat(req)  # never exhausts the re-ask budget
    c = model.counters
    assert c.invalid_replies == c.corrective_requests == invalid
    assert c.chat_calls == len(requests) + invalid
    for req in requests:
        text, bad = model.reply(_corrective(req))
        assert not bad
        json.loads(text)


def test_updates_keep_length_and_the_gate_both_accepts_and_rejects(tmp_path):
    model = SyntheticModel(SPEC)
    current = None
    outcomes = set()
    for step, report in enumerate(_reports(tmp_path), 1):
        if current is None:
            req = render(REGISTRY.get("ltm_elicit"), {"report": report.text})
        else:
            req = render(REGISTRY.get("ltm_update"),
                         {"report": report.text, "memory": render_numbered(current)})
        rules = _rules(model, req)
        assert len("\n".join(rules)) == SPEC.rules_chars
        current, trace = gated_update(current, rules, 80.0, step, category=T)
        if step > 1:
            outcomes.add(trace.accepted)
    assert outcomes == {True, False}
    assert len(serialize(current)) == SPEC.rules_chars


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("child", 3.0, 6.0, parent=0),  # overlaps the first, as threads do
        Span("child", 8.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert _self_times(spans)[0] == 10.0 - 5.0 - 2.0
    assert _max_overlap(spans[1:]) == 2
