from __future__ import annotations

import json

import pytest

from stagepipe.corpus import Corpus, Report, StageCategory, StageLabel
from stagepipe.llm import LlmClient, ScriptedBackend


def make_report(rid: str, t: str | None = None, n: str | None = None, text: str | None = None) -> Report:
    gold = {}
    if t:
        gold[StageCategory.T] = StageLabel.parse(t)
    if n:
        gold[StageCategory.N] = StageLabel.parse(n)
    return Report(id=rid, text=text or f"pathology report body for {rid}", gold=gold)


@pytest.fixture
def tiny_corpus() -> Corpus:
    """Six reports, all with both gold labels."""
    reports = (
        make_report("r01", t="T1", n="N0"),
        make_report("r02", t="T2", n="N1"),
        make_report("r03", t="T1", n="N0"),
        make_report("r04", t="T3", n="N2"),
        make_report("r05", t="T2", n="N1"),
        make_report("r06", t="T4", n="N3"),
    )
    return Corpus(reports, source="fixture")


def write_corpus_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def chat_entry(body: dict, template: str | None = None, index: int | None = None) -> dict:
    key = {"template": template, "index": index} if template else None
    return {"key": key, "kind": "chat", "body": body}


def staging_body(stage: str, reasoning: str = "because") -> dict:
    return {"reasoning": reasoning, "stage": stage}


def rules_body(stage: str, rules: list[str], reasoning: str = "because") -> dict:
    return {"reasoning": reasoning, "stage": stage, "rules": rules}


def scripted_client(entries: list[dict]) -> tuple[LlmClient, ScriptedBackend]:
    backend = ScriptedBackend.from_entries(entries)
    return LlmClient(chat_backend=backend, embed_backend=backend), backend


class JsonResponse:
    """Stands in for a `requests.Response` carrying `body` as JSON."""

    def __init__(self, body, status_code: int = 200, headers: dict | None = None):
        self.body = body
        self.status_code = status_code
        self.headers = headers or {}
        self.text = json.dumps(body)

    def json(self):
        return self.body


NULL_CONTENT_REPLY = {"choices": [{"message": {"role": "assistant", "content": None}}]}
