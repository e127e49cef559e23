from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from stagepipe.corpus import Corpus, Report, StageCategory, StageLabel
from stagepipe.llm import LlmClient, ScriptedBackend, TransportError


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
    return Corpus(reports)


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


class ContentKeyedBackend:
    """A chat backend whose reply depends only on the prompt.

    Every call is recorded as (template id, report id) in start order, with
    the peak number of calls in flight. Calls wait at `barrier` when one is
    given (`*_inference` calls at `infer_barrier` instead, when that is
    given), so a test can hold a number of calls in flight together without
    relying on timing. The call for report `fail_id` raises `error`; calls
    that passed a barrier return only once `release` is set, by default once
    it has raised (only those for the reports in `hold`, when given). After
    it has raised no call waits at a barrier. The reply is a rule list with a stage, valid under every schema.
    """

    deterministic = True
    model_id = "content-keyed"

    def __init__(
        self, barrier=None, fail_id=None, *, infer_barrier=None, release=None, hold=None
    ):
        self.barrier = barrier
        self.infer_barrier = infer_barrier
        self.fail_id = fail_id
        self.error = TransportError(f"{fail_id} rejected", retryable=False)
        self.raised = threading.Event()
        self.release = release or self.raised
        self.hold = hold
        self.calls: list[tuple[str, str]] = []
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    @property
    def started(self) -> list[str]:
        return [report_id for _, report_id in self.calls]

    def complete(self, request):
        report_id = re.search(r"pathology report body for (\S+)", request.user).group(1)
        with self._lock:
            self.calls.append((request.template_id, report_id))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            barrier = self.barrier
            if self.infer_barrier is not None and request.template_id.endswith("_inference"):
                barrier = self.infer_barrier
            held = barrier is not None and not self.raised.is_set()
            if held:
                barrier.wait()
            if report_id == self.fail_id:
                self.raised.set()
                raise self.error
            if held and self.fail_id is not None and report_id in (self.hold or {report_id}):
                assert self.release.wait(timeout=10)
            digest = hashlib.sha256(request.user.encode()).digest()
            return json.dumps(rules_body(
                f"T{digest[0] % 4 + 1}", [f"rule {digest[1] % 3}", f"rule {report_id}"],
                reasoning=report_id,
            ))
        finally:
            with self._lock:
                self.in_flight -= 1


@dataclass(frozen=True)
class LoopbackRequest:
    path: str
    headers: Message  # case-insensitive lookups, as sent
    body: dict


class LoopbackEndpoint:
    """An OpenAI-compatible endpoint on 127.0.0.1, served from a thread.

    `/v1/chat/completions` replies, like `ContentKeyedBackend`, with a stage
    and rule list that depend only on the user message, valid under every
    schema; `/v1/embeddings` replies with one 8-dimensional vector per input
    text, derived from the text alone. Every request's path, headers and
    JSON body are recorded in arrival order.
    """

    def __init__(self):
        self.requests: list[LoopbackRequest] = []
        lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    endpoint.requests.append(LoopbackRequest(self.path, self.headers, body))
                if self.path == "/v1/chat/completions":
                    user = body["messages"][-1]["content"]
                    digest = hashlib.sha256(user.encode()).digest()
                    content = json.dumps(
                        rules_body(f"T{digest[0] % 4 + 1}", [f"rule {digest[1] % 3}"])
                    )
                    reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
                elif self.path == "/v1/embeddings":
                    reply = {"model": body["model"], "data": [
                        {"index": i,
                         "embedding": [b - 127.5 for b in hashlib.sha256(text.encode()).digest()[:8]]}
                        for i, text in enumerate(body["input"])
                    ]}
                else:
                    self.send_error(404)
                    return
                payload = json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format, *args):  # keep test output quiet
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


@pytest.fixture
def loopback_endpoints(monkeypatch):
    """Starts loopback endpoints on demand: `loopback_endpoints()` returns a
    new running `LoopbackEndpoint`; each is shut down at teardown."""
    # requests honours proxy settings; these keep loopback calls direct
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    started: list[LoopbackEndpoint] = []

    def start() -> LoopbackEndpoint:
        started.append(LoopbackEndpoint())
        return started[-1]

    yield start
    for endpoint in started:
        endpoint.close()
