from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from stagepipe import pipelines
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
    backend = ScriptedBackend(entries)
    return LlmClient(chat_backend=backend, embed_backend=backend), backend


NULL_CONTENT_REPLY = {"choices": [{"message": {"role": "assistant", "content": None}}]}


REPORT_ID = re.compile(r"pathology report body for (\S+)")


def text_vector(text: str) -> list[float]:
    """An 8-dimensional, never all-zero vector derived from `text` alone."""
    return [b - 127.5 for b in hashlib.sha256(text.encode()).digest()[:8]]


class ContentKeyedBackend:
    """A chat and embed backend whose replies depend only on the request.

    Every chat call is recorded as (template id, report id) in start order,
    with the peak number of chat calls in flight; every embed of a report's
    text as its report id in `embedded`, with the peak number of embed calls
    in flight (`embed_peak`). Chat calls wait at `barrier` when one is given
    (`*_inference` calls at `infer_barrier` instead, when that is given), and
    embeds of report texts at `embed_barrier` (only those of the reports in
    `embed_hold`, when given), so a test can hold a number of calls in flight
    together without relying on timing. The chat call for report `fail_id`
    raises `error` (its embed instead, when `fail_embed`); chat calls given
    a barrier return only once `release` is set, by default once it has
    raised (only those for the reports in `hold`, when given). After it has
    raised no call waits at a barrier. The chat reply is a rule list with
    a stage, valid under every schema; the embed reply is `text_vector` of
    each text.
    """

    deterministic = True
    model_id = "content-keyed"

    def __init__(
        self, barrier=None, fail_id=None, *, infer_barrier=None, release=None, hold=None,
        embed_barrier=None, embed_hold=None, fail_embed=False,
    ):
        self.barrier = barrier
        self.infer_barrier = infer_barrier
        self.embed_barrier = embed_barrier
        self.embed_hold = embed_hold
        self.fail_id = fail_id
        self.fail_embed = fail_embed
        self.error = TransportError(f"{fail_id} rejected", retryable=False)
        self.raised = threading.Event()
        self.release = release or self.raised
        self.hold = hold
        self.calls: list[tuple[str, str]] = []
        self.embedded: list[str] = []
        self.in_flight = self.peak = 0
        self.embed_in_flight = self.embed_peak = 0
        self._lock = threading.Lock()

    @property
    def started(self) -> list[str]:
        return [report_id for _, report_id in self.calls]

    def embed(self, texts):
        report_ids = [m.group(1) for m in map(REPORT_ID.search, texts) if m]
        with self._lock:
            self.embedded += report_ids
            self.embed_in_flight += 1
            self.embed_peak = max(self.embed_peak, self.embed_in_flight)
        try:
            barrier = self.embed_barrier
            if (
                report_ids and barrier is not None and not self.raised.is_set()
                and set(report_ids) <= (self.embed_hold or set(report_ids))
            ):
                barrier.wait()
            if self.fail_embed and self.fail_id in report_ids:
                self.raised.set()
                raise self.error
            return [text_vector(text) for text in texts], self.model_id
        finally:
            with self._lock:
                self.embed_in_flight -= 1

    def complete(self, request):
        report_id = REPORT_ID.search(request.user).group(1)
        with self._lock:
            self.calls.append((request.template_id, report_id))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            barrier = self.barrier
            if self.infer_barrier is not None and request.template_id.endswith("_inference"):
                barrier = self.infer_barrier
            if barrier is not None and not self.raised.is_set():
                barrier.wait()
            if report_id == self.fail_id and not self.fail_embed:
                self.raised.set()
                raise self.error
            # also a call that comes after the raise, before `release` is set
            if (barrier is not None and self.fail_id is not None
                    and report_id in (self.hold or {report_id})):
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


# How long a "slow reply" is held back, far past the timeouts tests set
SLOW_REPLY_S = 5.0


@dataclass(frozen=True)
class Reply:
    """One scripted reply of a `LoopbackEndpoint`: `body` as JSON (the
    endpoint's own reply when None), with `status` and extra `headers`.

    A `fault` changes how it is sent: "short body" sends half of the body
    that its Content-Length announces, then closes the connection; "close
    before reply" closes the connection without a reply; "slow reply" sends
    it after SLOW_REPLY_S, or once the endpoint closes.
    """

    status: int = 200
    body: object = None
    headers: dict = field(default_factory=dict)
    fault: str | None = None


class LoopbackEndpoint:
    """An OpenAI-compatible endpoint on 127.0.0.1, served from a thread.

    `/v1/chat/completions` replies, like `ContentKeyedBackend`, with a stage
    and rule list that depend only on the user message, valid under every
    schema; `/v1/embeddings` replies with one `text_vector` per input text.
    Every request's path, headers and JSON body are recorded in arrival
    order, and `peak` holds the most requests to each path that were in
    hand at once, each counted from its arrival until just before its reply
    is sent.

    Every chat reply carries `finish_reason` ("stop" unless a test sets
    another), and only the first `content_chars` characters of its content
    when a test sets that, as a reply cut off at its token cap does.

    `replies` queues scripted `Reply`s: each request, in arrival order,
    takes the next one, and once the queue is empty gets the endpoint's own
    reply.
    """

    def __init__(self, replies: tuple[Reply, ...] = ()):
        self.finish_reason = "stop"
        self.content_chars: int | None = None
        self.replies = deque(replies)
        self.requests: list[LoopbackRequest] = []
        self.peak: Counter[str] = Counter()
        self.closing = threading.Event()
        in_hand: Counter[str] = Counter()
        lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def handle(self):
                try:
                    super().handle()
                except ConnectionError:  # a client that gave up on a slow reply
                    pass

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    endpoint.requests.append(LoopbackRequest(self.path, self.headers, body))
                    in_hand[self.path] += 1
                    endpoint.peak[self.path] = max(endpoint.peak[self.path], in_hand[self.path])
                    scripted = endpoint.replies.popleft() if endpoint.replies else Reply()
                try:
                    reply = self._reply(body) if scripted.body is None else scripted.body
                finally:  # before the reply goes out, so the client's next call finds it done
                    with lock:
                        in_hand[self.path] -= 1
                if scripted.fault == "close before reply":
                    return
                if scripted.fault == "slow reply":
                    endpoint.closing.wait(SLOW_REPLY_S)
                if reply is None:
                    self.send_error(404)
                    return
                payload = json.dumps(reply).encode()
                self.send_response(scripted.status)
                self.send_header("Content-Type", "application/json")
                for name, value in scripted.headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                if scripted.fault == "short body":
                    payload = payload[: len(payload) // 2]
                self.wfile.write(payload)

            def _reply(self, body: dict) -> dict | None:
                if self.path == "/v1/chat/completions":
                    user = body["messages"][-1]["content"]
                    digest = hashlib.sha256(user.encode()).digest()
                    content = json.dumps(
                        rules_body(f"T{digest[0] % 4 + 1}", [f"rule {digest[1] % 3}"])
                    )[:endpoint.content_chars]
                    return {"choices": [{
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": endpoint.finish_reason,
                    }]}
                if self.path == "/v1/embeddings":
                    return {"model": body["model"], "data": [
                        {"index": i, "embedding": text_vector(text)}
                        for i, text in enumerate(body["input"])
                    ]}
                return None

            def log_message(self, format, *args):  # keep test output quiet
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        # a short poll keeps `close`, and so each test's teardown, quick
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self.closing.set()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


@pytest.fixture
def failure_recorded(monkeypatch) -> threading.Event:
    """Set once a `Run` has recorded a failure, so a call held on it
    returns only when no task of the run starts another step."""
    recorded = threading.Event()
    fail = pipelines.Run.fail

    def fail_and_signal(self, exc):
        fail(self, exc)
        recorded.set()

    monkeypatch.setattr(pipelines.Run, "fail", fail_and_signal)
    return recorded


@pytest.fixture
def loopback_endpoints(monkeypatch):
    """Starts loopback endpoints on demand: `loopback_endpoints(*replies)`
    returns a new running `LoopbackEndpoint` that sends the scripted replies
    first; each is shut down at teardown."""
    # urllib honours the proxy variables; these keep loopback calls direct
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    started: list[LoopbackEndpoint] = []

    def start(*replies: Reply) -> LoopbackEndpoint:
        started.append(LoopbackEndpoint(replies))
        return started[-1]

    yield start
    for endpoint in started:
        endpoint.close()
