"""Chat-completion and embedding clients with schema-constrained output.

Every chat call is bound to an output schema (stage prediction, stage plus
rule list, or rule list only). When the backend enforces the schema server
side the JSON schema is forwarded; either way the client validates locally
and re-asks with a corrective instruction up to a retry budget. A scripted
backend replays canned responses for fully deterministic, offline runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence

from .corpus import CorpusError, StageCategory, StageLabel, typed


class LlmError(Exception):
    """Base class for client and backend failures."""


# Longest server-requested Retry-After wait honoured, in seconds.
MAX_RETRY_AFTER_S = 60.0
# Re-asks of a chat reply that fails its schema, after the first ask.
MAX_SCHEMA_RETRIES = 3
# Tries of one backend call that fails with a retryable transport error.
TRANSPORT_ATTEMPTS = 3
# Wait before the first transport retry, in seconds; it doubles after each.
BACKOFF_S = 1.0


class TransportError(LlmError):
    """Network-level failure. Retried with backoff when `retryable`.

    `retry_after_s` is the wait a rate-limited (429) reply asked for; the
    retry sleeps at least that long, up to MAX_RETRY_AFTER_S.
    """

    retry_after_s = 0.0

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class AuthenticationError(LlmError):
    """Endpoint rejected the credentials; never retried."""


class SchemaViolationError(LlmError):
    """A model response failed schema validation. `LlmClient.chat` retries
    it, and raises it once the retries are spent."""


class TruncatedReplyError(SchemaViolationError):
    """A chat reply stopped at `max_tokens`. Raised by the backend, so
    `LlmClient.chat` does not re-ask it: a re-ask hits the same cap."""


class ScriptError(LlmError):
    """Scripted backend problem: a malformed script."""


class ScriptExhaustedError(ScriptError):
    """The script has no responses left."""


class SchemaKind(Enum):
    STAGING = "staging"
    STAGING_WITH_RULES = "staging_with_rules"
    RULES_ONLY = "rules_only"


class _Field(NamedTuple):
    """One reply field, stated once for every place that spells it out."""

    name: str
    json: dict  # its JSON-schema fragment
    ask: str  # how a re-ask describes it
    example: str  # its value in a prompt's example object, as JSON text
    read: Callable[[object], object]  # checks a reply's value, returns it as kept


@dataclass(frozen=True)
class OutputSchema:
    """What a chat response must contain; staging kinds bind a category."""

    kind: SchemaKind
    category: StageCategory | None = None

    def __post_init__(self) -> None:
        needs_category = self.kind is not SchemaKind.RULES_ONLY
        if needs_category and self.category is None:
            raise LlmError(f"schema kind {self.kind.value} requires a category")
        if not needs_category and self.category is not None:
            raise LlmError("rules_only schema takes no category")

    @property
    def wants_stage(self) -> bool:
        return self.kind in (SchemaKind.STAGING, SchemaKind.STAGING_WITH_RULES)

    @property
    def wants_rules(self) -> bool:
        return self.kind in (SchemaKind.STAGING_WITH_RULES, SchemaKind.RULES_ONLY)

    def label_names(self) -> list[str]:
        return self.category.label_names() if self.category else []

    def fields(self) -> list[_Field]:
        """The reply's fields in order: the one table from which the JSON
        schema, the local check, the re-ask and the prompts' example
        objects are built."""
        names = self.label_names()
        labels = ", ".join(names)
        stage = [
            _Field("reasoning", {"type": "string"}, "string",
                   '"<step-by-step explanation>"', lambda v: _string("reasoning", v)),
            _Field("stage", {"type": "string", "enum": names}, f"exactly one of {labels}",
                   f'"<one of {labels}>"', self._stage),
        ]
        rules = [
            _Field("rules",
                   {"type": "array", "items": {"type": "string", "minLength": 1}, "minItems": 1},
                   "non-empty list of non-empty strings",
                   '["<rule 1>", "<rule 2>", "..."]', _rule_list),
        ]
        return (stage if self.wants_stage else []) + (rules if self.wants_rules else [])

    def _stage(self, value) -> StageLabel:
        try:
            return StageLabel.parse(_string("stage", value), self.category)
        except CorpusError:
            raise SchemaViolationError(
                f"'stage' must be one of {', '.join(self.label_names())}; got {value!r}"
            )

    def json_schema(self) -> dict:
        """JSON schema forwarded to backends that constrain decoding."""
        fields = self.fields()
        return {
            "type": "object",
            "properties": {f.name: f.json for f in fields},
            "required": [f.name for f in fields],
            "additionalProperties": False,
        }

    def example(self) -> str:
        """A reply of this shape with placeholder values, as prompts show it."""
        return "{" + ", ".join(f'"{f.name}": {f.example}' for f in self.fields()) + "}"


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise SchemaViolationError(f"'{name}' must be a string")
    return value


def _rule_list(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaViolationError("'rules' must be a non-empty list of strings")
    if not all(isinstance(r, str) and r.strip() for r in value):
        raise SchemaViolationError("'rules' entries must be non-empty strings")
    return tuple(r.strip() for r in value)


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call. `template_id` names the template that
    rendered `user`, for provenance."""

    user: str
    schema: OutputSchema
    system: str | None = None
    template_id: str | None = None

    def __post_init__(self) -> None:
        if not self.user.strip():
            raise LlmError("user text must be non-empty")


@dataclass(frozen=True)
class StructuredOutput:
    """Validated model output; fields present exactly as the schema demands."""

    reasoning: str | None = None
    stage: StageLabel | None = None
    rules: tuple[str, ...] | None = None


def _extract_json_object(text: str) -> dict:
    """Parse the response as a JSON object; failing that, take the object
    that parses from the first `{` it can, ignoring the prose around it.

    A value that fails to decode at one `{`, an integer past Python's digit
    limit included, moves the scan on to the next. JSON nested past the
    recursion limit ends the scan at once: a later `{` inside the same
    nesting would recurse as deep again. Either way a reply with no usable
    object is a SchemaViolationError."""
    try:
        obj = json.loads(text)
        if isinstance(obj, dict):
            return obj
    except (ValueError, RecursionError):  # ValueError includes JSONDecodeError
        pass
    decoder = json.JSONDecoder()
    start = text.find("{")
    while start != -1:
        try:
            return decoder.raw_decode(text, start)[0]  # a value at "{" is an object
        except ValueError:  # JSONDecodeError, or an integer past the digit limit
            start = text.find("{", start + 1)
        except RecursionError as exc:
            raise SchemaViolationError(f"response is not a usable JSON object: {exc}")
    raise SchemaViolationError("response is not a JSON object")


def parse_structured(raw: str, schema: OutputSchema) -> StructuredOutput:
    """Validate raw model text against the schema, or raise SchemaViolationError."""
    obj = _extract_json_object(raw)
    values = {}
    for f in schema.fields():
        if f.name not in obj:
            raise SchemaViolationError(f"missing required field '{f.name}'")
        values[f.name] = f.read(obj[f.name])
    return StructuredOutput(**values)


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


class EmbedBackend(Protocol):
    def embed(self, texts: Sequence[str]) -> tuple[list[list[float]], str]: ...


# --------------------------------------------------------------------------
# scripted backend
# --------------------------------------------------------------------------


def _hash_vector(text: str, dim: int) -> list[float]:
    """Deterministic pseudo-embedding derived from sha256; platform-stable."""
    values = []
    for i in range(dim):
        digest = hashlib.sha256(f"{i}:{text}".encode("utf-8")).digest()
        n = int.from_bytes(digest[:8], "big", signed=False)
        values.append(n / 2**63 - 1.0)  # in [-1, 1)
    return values


def _is_vector(value) -> bool:
    """A non-empty list of numbers, as a scripted embed entry gives one."""
    return isinstance(value, list) and bool(value) and all(
        type(x) in (int, float) for x in value
    )


class ScriptedBackend:
    """Replays scripted chat/embed responses; deterministic by construction.

    Each entry is ``{"kind": "chat" | "embed", "body": {...}}`` and holds no
    other field. Chat entries are consumed in file order, one per call. Embed
    entries are either persistent lookups (``{"map": {...}}`` /
    ``{"hash_dim": n}``) or ``{"vectors": [...]}`` batches consumed in file
    order; their shapes are checked when the script loads.

    The file-order queues follow the order calls arrive in, so a client over
    this backend makes one call at a time.
    """

    deterministic = True
    replays_in_call_order = True
    model_id = "scripted"

    def __init__(self, script: list, origin: str = "<inline>"):
        """Check and file each entry of a parsed script, in one pass in file
        order; an error names `origin` and the first bad entry."""
        if not isinstance(script, list):
            raise ScriptError(f"{origin}: script must be a JSON list")
        self._lock = threading.Lock()
        self._chat_queue: deque[dict] = deque()
        self._vector_queue: deque[list] = deque()
        self._maps: list[dict] = []
        self._hash_dim: int | None = None
        for pos, item in enumerate(script):
            where = f"{origin}: entry {pos}"
            if not isinstance(item, dict):
                raise ScriptError(f"{where} is not an object")
            extra = sorted(set(item) - {"kind", "body"})
            if extra:
                raise ScriptError(f"{where} has fields other than kind and body: {extra}")
            kind, body = item.get("kind"), item.get("body")
            if kind not in ("chat", "embed"):
                raise ScriptError(f"{where} has bad kind {kind!r}")
            if not isinstance(body, dict):
                raise ScriptError(f"{where} body must be an object")
            if kind == "chat":
                self._chat_queue.append(body)
            elif "map" in body:
                lookup = body["map"]
                if not isinstance(lookup, dict) or not all(map(_is_vector, lookup.values())):
                    raise ScriptError(
                        f"{where}: embed 'map' must map texts to non-empty number lists"
                    )
                self._maps.append(lookup)
            elif "hash_dim" in body:
                dim = body["hash_dim"]
                if type(dim) is not int or dim < 1:
                    raise ScriptError(
                        f"{where}: embed 'hash_dim' must be a positive integer, got {dim!r}"
                    )
                if self._hash_dim not in (None, dim):
                    raise ScriptError(
                        f"{where}: embed 'hash_dim' {dim} contradicts {self._hash_dim}"
                    )
                self._hash_dim = dim
            elif "vectors" in body:
                vectors = body["vectors"]
                if not isinstance(vectors, list) or not all(map(_is_vector, vectors)):
                    raise ScriptError(
                        f"{where}: embed 'vectors' must be a list of non-empty number lists"
                    )
                self._vector_queue.append(vectors)
            else:
                raise ScriptError(
                    f"{where}: embed body needs one of 'map', 'hash_dim', 'vectors'"
                )
        self.chat_calls = 0
        self.embed_calls = 0

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
            self.chat_calls += 1
            if self._chat_queue:
                return self._chat_body(self._chat_queue.popleft())
            raise ScriptExhaustedError("script exhausted: no chat responses left")

    @staticmethod
    def _chat_body(body: dict) -> str:
        if set(body) == {"raw_text"}:
            return str(body["raw_text"])
        return json.dumps(body)

    def embed(self, texts: Sequence[str]) -> tuple[list[list[float]], str]:
        with self._lock:
            self.embed_calls += 1
            resolved = self._resolve_persistent(texts)
            if resolved is not None:
                return resolved, self.model_id
            if self._vector_queue:
                vectors = self._vector_queue.popleft()
                return [list(map(float, v)) for v in vectors], self.model_id
            raise ScriptExhaustedError("script exhausted: no embed responses left")

    def _resolve_persistent(self, texts: Sequence[str]) -> list[list[float]] | None:
        out: list[list[float]] = []
        for text in texts:
            vec = None
            for m in self._maps:
                if text in m:
                    vec = [float(x) for x in m[text]]
                    break
            if vec is None and self._hash_dim is not None:
                vec = _hash_vector(text, self._hash_dim)
            if vec is None:
                return None
            out.append(vec)
        return out if out or not texts else None


def scripted_backend(script: str | Path) -> ScriptedBackend:
    """Load a replay backend from a script file (see ScriptedBackend)."""
    try:
        data = json.loads(Path(script).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScriptError(f"cannot parse script {script}: {exc}")
    return ScriptedBackend(data, origin=str(script))


# --------------------------------------------------------------------------
# live OpenAI-compatible backends
# --------------------------------------------------------------------------


def _endpoint(base: str, path: str) -> str:
    base = base.rstrip("/")
    if base.endswith("/v1"):
        return f"{base}{path[len('/v1'):]}"
    return f"{base}{path}"


class _HttpBackend:
    """An OpenAI-compatible endpoint; `_post` is the one HTTP path."""

    deterministic = False
    endpoint = ""  # names the endpoint in error messages

    def __init__(
        self, base_url: str, api_key: str = "", model: str = "default", timeout_s: float = 120.0
    ):
        self.base_url = base_url
        self.api_key = api_key
        self.model_id = model
        self.timeout_s = timeout_s

    def _post(self, path: str, payload: dict):
        """POST `payload` as JSON and return the decoded body of a 200 reply.

        401/403 raise AuthenticationError. 429 and 5xx raise a retryable
        TransportError, a 429 carrying its Retry-After seconds. Any other
        status, or a body that is not JSON (or nests past the recursion
        limit), raises a non-retryable one.
        """
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            _endpoint(self.base_url, path), data=json.dumps(payload).encode(), headers=headers
        )
        try:
            try:
                # a new opener reads the proxy variables as they are now
                resp = urllib.request.build_opener().open(request, timeout=self.timeout_s)
            except urllib.error.HTTPError as exc:  # any status but 2xx, read as a reply
                resp = exc
            with resp:
                status, body = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            # refused, reset, closed before the reply, timed out, or a short body
            raise TransportError(f"{self.endpoint} endpoint unreachable: {exc}")
        if status in (401, 403):
            raise AuthenticationError(f"{self.endpoint} endpoint rejected credentials ({status})")
        if status == 429:
            limited = TransportError(f"{self.endpoint} endpoint rate limited (429)")
            try:
                limited.retry_after_s = max(0.0, float(resp.headers.get("Retry-After", "")))
            except ValueError:  # absent, or an HTTP date: back off as usual
                pass
            raise limited
        if status >= 500:
            raise TransportError(f"{self.endpoint} endpoint error {status}")
        if status != 200:
            text = body.decode(errors="replace")[:200]
            raise TransportError(
                f"{self.endpoint} endpoint returned {status}: {text}", retryable=False
            )
        try:
            return json.loads(body)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested past the limit
            raise TransportError(f"malformed {self.endpoint} response: {exc}", retryable=False)


class HttpChatBackend(_HttpBackend):
    """POSTs to ``{base}/v1/chat/completions`` with the sampling settings of
    every call of a run; forwards the JSON schema. A reply cut off at
    `max_tokens` (finish reason ``length``) raises TruncatedReplyError."""

    endpoint = "chat"

    def __init__(
        self, base_url: str, api_key: str = "", model: str = "default", timeout_s: float = 120.0,
        *, temperature: float = 0.0, max_tokens: int = 1024,
    ):
        if not (math.isfinite(temperature) and temperature >= 0):
            raise LlmError(f"temperature must be finite and >= 0, got {temperature}")
        if max_tokens < 1:
            raise LlmError("max_tokens must be positive")
        super().__init__(base_url, api_key, model, timeout_s)
        self.temperature = temperature
        self.max_tokens = max_tokens

    def complete(self, request: ChatRequest) -> str:
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        body = self._post("/v1/chat/completions", {
            "model": self.model_id,
            "messages": messages,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "response_format": {
                "type": "json_schema",
                "json_schema": {
                    "name": "staging_output",
                    "schema": request.schema.json_schema(),
                },
            },
        })
        try:
            choice = body["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {exc}", retryable=False)
        if choice.get("finish_reason") == "length":
            raise TruncatedReplyError(f"chat reply cut off at max_tokens {self.max_tokens}")
        if not isinstance(content, str):
            raise TransportError(
                f"malformed chat response: content is {type(content).__name__}, not a string",
                retryable=False,
            )
        return content


class HttpEmbedBackend(_HttpBackend):
    """POSTs to ``{base}/v1/embeddings``."""

    endpoint = "embedding"

    def embed(self, texts: Sequence[str]) -> tuple[list[list[float]], str]:
        data = self._post("/v1/embeddings", {"model": self.model_id, "input": list(texts)})
        try:
            rows = typed(data["data"], list, "data")
            rows = sorted(rows, key=lambda row: typed(row["index"], int, "index"))
            if [row["index"] for row in rows] != list(range(len(texts))):
                raise ValueError(f"indices must be 0..{len(texts) - 1}, one per text")
            vectors = [
                [float(typed(x, (int, float), "embedding value"))
                 for x in typed(row["embedding"], list, "embedding")]
                for row in rows
            ]
            model = typed(data.get("model", self.model_id), str, "model")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TransportError(f"malformed embedding response: {exc}", retryable=False)
        return vectors, model


# --------------------------------------------------------------------------
# client
# --------------------------------------------------------------------------


class LlmClient:
    """Shared handle over chat/embed backends with validation and retries.

    Chat and embeddings are separate endpoints, each bounded on its own: at
    most `max_in_flight` chat calls and at most `max_in_flight` embed calls
    run at once, across every thread that shares the client, so up to
    `max_in_flight_total` calls in all, which is also the width of a
    report-text RAG run's report executor (`pipelines.run_rag`). When either
    backend replays by call order (`replays_in_call_order`) both roles share
    one slot, so calls run one at a time in the order they arrive. A call
    holds its slot through its transport retries and nothing else, so a
    caller never holds one while it waits on other tasks.
    """

    def __init__(
        self,
        chat_backend: ChatBackend | None = None,
        embed_backend: EmbedBackend | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        max_in_flight: int = 4,
    ):
        if max_in_flight < 1:
            raise LlmError(f"max_in_flight must be at least 1, got {max_in_flight}")
        self.chat_backend = chat_backend
        self.embed_backend = embed_backend
        self._sleep = sleep
        replays = any(
            getattr(b, "replays_in_call_order", False) for b in (chat_backend, embed_backend)
        )
        self.max_in_flight = 1 if replays else max_in_flight
        self.max_in_flight_total = 1 if replays else 2 * max_in_flight
        self._chat_slots = threading.BoundedSemaphore(self.max_in_flight)
        self._embed_slots = (
            self._chat_slots if replays else threading.BoundedSemaphore(self.max_in_flight)
        )

    @property
    def deterministic(self) -> bool:
        return bool(getattr(self.chat_backend, "deterministic", False))

    def chat(self, request: ChatRequest) -> StructuredOutput:
        """Run one schema-validated chat call.

        Raises SchemaViolationError once the retry budget is spent, or at
        once for a reply cut off at its token cap; callers typically record
        the report as unparseable and continue.
        """
        if self.chat_backend is None:
            raise LlmError("no chat backend configured")
        attempt_request = request
        last: SchemaViolationError | None = None
        for _ in range(1 + MAX_SCHEMA_RETRIES):
            raw = self._transport(
                self._chat_slots, lambda: self.chat_backend.complete(attempt_request)
            )
            try:
                return parse_structured(raw, request.schema)
            except SchemaViolationError as violation:
                last = violation
                attempt_request = replace(
                    request, user=self._corrective(request, violation)
                )
        raise SchemaViolationError(
            f"schema still violated after {MAX_SCHEMA_RETRIES} retries: {last}"
        )

    def _corrective(self, request: ChatRequest, violation: SchemaViolationError) -> str:
        fields = " and ".join(f'"{f.name}" ({f.ask})' for f in request.schema.fields())
        return (
            f"{request.user}\n\nYour previous response was invalid: {violation}. "
            f"Respond with a single JSON object containing {fields}."
        )

    def _transport(self, slots: threading.BoundedSemaphore, call: Callable):
        """Run one backend call in one of `slots`, retrying retryable
        transport errors.

        Makes up to TRANSPORT_ATTEMPTS tries. Waits double from BACKOFF_S; a
        rate-limited reply's Retry-After (capped at MAX_RETRY_AFTER_S)
        lengthens the wait when it is longer.
        """
        delay = BACKOFF_S
        with slots:
            for _ in range(1, TRANSPORT_ATTEMPTS):
                try:
                    return call()
                except TransportError as exc:
                    if not exc.retryable:
                        raise
                    self._sleep(max(delay, min(exc.retry_after_s, MAX_RETRY_AFTER_S)))
                    delay *= 2
            return call()

    def embed(self, texts: Sequence[str]) -> tuple[list[list[float]], str]:
        """Embed a batch: one vector per text, order preserved, and the id
        of the model that embedded them. Every vector is non-empty, finite
        and not all-zero, and all have one dimension. An empty batch makes
        no call and returns ``([], "")``."""
        if not texts:
            return [], ""
        if self.embed_backend is None:
            raise LlmError("no embedding backend configured")
        for t in texts:
            if not t:
                raise LlmError("cannot embed empty text")
        vectors, model_id = self._transport(
            self._embed_slots, lambda: self.embed_backend.embed(texts)
        )
        if len(vectors) != len(texts):
            raise LlmError(
                f"embedding backend returned {len(vectors)} vectors for {len(texts)} texts"
            )
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise LlmError(f"inconsistent embedding dimensions in one batch: {sorted(dims)}")
        for v in vectors:
            if not v:
                raise LlmError("embedding vector must be non-empty")
            if not all(map(math.isfinite, v)):
                raise LlmError("embedding vector holds a non-finite value")
            if not any(v):
                raise LlmError("embedding vector is all-zero")
        return vectors, model_id
