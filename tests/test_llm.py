from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagepipe.corpus import StageCategory, StageLabel
from stagepipe.llm import (
    AuthenticationError,
    ChatRequest,
    MAX_RETRY_AFTER_S,
    HttpChatBackend,
    HttpEmbedBackend,
    LlmClient,
    LlmError,
    OutputSchema,
    SchemaViolationError,
    ScriptedBackend,
    ScriptError,
    ScriptExhaustedError,
    StructuredOutput,
    TRANSPORT_ATTEMPTS,
    TransportError,
    TruncatedReplyError,
    _extract_json_object,
    _hash_vector,
    parse_structured,
    scripted_backend,
)
from .conftest import (
    BAD_EMBEDDINGS,
    NULL_CONTENT_REPLY,
    FixedEmbedBackend,
    Reply,
    chat_entry,
    embeddings_reply,
    scripted_client,
    staging_body,
)

T = StageCategory.T
STAGING_T = OutputSchema(T)
WITH_RULES_T = OutputSchema(T, rules=True)
RULES_ONLY = OutputSchema(None, rules=True)


class TestOutputSchema:
    def test_json_schema_enum(self):
        schema = STAGING_T.json_schema()
        assert schema["properties"]["stage"]["enum"] == ["T1", "T2", "T3", "T4"]
        assert "rules" not in schema["properties"]

    def test_json_schema_rules(self):
        schema = WITH_RULES_T.json_schema()
        assert set(schema["required"]) == {"reasoning", "stage", "rules"}

    @pytest.mark.parametrize(
        "schema, text",
        [
            (STAGING_T,
             '{"type": "object", "properties": {"reasoning": {"type": "string"}, '
             '"stage": {"type": "string", "enum": ["T1", "T2", "T3", "T4"]}}, '
             '"required": ["reasoning", "stage"], "additionalProperties": false}'),
            (WITH_RULES_T,
             '{"type": "object", "properties": {"reasoning": {"type": "string"}, '
             '"stage": {"type": "string", "enum": ["T1", "T2", "T3", "T4"]}, '
             '"rules": {"type": "array", "items": {"type": "string", "minLength": 1}, '
             '"minItems": 1}}, '
             '"required": ["reasoning", "stage", "rules"], "additionalProperties": false}'),
            (RULES_ONLY,
             '{"type": "object", "properties": {"rules": {"type": "array", '
             '"items": {"type": "string", "minLength": 1}, "minItems": 1}}, '
             '"required": ["rules"], "additionalProperties": false}'),
        ],
        ids=["staging", "staging_with_rules", "rules_only"],
    )
    def test_json_schema_literal(self, schema, text):
        # the exact bytes a constraining endpoint is sent, key order included
        assert json.dumps(schema.json_schema()) == text


class TestParseStructured:
    def test_direct_match(self):
        out = parse_structured('{"reasoning": "tumor is 2.5 cm", "stage": "T2"}', STAGING_T)
        assert out.stage == StageLabel.parse("T2")
        assert out.reasoning == "tumor is 2.5 cm"
        assert out.rules is None

    def test_enum_rejection(self):
        with pytest.raises(SchemaViolationError, match="T5"):
            parse_structured('{"reasoning": "x", "stage": "T5"}', STAGING_T)

    def test_wrong_category_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_structured('{"reasoning": "x", "stage": "N1"}', STAGING_T)

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(SchemaViolationError, match="T²"):
            parse_structured('{"reasoning": "x", "stage": "T²"}', STAGING_T)

    def test_case_normalized(self):
        out = parse_structured('{"reasoning": "x", "stage": "t3"}', STAGING_T)
        assert out.stage == StageLabel.parse("T3")

    def test_json_embedded_in_prose(self):
        raw = 'Sure! Here is my answer:\n```json\n{"reasoning": "r", "stage": "T1"}\n```\nDone.'
        assert parse_structured(raw, STAGING_T).stage == StageLabel.parse("T1")

    def test_missing_reasoning(self):
        with pytest.raises(SchemaViolationError, match="reasoning"):
            parse_structured('{"stage": "T1"}', STAGING_T)

    def test_rules_schema(self):
        schema = WITH_RULES_T
        out = parse_structured(
            '{"reasoning": "r", "stage": "T1", "rules": ["a", "b"]}', schema
        )
        assert out.rules == ("a", "b")

    def test_missing_rules(self):
        with pytest.raises(SchemaViolationError, match="rules"):
            parse_structured('{"reasoning": "r", "stage": "T1"}', WITH_RULES_T)

    def test_empty_rule_string_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_structured('{"rules": ["ok", "  "]}', RULES_ONLY)

    @pytest.mark.parametrize(
        "rules, message",
        [
            ("null", "'rules' must be a non-empty list of strings"),
            ('"x"', "'rules' must be a non-empty list of strings"),
            ("[]", "'rules' must be a non-empty list of strings"),
            ('["a", 3]', "'rules' entries must be non-empty strings"),
        ],
        ids=["null", "string", "empty", "non-string-entry"],
    )
    def test_bad_rules_rejected(self, rules, message):
        with pytest.raises(SchemaViolationError) as info:
            parse_structured('{"rules": %s}' % rules, RULES_ONLY)
        assert str(info.value) == message

    def test_rules_only(self):
        out = parse_structured('{"rules": ["one", "two"]}', RULES_ONLY)
        assert out.rules == ("one", "two")
        assert out.stage is None and out.reasoning is None

    def test_not_json(self):
        with pytest.raises(SchemaViolationError):
            parse_structured("no json here", STAGING_T)

    @pytest.mark.parametrize(
        "before",
        ['{"n": %s} ' % ("7" * 5000), "prose " + "[" * 100000 + " "],
        ids=["object-past-the-digit-limit", "deep-array-without-a-brace"],
    )
    def test_scan_steps_past_an_undecodable_value_to_a_later_object(self, before):
        out = parse_structured(before + '{"reasoning": "r", "stage": "T2"}', STAGING_T)
        assert out.stage == StageLabel.parse("T2")

    def test_reply_opening_with_a_byte_order_mark_parses(self):
        # json.loads refuses a leading BOM; the scan starts at the "{" after it
        out = parse_structured('\ufeff{"reasoning": "r", "stage": "T2"}', STAGING_T)
        assert out.stage == StageLabel.parse("T2")

    def test_object_nested_past_the_recursion_limit_ends_the_scan(self):
        # each "{" inside the nesting would recurse as deep again
        raw = '{"a": ' + "[" * 100000 + ' {"reasoning": "r", "stage": "T2"}'
        with pytest.raises(SchemaViolationError, match="not a usable JSON object"):
            parse_structured(raw, STAGING_T)


_brace_free_prose = st.text(alphabet=st.characters(blacklist_characters="{}"), max_size=20)
_braced_text = st.text(alphabet=st.sampled_from('ab {}"\\:,'), max_size=8)


@given(
    prefix=_brace_free_prose,
    obj=st.dictionaries(_braced_text, _braced_text | st.lists(_braced_text, max_size=3), max_size=4),
    suffix=_brace_free_prose,
)
@settings(max_examples=300, deadline=None)
def test_json_object_round_trips_through_prose(prefix, obj, suffix):
    assert _extract_json_object(prefix + json.dumps(obj) + suffix) == obj


# replies past the decoder's limits: nesting deeper than the recursion limit,
# and integers longer than Python converts
_deep_json = st.builds(
    str.__mul__, st.sampled_from(["[", '{"a": ', '{"a": [', '{"stage": {"x": ']),
    st.integers(min_value=500, max_value=5000),
)
_long_integer = st.builds(
    lambda key, digits: '{"reasoning": "r", "%s": %s}' % (key, "7" * digits),
    st.sampled_from(["stage", "other"]), st.integers(min_value=4000, max_value=6000),
)


@given(
    prefix=st.text(max_size=20),
    reply=st.text() | _deep_json | _long_integer | st.just('{"reasoning": "r", "stage": "T2"}'),
    suffix=st.text(max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_any_reply_parses_or_is_a_schema_violation(prefix, reply, suffix):
    try:
        out = parse_structured(prefix + reply + suffix, STAGING_T)
    except SchemaViolationError:
        return
    assert isinstance(out, StructuredOutput)


class TestChatRequest:
    def test_empty_user_rejected(self):
        with pytest.raises(LlmError):
            ChatRequest(user="   ", schema=STAGING_T)


class TestScriptedBackend:
    def test_sequential_replay_then_exhausted(self):
        entries = [chat_entry(staging_body(s)) for s in ("T1", "T2", "T3")]
        client, _ = scripted_client(entries)
        req = ChatRequest(user="q", schema=STAGING_T)
        stages = [client.chat(req).stage.render() for _ in range(3)]
        assert stages == ["T1", "T2", "T3"]
        with pytest.raises(ScriptExhaustedError):
            client.chat(req)

    def test_retry_consumes_invalid_then_valid(self):
        entries = [
            chat_entry(staging_body("T5")),  # schema-violating
            chat_entry(staging_body("T3")),
        ]
        client, backend = scripted_client(entries)
        out = client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert out.stage.render() == "T3"
        assert backend.chat_calls == 2

    def test_raw_text_body(self):
        entries = [
            {"kind": "chat", "body": {"raw_text": "not json at all"}},
            chat_entry(staging_body("T1")),
        ]
        client, _ = scripted_client(entries)
        assert client.chat(ChatRequest(user="q", schema=STAGING_T)).stage.render() == "T1"

    def test_empty_script_errors(self):
        client, _ = scripted_client([])
        with pytest.raises(ScriptExhaustedError, match="exhausted"):
            client.chat(ChatRequest(user="q", schema=STAGING_T))

    def test_script_file_round_trip(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([chat_entry(staging_body("T2"))]))
        backend = scripted_backend(path)
        client = LlmClient(chat_backend=backend)
        assert client.chat(ChatRequest(user="q", schema=STAGING_T)).stage.render() == "T2"

    @pytest.mark.parametrize(
        "data",
        [
            "{}",
            '[{"kind": "nope", "body": {}}]',
            '[{"kind": "chat", "body": 3}]',
            "[3]",
            '[{"kind": "chat", "body": {}, "key": {"template": 1, "index": 1}}]',
            '[{"kind": "embed", "body": {"dim": 4}}]',
            '[{"kind": "embed", "body": {"hash_dim": 4}, "key": {"template": "nothing", "index": 9}}]',
        ],
    )
    def test_malformed_script(self, tmp_path, data):
        path = tmp_path / "script.json"
        path.write_text(data)
        with pytest.raises(ScriptError):
            scripted_backend(path)

    @pytest.mark.parametrize(
        "extra",
        [{"key": None}, {"key": {"template": "zscot_inference", "index": 1}}, {"note": "x"}],
        ids=["null-key", "template-key", "other-field"],
    )
    def test_entry_with_a_field_besides_kind_and_body_is_named(self, extra):
        entries = [chat_entry(staging_body("T1")), chat_entry(staging_body("T2")) | extra]
        with pytest.raises(ScriptError) as info:
            ScriptedBackend(entries, origin="s.json")
        assert str(info.value) == (
            f"s.json: entry 1 has fields other than kind and body: {sorted(extra)}"
        )

    def test_embed_map(self):
        entries = [
            {"kind": "embed", "body": {"map": {"chest wall": [1.0, 0.0, 0.5]}}}
        ]
        client, _ = scripted_client(entries)
        assert client.embed(["chest wall"]) == ([[1.0, 0.0, 0.5]], "scripted")
        # map entries are persistent
        assert client.embed(["chest wall"]) == ([[1.0, 0.0, 0.5]], "scripted")

    def test_embed_map_batch(self):
        entries = [{"kind": "embed", "body": {"map": {"a": [1, 0], "b": [0.0, 1.0]}}}]
        client, _ = scripted_client(entries)
        assert client.embed(["a", "b"]) == ([[1.0, 0.0], [0.0, 1.0]], "scripted")

    def test_embed_arity_mismatch(self):
        # the client's check of every backend's batch names it
        client = LlmClient(embed_backend=FixedEmbedBackend([[1.0, 0.0]]))
        with pytest.raises(LlmError, match="embedding backend returned 1 vectors for 2 texts"):
            client.embed(["a", "b"])

    def test_embed_empty_list(self):
        client, backend = scripted_client([])
        assert client.embed([]) == ([], "")
        assert backend.embed_calls == 0

    def test_embed_empty_text_rejected_before_any_call(self):
        client, backend = scripted_client([{"kind": "embed", "body": {"hash_dim": 4}}])
        with pytest.raises(LlmError, match="cannot embed empty text"):
            client.embed(["a", ""])
        assert backend.embed_calls == 0

    def test_embed_hash_dim_deterministic(self):
        entries = [{"kind": "embed", "body": {"hash_dim": 6}}]
        client, _ = scripted_client(entries)
        (a,), _ = client.embed(["some text"])
        (b,), _ = client.embed(["some text"])
        (c,), _ = client.embed(["other text"])
        assert a == b
        assert a != c
        assert len(a) == 6

    def test_embed_order_preserved(self):
        entries = [
            {
                "kind": "embed",
                "body": {"map": {"x": [1.0, 0.0], "y": [0.0, 1.0]}},
            }
        ]
        client, _ = scripted_client(entries)
        assert client.embed(["y", "x"]) == ([[0.0, 1.0], [1.0, 0.0]], "scripted")


_script_texts = st.text(alphabet="ab ", min_size=1, max_size=3)
_script_vectors = st.lists(
    st.integers(-3, 3) | st.floats(allow_nan=False, width=32), min_size=1, max_size=3
)


def _floats(vector: list) -> list[float]:
    return [float(x) for x in vector]


def _embed_entry(body: dict) -> dict:
    return {"kind": "embed", "body": body}


@st.composite
def _embed_scripts(draw):
    """A consistent embed script: its text-to-vector table, its `hash_dim`
    (or None), and entries that file each text in one to three maps, in
    between chat entries, with the `hash_dim` entry anywhere."""
    table = draw(st.dictionaries(_script_texts, _script_vectors, max_size=6))
    maps: list[dict] = [{} for _ in range(draw(st.integers(1, 3)))]
    for text, vector in table.items():
        for i in draw(st.sets(st.integers(0, len(maps) - 1), min_size=1)):
            maps[i][text] = list(vector)
    entries = [_embed_entry({"map": m}) for m in maps] + [chat_entry(staging_body("T1"))]
    dim = draw(st.none() | st.integers(1, 4))
    if dim is not None:
        entries.append(_embed_entry({"hash_dim": dim}))
    return table, dim, draw(st.permutations(entries))


@given(script=_embed_scripts(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_scripted_embed_looks_up_each_text_alone(script, data):
    table, dim, entries = script
    backend = ScriptedBackend(entries)
    batch = data.draw(st.lists(
        st.sampled_from(sorted(table)) | _script_texts if table else _script_texts,
        min_size=1, max_size=6,
    ))

    def outcome(texts):
        try:
            vectors, model_id = backend.embed(texts)
        except ScriptError as exc:
            return str(exc)
        assert model_id == "scripted"
        return vectors

    singles = [outcome([text]) for text in batch]
    for text, single in zip(batch, singles):
        if text in table:  # its map vector, with or without a hash_dim
            assert single == [_floats(table[text])]
        elif dim is not None:
            assert single == [_hash_vector(text, dim)]
        else:
            assert single == f"script maps no embed vector to {text!r} and sets no 'hash_dim'"
    errors = [single for single in singles if isinstance(single, str)]
    # a batch is its texts one at a time: grouping and order never matter
    assert outcome(batch) == (errors[0] if errors else [v for (v,) in singles])


@given(script=_embed_scripts(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_scripted_text_mapped_to_two_vectors_fails_at_load(script, data):
    table, _, entries = script
    text = data.draw(_script_texts)
    first = table[text] if text in table else data.draw(_script_vectors)
    second = data.draw(_script_vectors.filter(lambda v: _floats(v) != _floats(first)))
    for vector in ([] if text in table else [first]) + [second]:
        entries.insert(data.draw(st.integers(0, len(entries))), _embed_entry({"map": {text: vector}}))
    seen = [
        (pos, _floats(e["body"]["map"][text])) for pos, e in enumerate(entries)
        if text in e["body"].get("map", {})
    ]
    pos = next(pos for pos, vector in seen if vector != seen[0][1])
    with pytest.raises(ScriptError) as info:
        ScriptedBackend(entries, origin="s.json")
    assert str(info.value) == f"s.json: entry {pos}: embed 'map' gives {text!r} a different vector"


def test_scripted_text_mapped_twice_to_one_nan_vector_loads():
    # two distinct NaN objects, as a script built in Python holds them
    backend = ScriptedBackend([_embed_entry({"map": {"x": [float("nan"), 1.0]}}) for _ in range(2)])
    (vector,), _ = backend.embed(["x"])
    assert math.isnan(vector[0]) and vector[1] == 1.0


@pytest.mark.parametrize("second", [[float("nan"), 2.0], [1.0, 1.0], [float("nan")]])
def test_scripted_nan_vector_and_a_different_vector_fail_at_load(second):
    entries = [_embed_entry({"map": {"x": vector}}) for vector in ([float("nan"), 1.0], second)]
    with pytest.raises(ScriptError) as info:
        ScriptedBackend(entries, origin="s.json")
    assert str(info.value) == "s.json: entry 1: embed 'map' gives 'x' a different vector"


class _FlakyBackend:
    deterministic = True
    model_id = "flaky"

    def __init__(self, failures: int, exc=None):
        self.failures = failures
        self.calls = 0
        self.exc = exc or TransportError("boom")

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return '{"reasoning": "r", "stage": "T1"}'


class _RecordingBackend:
    deterministic = True
    model_id = "recording"

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.responses.pop(0)


class TestReask:
    @pytest.mark.parametrize(
        "schema, invalid, valid, reask",
        [
            (STAGING_T, '{"stage": "T1"}', '{"reasoning": "r", "stage": "T1"}',
             "q\n\nYour previous response was invalid: missing required field 'reasoning'. "
             'Respond with a single JSON object containing "reasoning" (string) and '
             '"stage" (exactly one of T1, T2, T3, T4).'),
            (RULES_ONLY, '{"rules": []}', '{"rules": ["a"]}',
             "q\n\nYour previous response was invalid: 'rules' must be a non-empty list "
             'of strings. Respond with a single JSON object containing "rules" '
             "(non-empty list of non-empty strings)."),
        ],
        ids=["staging", "rules-only"],
    )
    def test_corrective_text(self, schema, invalid, valid, reask):
        backend = _RecordingBackend([invalid, valid])
        LlmClient(chat_backend=backend).chat(ChatRequest(user="q", schema=schema))
        assert [r.user for r in backend.requests] == ["q", reask]


class TestHttpChatBackend:
    def test_defaults(self):
        backend = HttpChatBackend("http://localhost:1")
        assert backend.temperature == 0.0
        assert backend.max_tokens == 1024

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_temperature_must_be_finite_and_non_negative(self, value):
        # a NaN or infinite temperature cannot be sent as JSON
        with pytest.raises(LlmError, match="temperature must be finite and >= 0"):
            HttpChatBackend("http://localhost:1", temperature=value)

    def test_max_tokens_must_be_positive(self):
        with pytest.raises(LlmError, match="max_tokens must be positive"):
            HttpChatBackend("http://localhost:1", max_tokens=0)

    def test_reply_cut_off_at_max_tokens_is_not_reasked(self, loopback_endpoints):
        endpoint = loopback_endpoints()
        endpoint.finish_reason, endpoint.content_chars = "length", 20
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url, max_tokens=7))
        with pytest.raises(TruncatedReplyError, match="cut off at max_tokens 7"):
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert len(endpoint.requests) == 1  # a re-ask would hit the same cap

    @pytest.mark.parametrize(
        "body",
        [NULL_CONTENT_REPLY, [], b"<html>not json</html>"],
        ids=["null-content", "list-body", "not-json"],
    )
    def test_unusable_reply_is_a_non_retryable_transport_error(self, loopback_endpoints, body):
        endpoint = loopback_endpoints(Reply(body=body))
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url), sleep=lambda _: None)
        with pytest.raises(TransportError, match="malformed chat response") as info:
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert not info.value.retryable
        assert [r.path for r in endpoint.requests] == ["/v1/chat/completions"]

    @pytest.mark.parametrize("suffix", ["", "/", "/v1", "/v1/"])
    def test_base_url_with_or_without_v1_posts_to_one_path(self, loopback_endpoints, suffix):
        endpoint = loopback_endpoints()
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url + suffix))
        assert client.chat(ChatRequest(user="q", schema=STAGING_T)).stage is not None
        assert [r.path for r in endpoint.requests] == ["/v1/chat/completions"]

    def test_payload_carries_the_output_schema(self, loopback_endpoints):
        endpoint = loopback_endpoints(Reply(body=CHAT_REPLY))
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url))
        client.chat(ChatRequest(user="q", schema=STAGING_T))
        (payload,) = [r.body for r in endpoint.requests]
        assert payload["messages"] == [{"role": "user", "content": "q"}]
        assert payload["response_format"]["json_schema"]["schema"] == STAGING_T.json_schema()

    def test_system_message_is_sent_first(self, loopback_endpoints):
        endpoint = loopback_endpoints(Reply(body=CHAT_REPLY))
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url))
        client.chat(ChatRequest(user="q", schema=STAGING_T, system="s"))
        (payload,) = [r.body for r in endpoint.requests]
        assert payload["messages"] == [
            {"role": "system", "content": "s"}, {"role": "user", "content": "q"},
        ]

    def test_each_call_opens_a_connection(self, loopback_endpoints):
        # the count that pooled connections are to lower
        endpoint = loopback_endpoints()
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url))
        for _ in range(3):
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert endpoint.connections == 3

    def test_proxy_variable_is_honoured(self, loopback_endpoints, monkeypatch):
        proxy = loopback_endpoints(Reply(body=CHAT_REPLY))
        monkeypatch.setenv("http_proxy", proxy.url)
        # a loopback address that nothing serves: only the proxy can answer
        client = LlmClient(chat_backend=HttpChatBackend("http://127.0.0.2:9"))
        assert client.chat(ChatRequest(user="q", schema=STAGING_T)).stage.render() == "T1"
        assert [r.path for r in proxy.requests] == ["http://127.0.0.2:9/v1/chat/completions"]


CHAT_REPLY = {"choices": [{"message": {"content": json.dumps(staging_body("T1"))}}]}
EMBED_REPLY = {"data": [{"index": 0, "embedding": [1.0, 0.0]}], "model": "m"}


def rate_limited(retry_after: str | None) -> Reply:
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    return Reply(429, {"error": "rate limited"}, headers)


class TestRateLimit:
    def test_chat_429_waits_retry_after_then_succeeds(self, loopback_endpoints):
        endpoint = loopback_endpoints(rate_limited("3"), Reply(body=CHAT_REPLY))
        sleeps = []
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url), sleep=sleeps.append)
        out = client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert out.stage.render() == "T1"
        assert len(endpoint.requests) == 2
        assert sleeps == [3.0]

    def test_embed_429_waits_retry_after_then_succeeds(self, loopback_endpoints):
        endpoint = loopback_endpoints(rate_limited("3"), Reply(body=EMBED_REPLY))
        sleeps = []
        client = LlmClient(embed_backend=HttpEmbedBackend(endpoint.url), sleep=sleeps.append)
        assert client.embed(["x"]) == ([[1.0, 0.0]], "m")
        assert [r.path for r in endpoint.requests] == ["/v1/embeddings"] * 2
        assert sleeps == [3.0]

    @pytest.mark.parametrize(
        "reply",
        [
            {"data": [{"index": 0, "embedding": ["0.6", True]},
                      {"index": 0, "embedding": [0.8, 0.6]}], "model": None},
            {"data": [{"index": 0, "embedding": [0.6, True]},
                      {"index": 1, "embedding": [0.8, 0.6]}], "model": "m"},
            {"data": [{"index": 0, "embedding": [0.6, 0.8]},
                      {"index": 0, "embedding": [0.8, 0.6]}], "model": "m"},
            {"data": [{"index": 1, "embedding": [0.6, 0.8]},
                      {"index": 2, "embedding": [0.8, 0.6]}], "model": "m"},
            {"data": [{"index": 0, "embedding": [0.6, 0.8]},
                      {"index": 1.0, "embedding": [0.8, 0.6]}], "model": "m"},
            {"data": [{"index": 0, "embedding": [0.6, 0.8]},
                      {"index": 1, "embedding": [0.8, 0.6]}], "model": None},
            {"data": [{"index": 0, "embedding": [10**400, 0.8]},
                      {"index": 1, "embedding": [0.8, 0.6]}], "model": "m"},
        ],
        ids=["coercible", "bool-value", "repeated-index", "shifted-index", "float-index",
             "null-model", "too-large-for-float"],
    )
    def test_embed_reply_of_wrong_types_or_indices_is_malformed(self, loopback_endpoints, reply):
        endpoint = loopback_endpoints(Reply(body=reply))
        client = LlmClient(embed_backend=HttpEmbedBackend(endpoint.url), sleep=lambda _: None)
        with pytest.raises(TransportError, match="malformed embedding response") as info:
            client.embed(["a", "b"])
        assert not info.value.retryable
        assert len(endpoint.requests) == 1

    def test_embed_reply_in_any_order_without_model_is_accepted(self, loopback_endpoints):
        reply = {"data": [{"index": 1, "embedding": [1, 0]}, {"index": 0, "embedding": [0.6, 0.8]}]}
        endpoint = loopback_endpoints(Reply(body=reply))
        client = LlmClient(embed_backend=HttpEmbedBackend(endpoint.url, model="e"))
        assert client.embed(["a", "b"]) == ([[0.6, 0.8], [1.0, 0.0]], "e")

    @pytest.mark.parametrize("rows, check", BAD_EMBEDDINGS.values(), ids=BAD_EMBEDDINGS.keys())
    def test_embed_reply_that_fails_a_vector_check_is_rejected(
        self, loopback_endpoints, rows, check
    ):
        endpoint = loopback_endpoints(Reply(body=embeddings_reply(rows, 2)))
        client = LlmClient(embed_backend=HttpEmbedBackend(endpoint.url), sleep=lambda _: None)
        with pytest.raises(LlmError, match=check) as info:
            client.embed(["a", "b"])
        assert not isinstance(info.value, TransportError)  # so it is never retried
        assert len(endpoint.requests) == 1

    @pytest.mark.parametrize(
        "retry_after, expected",
        [("0.5", 1.0), (None, 1.0), ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),
         ("86400", MAX_RETRY_AFTER_S)],
        ids=["shorter-than-backoff", "absent", "http-date", "capped"],
    )
    def test_wait_is_the_longer_of_backoff_and_capped_retry_after(
        self, loopback_endpoints, retry_after, expected
    ):
        endpoint = loopback_endpoints(rate_limited(retry_after), Reply(body=CHAT_REPLY))
        sleeps = []
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url), sleep=sleeps.append)
        client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert sleeps == [expected]

    def test_client_error_other_than_429_is_not_retried(self, loopback_endpoints):
        endpoint = loopback_endpoints(Reply(400, {}))
        client = LlmClient(chat_backend=HttpChatBackend(endpoint.url), sleep=lambda _: None)
        with pytest.raises(TransportError) as info:
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert not info.value.retryable
        assert len(endpoint.requests) == 1


# Each is sent in place of a reply; HttpChatBackend(timeout_s=0.2) gives up
# on the slow one
FAULTS = {
    "5xx": Reply(503, {"error": "overloaded"}),
    "short-body": Reply(fault="short body"),
    "closed-before-reply": Reply(fault="close before reply"),
    "slow-reply": Reply(fault="slow reply"),
}


class TestHttpFaults:
    """Every status and connection fault, over a real socket, ends as its
    typed error or recovers within TRANSPORT_ATTEMPTS (3)."""

    def _chat(self, url: str, sleeps: list) -> StructuredOutput:
        client = LlmClient(chat_backend=HttpChatBackend(url, timeout_s=0.2), sleep=sleeps.append)
        return client.chat(ChatRequest(user="q", schema=STAGING_T))

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_two_faults_then_a_reply_recover(self, loopback_endpoints, fault):
        endpoint = loopback_endpoints(fault, fault)
        sleeps = []
        assert self._chat(endpoint.url, sleeps).stage is not None
        assert len(endpoint.requests) == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_a_fault_on_every_attempt_is_a_retryable_transport_error(
        self, loopback_endpoints, fault
    ):
        endpoint = loopback_endpoints(fault, fault, fault)
        sleeps = []
        expected = "error 503" if fault.status == 503 else "unreachable"
        with pytest.raises(TransportError, match=f"chat endpoint {expected}") as info:
            self._chat(endpoint.url, sleeps)
        assert info.value.retryable
        assert len(endpoint.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_refused_connection_is_retried_as_unreachable(self, loopback_endpoints):
        endpoint = loopback_endpoints()
        endpoint.close()  # nothing listens on its port now
        sleeps = []
        with pytest.raises(TransportError, match="chat endpoint unreachable") as info:
            self._chat(endpoint.url, sleeps)
        assert info.value.retryable
        assert sleeps == [1.0, 2.0]  # 3 attempts

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_credentials_are_never_retried(self, loopback_endpoints, status):
        endpoint = loopback_endpoints(Reply(status, {"error": "bad key"}))
        sleeps = []
        with pytest.raises(AuthenticationError, match=rf"rejected credentials \({status}\)"):
            self._chat(endpoint.url, sleeps)
        assert len(endpoint.requests) == 1
        assert sleeps == []


class TestClientSettings:
    @pytest.mark.parametrize("setting, value", [("max_in_flight", 0)])
    def test_out_of_range_setting_rejected_at_construction(self, setting, value):
        with pytest.raises(LlmError, match=setting):
            LlmClient(chat_backend=_RecordingBackend([]), **{setting: value})

    def test_chat_without_a_chat_backend_is_an_llm_error(self):
        client = LlmClient(embed_backend=ScriptedBackend([]))
        with pytest.raises(LlmError, match="no chat backend configured"):
            client.chat(ChatRequest(user="q", schema=STAGING_T))

    def test_embed_without_an_embed_backend_is_an_llm_error(self):
        backend = _RecordingBackend([])
        with pytest.raises(LlmError, match="no embedding backend configured"):
            LlmClient(chat_backend=backend).embed(["a"])


class TestClientRetries:
    def test_transport_retry_with_backoff(self):
        sleeps = []
        backend = _FlakyBackend(failures=2)
        client = LlmClient(chat_backend=backend, sleep=sleeps.append)
        out = client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert out.stage.render() == "T1"
        assert sleeps == [1.0, 2.0]  # exponential from 1 s

    def test_transport_retries_exhausted(self):
        backend = _FlakyBackend(failures=5)
        client = LlmClient(chat_backend=backend, sleep=lambda _ : None)
        with pytest.raises(TransportError):
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert backend.calls == 3

    def test_auth_error_not_retried(self):
        backend = _FlakyBackend(failures=5, exc=AuthenticationError("denied"))
        client = LlmClient(chat_backend=backend, sleep=lambda _: None)
        with pytest.raises(AuthenticationError):
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert backend.calls == 1

    def test_schema_retry_budget_exhausted(self):
        bad = json.dumps(staging_body("T9"))
        backend = _RecordingBackend([bad, bad, bad, bad])
        client = LlmClient(chat_backend=backend)
        with pytest.raises(SchemaViolationError):
            client.chat(ChatRequest(user="q", schema=STAGING_T))
        assert len(backend.requests) == 4  # initial + 3 retries

    def test_corrective_instruction_names_constraint(self):
        backend = _RecordingBackend(
            [json.dumps(staging_body("T9")), json.dumps(staging_body("T1"))]
        )
        client = LlmClient(chat_backend=backend)
        client.chat(ChatRequest(user="base question", schema=STAGING_T))
        retry_text = backend.requests[1].user
        assert retry_text.startswith("base question")
        assert "T9" in retry_text  # names the violated constraint
        assert "T1, T2, T3, T4" in retry_text


# adversarial bodies: whatever the script replies, chat() either returns a
# schema-valid output or raises
_adversarial_body = st.one_of(
    st.fixed_dictionaries({"reasoning": st.text(max_size=5), "stage": st.text(max_size=3)}),
    st.fixed_dictionaries({"stage": st.sampled_from(["T1", "T2", "T9", "N1", ""])}),
    st.fixed_dictionaries(
        {
            "reasoning": st.text(max_size=5),
            "stage": st.sampled_from(["T1", "T2", "T3", "T4"]),
            "rules": st.lists(st.text(max_size=4), max_size=3),
        }
    ),
    st.fixed_dictionaries({"raw_text": st.text(max_size=10)}),
)


@given(bodies=st.lists(_adversarial_body, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_chat_output_always_validates(bodies):
    entries = [{"kind": "chat", "body": b} for b in bodies]
    client, _ = scripted_client(entries)
    request = ChatRequest(user="q", schema=STAGING_T)
    try:
        out = client.chat(request)
    except (SchemaViolationError, ScriptExhaustedError):
        return
    assert out.stage is not None
    assert out.stage.category is T
    assert out.reasoning is not None


# reply bodies: any bytes, and JSON built from the fields of chat and
# embedding replies, so the field checks behind the decoder run too
_reply_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["choices", "message", "content", "finish_reason", "data", "index",
                         "embedding", "model"]), inner, max_size=4),
    max_leaves=12,
)
_reply_body = st.binary(max_size=64) | _reply_json.map(lambda value: json.dumps(value).encode())


def test_any_reply_an_endpoint_sends_ends_as_an_llm_error(loopback_endpoints):
    """Whatever body an endpoint sends with a 200, 400, 429 or 500, chat and
    embed return or raise an LlmError, never another exception."""
    endpoint = loopback_endpoints()
    client = LlmClient(chat_backend=HttpChatBackend(endpoint.url),
                       embed_backend=HttpEmbedBackend(endpoint.url), sleep=lambda _: None)
    calls = (lambda: client.chat(ChatRequest(user="q", schema=STAGING_T)),
             lambda: client.embed(["a", "b"]))

    # built inside the test, so hypothesis reuses the one endpoint
    @given(status=st.sampled_from([200, 400, 429, 500]), body=_reply_body)
    @settings(max_examples=200, deadline=None)
    def check(status, body):
        for call in calls:
            endpoint.replies.clear()  # the replies a call before left unread
            endpoint.replies.extend([Reply(status=status, body=body)] * TRANSPORT_ATTEMPTS)
            try:
                call()
            except LlmError:
                pass

    check()


def test_chat_replay_is_deterministic():
    entries = [chat_entry(staging_body("T2")), chat_entry(staging_body("T4"))]
    outs = []
    for _ in range(2):
        client, _ = scripted_client(entries)
        outs.append(
            [client.chat(ChatRequest(user="q", schema=STAGING_T)) for _ in range(2)]
        )
    assert outs[0] == outs[1]
