from __future__ import annotations

import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from stagepipe import memory, pipelines
from stagepipe.corpus import StageCategory, StageLabel
from stagepipe.llm import LlmClient, ScriptedBackend, TransportError
from stagepipe.memory import RuleMemory
from stagepipe.pipelines import (
    CHUNK_SEPARATOR,
    PipelineError,
    PredictionRecord,
    elicit_kewrag_rules,
    induce_ltm,
    infer,
    record_from_json,
    record_to_json,
    run_kewltm_inference,
    run_rag,
)
from stagepipe.prompts import default_templates, render
from stagepipe.retrieval import DEFAULT_QUERIES, Chunk, RetrievalError, build_index
from .conftest import (
    REPORT_ID,
    ContentKeyedBackend,
    chat_entry,
    make_report,
    rules_body,
    scripted_client,
    staging_body,
)

T = StageCategory.T


def reports(n: int):
    return [make_report(f"r{i:02d}", t="T1") for i in range(n)]


def embed_script(texts: list[str], extra: dict | None = None) -> dict:
    mapping = {t: [1.0, float(i + 1)] for i, t in enumerate(texts)}
    mapping.update(extra or {})
    return {"kind": "embed", "body": {"map": mapping}}


def guideline_index(client: LlmClient, texts: list[str]):
    chunks = [Chunk(i, t, (0, len(t))) for i, t in enumerate(texts)]
    return build_index(chunks, client.embed, "dochash")


def spy_embeds(backend) -> list[list[str]]:
    """Each batch of texts that `backend` embeds from now on, in call order."""
    embedded: list[list[str]] = []
    original = backend.embed

    def spy(texts):
        embedded.append(list(texts))
        return original(texts)

    backend.embed = spy
    return embedded


def rag_call(mode: str, n_reports: int = 1, k: int = 2):
    """A `run_rag` call over `n_reports` reports that takes the index and client."""
    return lambda index, client: run_rag(
        reports(n_reports), T, client, index, k=k, rag_query_mode=mode
    )


class TestRunZscot:
    def test_single_report(self):
        client, _ = scripted_client([chat_entry(staging_body("T1"))])
        (record,) = infer("zscot", reports(1), T, client)
        assert record.predicted == StageLabel.parse("T1")
        assert record.method == "zscot"
        assert record.memory_version is None
        assert record.retrieved_chunk_ids is None

    def test_unparseable_after_retries_continues_batch(self):
        bad = staging_body("T7")
        entries = [chat_entry(bad)] * 4 + [chat_entry(staging_body("T2"))]
        client, _ = scripted_client(entries)
        records = infer("zscot", reports(2), T, client)
        assert records[0].predicted is None
        assert records[0].reasoning == ""
        assert records[1].predicted == StageLabel.parse("T2")

    def test_one_record_per_report(self):
        n = 20
        client, backend = scripted_client([chat_entry(staging_body("T1"))] * n)
        records = infer("zscot", reports(n), T, client)
        assert len(records) == n
        assert backend.chat_calls == n
        assert [r.report_id for r in records] == sorted(r.report_id for r in records)

    def test_empty_reports_rejected(self):
        client, _ = scripted_client([])
        with pytest.raises(PipelineError):
            infer("zscot", [], T, client)

    @pytest.mark.parametrize("category", [T, StageCategory.N])
    def test_prompt_is_the_categorys_template(self, category):
        # the category alone decides the template set a pipeline renders
        report = make_report("r00", t="T2", n="N1")
        stage = report.gold[category].render()
        client, backend = scripted_client([chat_entry(staging_body(stage))])
        captured = []
        original = backend.complete

        def spy(request):
            captured.append(request.user)
            return original(request)

        backend.complete = spy
        (record,) = infer("zscot", [report], category, client)
        template = default_templates(category)["zscot_inference"]
        assert captured == [render(template, {"report": report.text}).user]
        assert record.predicted == report.gold[category]


class TestRunRag:
    def _client(self, n_chat: int, chunk_texts: list[str]):
        entries = [embed_script(chunk_texts, extra={DEFAULT_QUERIES[T]: [1.0, 0.0]})]
        entries += [chat_entry(staging_body("T1"))] * n_chat
        return scripted_client(entries)

    def test_same_chunk_ids_on_every_record(self):
        texts = [f"chunk number {i}" for i in range(10)]
        client, backend = self._client(4, texts)
        index = guideline_index(client, texts)
        records = run_rag(reports(4), T, client, index, k=5)
        assert len(records) == 4
        id_sets = {r.retrieved_chunk_ids for r in records}
        assert len(id_sets) == 1
        assert len(records[0].retrieved_chunk_ids) == 5

    def test_single_retrieval_pass(self):
        texts = ["chunk a", "chunk b"]
        client, backend = self._client(3, texts)
        index = guideline_index(client, texts)
        embeds_before = backend.embed_calls
        run_rag(reports(3), T, client, index, k=2)
        assert backend.embed_calls - embeds_before == 1

    def test_k_clamped(self):
        texts = ["chunk a", "chunk b"]
        client, _ = self._client(1, texts)
        index = guideline_index(client, texts)
        records = run_rag(reports(1), T, client, index, k=99)
        assert len(records[0].retrieved_chunk_ids) == 2

    @pytest.mark.parametrize("category", list(StageCategory), ids=lambda c: c.value)
    def test_guideline_retrievals_embed_the_categorys_query(self, category):
        texts = ["chunk a", "chunk b"]
        query = DEFAULT_QUERIES[category]
        stage = "T1" if category is T else "N0"
        entries = [embed_script(texts, extra={query: [1.0, 0.0]})]
        entries += [chat_entry(rules_body(stage, ["a rule"]))] * 3
        client, backend = scripted_client(entries)
        index = guideline_index(client, texts)
        embedded = spy_embeds(backend)
        run_rag(reports(2), category, client, index, k=1)
        assert embedded == [[query]]
        elicit_kewrag_rules(index, category, client, k=1)
        assert embedded == [[query], [query]]

    def test_chunks_bound_in_rank_order(self):
        texts = ["first chunk", "second chunk"]
        client, backend = self._client(1, texts)
        index = guideline_index(client, texts)

        captured = []
        original = backend.complete

        def spy(request):
            captured.append(request.user)
            return original(request)

        backend.complete = spy
        run_rag(reports(1), T, client, index, k=2)
        assert CHUNK_SEPARATOR in captured[0]

    def test_report_text_mode_retrieves_per_report(self):
        vectors = {"chunk a": [1.0, 0.0], "chunk b": [0.0, 1.0], "chunk c": [1.0, 1.0]}
        # each report's query ranks the three chunks in its own order
        queries = {"r00": [1.0, 0.1], "r01": [0.1, 1.0], "r02": [1.0, 1.0]}
        vectors.update({f"pathology report body for {rid}": v for rid, v in queries.items()})
        entries = [{"kind": "embed", "body": {"map": vectors}}]
        entries += [chat_entry(staging_body("T1"))] * 3
        client, backend = scripted_client(entries)
        index = guideline_index(client, ["chunk a", "chunk b", "chunk c"])
        embedded = spy_embeds(backend)
        records = run_rag(reports(3), T, client, index, k=3, rag_query_mode="report-text")
        # one embed per report, of its text alone, and no guideline query
        assert sorted(embedded) == [[r.text] for r in reports(3)]
        # ties break by chunk id: r02 scores a and b alike
        assert [r.retrieved_chunk_ids for r in records] == [(0, 2, 1), (1, 2, 0), (2, 0, 1)]

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (rag_call("guidline"), PipelineError, "unknown rag_query_mode 'guidline'"),
            (rag_call("guideline", n_reports=0), PipelineError, "no reports to run"),
            (rag_call("guideline", k=0), RetrievalError, "k must be positive, got 0"),
            (rag_call("report-text", n_reports=3, k=0), RetrievalError, "k must be positive, got 0"),
            (lambda index, client: elicit_kewrag_rules(index, T, client, k=0),
             RetrievalError, "k must be positive, got 0"),
            # no context would bind an empty {chunks}
            (lambda index, client: infer("rag", reports(1), T, client),
             PipelineError, "cannot run rag inference without a context"),
        ],
        ids=["misspelt-mode", "no-reports", "k-zero-guideline", "k-zero-report-text",
             "k-zero-kewrag", "rag-infer-without-context"],
    )
    def test_bad_call_fails_before_any_model_call(self, call, error, message):
        texts = ["chunk a", "chunk b"]
        client, backend = self._client(1, texts)
        index = guideline_index(client, texts)
        embeds_before = backend.embed_calls
        with pytest.raises(error, match=message):
            call(index, client)
        assert (backend.embed_calls - embeds_before, backend.chat_calls) == (0, 0)


class TestInduceLtm:
    def test_identical_rules_hand_trace(self):
        # three steps proposing the same rules at threshold 80:
        # step 1 unconditional, steps 2-3 accepted at similarity 100
        rules = ["size under 2 cm means stage one", "size above 5 cm means stage three"]
        entries = [chat_entry(rules_body("T1", rules))] * 3
        client, _ = scripted_client(entries)
        result = induce_ltm(reports(3), T, client, threshold=80.0)
        assert len(result.traces) == 3
        assert result.final_memory.rules == tuple(rules)
        assert result.final_memory.version == 3
        assert [t.accepted for t in result.traces] == [True, True, True]
        assert result.traces[1].similarity == 100.0
        assert result.traces[2].similarity == 100.0

    def test_divergent_step_rejected(self):
        entries = [
            chat_entry(rules_body("T1", ["aaaaa", "bbbbb"])),
            chat_entry(rules_body("T2", ["zzzzz", "qqqqq"])),  # wholly different
        ]
        client, _ = scripted_client(entries)
        result = induce_ltm(reports(2), T, client, threshold=80.0)
        assert [t.accepted for t in result.traces] == [True, False]
        assert result.final_memory.rules == ("aaaaa", "bbbbb")
        assert result.final_memory.version == 1

    def test_threshold_zero_accepts_growing_lists(self):
        growing = [["rule 1"], ["rule 1", "rule 2"], ["rule 1", "rule 2", "rule 3"]]
        entries = [chat_entry(rules_body("T1", rs)) for rs in growing]
        client, _ = scripted_client(entries)
        result = induce_ltm(reports(3), T, client, threshold=0.0)
        assert all(t.accepted for t in result.traces)
        lens = [t.current_len for t in result.traces]
        assert lens == sorted(lens)  # appends only -> nondecreasing
        assert result.final_memory.version == 3

    def test_consumes_exactly_the_given_reports_in_order(self):
        entries = [chat_entry(rules_body("T1", [f"rule {i}"])) for i in range(5)]
        client, backend = scripted_client(entries)
        prompts = []
        original = backend.complete

        def spy(request):
            prompts.append(request.user)
            return original(request)

        backend.complete = spy
        result = induce_ltm(reports(5)[:3], T, client, threshold=0.0)
        assert [t.step for t in result.traces] == [1, 2, 3]
        assert backend.chat_calls == 3
        for i, prompt in enumerate(prompts):
            assert f"report body for r{i:02d}" in prompt

    def test_unparseable_step_skipped(self, monkeypatch):
        # every step goes through the gate once, as the benchmark counts one
        # memory.gated_update per step; an unparseable step gates no distance
        bad = {"reasoning": "no rules field", "stage": "T1"}
        entries = (
            [chat_entry(rules_body("T1", ["aaaaa"]))]
            + [chat_entry(bad)] * 4  # step 2: exhausts retry budget
            + [chat_entry(rules_body("T1", ["aaaaa"]))]
        )
        client, backend = scripted_client(entries)
        gated, distances = [], []
        real_gate, real_distance = memory.gated_update, memory.edit_distance

        def counting_gate(mem, candidate, threshold, step, **kwargs):
            gated.append((step, candidate))
            return real_gate(mem, candidate, threshold, step, **kwargs)

        def counting_distance(a, b):
            distances.append(gated[-1][0])
            return real_distance(a, b)

        for module in (memory, pipelines):  # pipelines binds the gate by name
            monkeypatch.setattr(module, "gated_update", counting_gate)
        monkeypatch.setattr(memory, "edit_distance", counting_distance)
        result = induce_ltm(reports(3), T, client, threshold=80.0)
        assert gated == [(1, ("aaaaa",)), (2, None), (3, ("aaaaa",))]
        assert distances == [1, 3]
        assert [t.accepted for t in result.traces] == [True, False, True]
        skipped = result.traces[1]
        assert skipped.similarity == 0.0
        assert skipped.proposed_len == 0
        assert skipped.current_len == len("aaaaa")
        assert backend.chat_calls == 6  # the unparseable step spent its 4 attempts
        assert result.final_memory.version == 2

    def test_elicit_reused_until_first_acceptance(self):
        bad = {"reasoning": "x", "stage": "T1"}  # missing rules
        entries = [chat_entry(bad)] * 4 + [
            chat_entry(rules_body("T1", ["finally a rule"]))
        ]
        client, backend = scripted_client(entries)
        captured = []
        original = backend.complete

        def spy(request):
            captured.append(request.template_id)
            return original(request)

        backend.complete = spy
        result = induce_ltm(reports(2), T, client, threshold=80.0)
        # step 1 failed entirely, so step 2 still runs the elicit template
        assert set(captured) == {"ltm_elicit"}
        assert result.final_memory.rules == ("finally a rule",)

    def test_transport_failure_aborts(self):
        class Dying:
            deterministic = True
            model_id = "dying"

            def complete(self, request):
                raise TransportError("gone", retryable=False)

        client = LlmClient(chat_backend=Dying())
        with pytest.raises(TransportError):
            induce_ltm(reports(2), T, client, threshold=80.0)

    def test_replay_reproduces_traces_and_memory(self):
        entries = [
            chat_entry(rules_body("T1", ["aaaaa", "bbbbb"])),
            chat_entry(rules_body("T1", ["aaaaa", "bbbbx"])),
            chat_entry(rules_body("T2", ["zzzzz"])),
        ]
        results = []
        for _ in range(2):
            client, _ = scripted_client(entries)
            results.append(induce_ltm(reports(3), T, client, threshold=80.0))
        assert results[0].traces == results[1].traces
        assert results[0].final_memory == results[1].final_memory


class TestKewltmInference:
    def test_frozen_memory_version_on_all_records(self):
        memory = RuleMemory(T, ("rule one", "rule two"), version=7)
        client, _ = scripted_client([chat_entry(staging_body("T1"))] * 4)
        records = run_kewltm_inference(reports(4), T, memory, client)
        assert len(records) == 4
        assert {r.memory_version for r in records} == {7}
        assert {r.method for r in records} == {"kewltm"}
        assert all(r.retrieved_chunk_ids is None for r in records)

    def test_empty_memory_rejected(self):
        client, _ = scripted_client([])
        with pytest.raises(PipelineError):
            run_kewltm_inference(
                reports(1), T, RuleMemory(T, (), version=0), client
            )


class TestElicitKewrag:
    def _setup(self, texts: list[str], elicit_rules: list[str], n_chat: int = 0):
        entries = [embed_script(texts, extra={DEFAULT_QUERIES[T]: [1.0, 0.0]})]
        entries.append(chat_entry({"rules": elicit_rules}))
        entries += [chat_entry(staging_body("T1"))] * n_chat
        client, backend = scripted_client(entries)
        index = guideline_index(client, texts)
        return client, backend, index

    def test_six_rules_version_one(self):
        rules = [f"synthesized rule {i}" for i in range(6)]
        client, _, index = self._setup([f"chunk {i}" for i in range(8)], rules)
        elicited = elicit_kewrag_rules(index, T, client, k=5)
        assert len(elicited.memory.rules) == 6
        assert elicited.memory.version == 1
        assert len(elicited.chunk_ids) == 5

    def test_exactly_k_chunks_bound(self):
        texts = [f"guideline paragraph {i}" for i in range(8)]
        client, backend, index = self._setup(texts, ["r"])
        captured = []
        original = backend.complete

        def spy(request):
            captured.append(request.user)
            return original(request)

        backend.complete = spy
        elicit_kewrag_rules(index, T, client, k=5)
        bound = [t for t in texts if t in captured[0]]
        assert len(bound) == 5

    def test_unparseable_elicitation_terminal(self):
        texts = ["chunk a"]
        entries = [embed_script(texts, extra={DEFAULT_QUERIES[T]: [1.0, 0.0]})]
        entries += [chat_entry({"no": "rules"})] * 4
        client, _ = scripted_client(entries)
        index = guideline_index(client, texts)
        with pytest.raises(PipelineError, match="synthesis"):
            elicit_kewrag_rules(index, T, client, k=1)


class TestKewragInference:
    def test_zero_retrieval_calls_during_inference(self):
        rules = RuleMemory(T, ("rule one",), version=1)
        n = 8
        client, backend = scripted_client([chat_entry(staging_body("T1"))] * n)
        before = backend.embed_calls
        records = infer(
            "kewrag", reports(n), T, client, rules=rules, chunk_ids=(0, 1)
        )
        assert backend.embed_calls == before == 0
        assert backend.chat_calls == n
        assert len(records) == n
        assert {r.retrieved_chunk_ids for r in records} == {(0, 1)}
        assert {r.memory_version for r in records} == {1}

    def test_reuses_inference_machinery_with_any_rules(self):
        ltm_style = RuleMemory(T, ("borrowed rule",), version=4)
        client, _ = scripted_client([chat_entry(staging_body("T2"))])
        (record,) = infer(
            "kewrag", reports(1), T, client, rules=ltm_style, chunk_ids=()
        )
        assert record.method == "kewrag"
        assert record.predicted == StageLabel.parse("T2")

    def test_empty_rules_rejected(self):
        client, _ = scripted_client([])
        with pytest.raises(PipelineError):
            infer("kewrag", reports(1), T, client, rules=RuleMemory(T, (), version=0))


class TestConcurrentInference:
    def test_width_bounds_calls_in_flight_and_keeps_records(self):
        wide = ContentKeyedBackend(barrier=threading.Barrier(4, timeout=10))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
        try:
            records = infer(
                "zscot", reports(12), T, LlmClient(chat_backend=wide, max_in_flight=4)
            )
        finally:
            sys.setswitchinterval(interval)
        assert wide.peak == 4  # the barrier lets 4 through together, the pool no more
        narrow = ContentKeyedBackend()
        sequential = infer(
            "zscot", reports(12), T, LlmClient(chat_backend=narrow, max_in_flight=1)
        )
        assert narrow.peak == 1
        assert narrow.started == [f"r{i:02d}" for i in range(12)]
        assert records == sequential
        assert len({r.predicted for r in records}) > 1

    def test_callers_sharing_a_client_share_its_bound(self):
        # every call lingers a little, so the calls of the two runs overlap
        backend = ContentKeyedBackend(barrier=SimpleNamespace(wait=lambda: time.sleep(0.005)))
        client = LlmClient(chat_backend=backend, max_in_flight=2)
        results = []
        runs = [
            threading.Thread(target=lambda: results.append(infer("zscot", reports(8), T, client)))
            for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        assert backend.peak <= 2  # each run's pool is 2 wide; the client admits 2 calls in all
        assert len(backend.calls) == 16
        assert results[0] == results[1]

    def test_terminal_failure_starts_no_further_report(self):
        backend = ContentKeyedBackend(barrier=threading.Barrier(4, timeout=10), fail_id="r02")
        client = LlmClient(chat_backend=backend, max_in_flight=4)
        with pytest.raises(TransportError) as info:
            infer("zscot", reports(12), T, client)
        assert info.value is backend.error
        # the first four were in flight together; none of the eight queued started
        assert sorted(backend.started) == ["r00", "r01", "r02", "r03"]

    def test_terminal_failure_one_at_a_time_stops_at_the_failing_report(self):
        backend = ContentKeyedBackend(fail_id="r05")
        client = LlmClient(chat_backend=backend, max_in_flight=1)
        with pytest.raises(TransportError) as info:
            infer("zscot", reports(12), T, client)
        assert info.value is backend.error
        assert backend.started == [f"r{i:02d}" for i in range(6)]

    def test_scripted_backend_replays_script_in_report_order(self):
        stages = ["T1", "T2", "T3", "T4", "T2", "T1", "T3", "T3"]
        entries = [
            chat_entry(staging_body(stage, reasoning=f"call {i}"))
            for i, stage in enumerate(stages, 1)
        ]
        backend = ScriptedBackend(entries)
        client = LlmClient(chat_backend=backend, embed_backend=backend, max_in_flight=4)
        assert client.max_in_flight == 1
        records = infer("zscot", reports(len(stages)), T, client)
        assert [r.predicted.render() for r in records] == stages
        assert [r.reasoning for r in records] == [f"call {i}" for i in range(1, 9)]


def report_text_rag(backend, n: int, max_in_flight: int) -> list[PredictionRecord]:
    """Report-text RAG over `n` reports, each endpoint bounded at `max_in_flight`."""
    client = LlmClient(chat_backend=backend, embed_backend=backend, max_in_flight=max_in_flight)
    index = guideline_index(client, [f"guideline chunk {i}" for i in range(6)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
    try:
        return run_rag(
            reports(n), T, client, index, k=3,
            rag_query_mode="report-text",
        )
    finally:
        sys.setswitchinterval(interval)


class TestReportTextRagConcurrency:
    """Each report embeds its query, then makes its chat call; the client
    bounds the two endpoints apart."""

    def test_each_endpoint_keeps_its_own_bound(self):
        wide = ContentKeyedBackend(
            barrier=threading.Barrier(2, timeout=10), embed_barrier=threading.Barrier(2, timeout=10)
        )
        records = report_text_rag(wide, 16, max_in_flight=2)
        # each barrier lets 2 calls of its kind through together, the client no more
        assert (wide.peak, wide.embed_peak) == (2, 2)
        narrow = ContentKeyedBackend()
        narrow.replays_in_call_order = True  # so the client runs one call at a time
        assert records == report_text_rag(narrow, 16, max_in_flight=2)
        assert (narrow.peak, narrow.embed_peak) == (1, 1)
        # the reports retrieve different chunks, so the comparison above
        # would show a mix-up between reports that ran together
        assert len({r.retrieved_chunk_ids for r in records}) > 1

    def test_embeds_run_while_the_chat_slots_are_held(self):
        m = 2
        backend = ContentKeyedBackend(embed_hold={f"r{2 * m - 1:02d}"})

        def first_round_only():
            backend.barrier = backend.embed_barrier = None

        # m chat calls and the embed of the last report of the pool's first
        # wave pass only together, which one slot pool for both roles would
        # never admit
        backend.barrier = backend.embed_barrier = threading.Barrier(
            m + 1, action=first_round_only, timeout=10
        )
        records = report_text_rag(backend, 2 * m, max_in_flight=m)
        assert len(records) == 2 * m
        assert backend.peak == m
        assert f"r{2 * m - 1:02d}" not in backend.started[:m]

    def test_call_order_replay_runs_one_call_at_a_time_in_report_order(self):
        n = 4
        texts = [f"guideline chunk {i}" for i in range(3)]
        queries = {f"pathology report body for r{i:02d}": [1.0, float(i)] for i in range(n)}
        entries = [embed_script(texts, extra=queries)] + [chat_entry(staging_body("T1"))] * n
        client, backend = scripted_client(entries)
        assert client.max_in_flight_total == 1
        index = guideline_index(client, texts)
        events = []

        def spy(role, call):
            def traced(arg):
                text = arg[0] if role == "embed" else arg.user
                events.append((role, REPORT_ID.search(text).group(1)))
                result = call(arg)
                events.append("done")
                return result
            return traced

        backend.embed = spy("embed", backend.embed)
        backend.complete = spy("chat", backend.complete)
        run_rag(
            reports(n), T, client, index, k=2,
            rag_query_mode="report-text",
        )
        assert events == [
            event for i in range(n)
            for event in (("embed", f"r{i:02d}"), "done", ("chat", f"r{i:02d}"), "done")
        ]

    def test_embed_failure_starts_no_further_report(self, failure_recorded):
        m = 2
        # every chat call waits until the failure is recorded, so no report
        # finishes and frees a pool thread before it
        backend = ContentKeyedBackend(
            barrier=SimpleNamespace(wait=lambda: None), fail_id="r01", fail_embed=True,
            release=failure_recorded,
        )
        with pytest.raises(TransportError) as info:
            report_text_rag(backend, 12, max_in_flight=m)
        assert info.value is backend.error
        first_wave = {f"r{i:02d}" for i in range(2 * m)}
        assert "r01" in backend.embedded
        assert set(backend.embedded) <= first_wave
        assert set(backend.started) <= first_wave - {"r01"}


class TestPredictionRecord:
    def test_method_field_coupling(self):
        with pytest.raises(PipelineError):
            PredictionRecord("r1", T, None, "", "zscot", memory_version=1)
        with pytest.raises(PipelineError):
            PredictionRecord("r1", T, None, "", "kewltm")
        with pytest.raises(PipelineError):
            PredictionRecord("r1", T, None, "", "rag")
        with pytest.raises(PipelineError):
            PredictionRecord("r1", T, None, "", "zscot", retrieved_chunk_ids=(1,))

    # the methods whose records carry each optional field, and a value for it
    CARRIERS = {"memory_version": ("kewltm/kewrag", 1), "retrieved_chunk_ids": ("rag/kewrag", (1,))}

    @pytest.mark.parametrize("method", ["zscot", "rag", "kewltm", "kewrag"])
    @pytest.mark.parametrize("field", list(CARRIERS))
    @pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
    def test_each_method_carries_exactly_its_fields(self, method, field, present):
        # every other field as `method` wants it, `field` present or absent
        fields = {name: value if method in carriers.split("/") else None
                  for name, (carriers, value) in self.CARRIERS.items()}
        carriers, value = self.CARRIERS[field]
        fields[field] = value if present else None
        if present == (method in carriers.split("/")):
            record = PredictionRecord("r1", T, None, "", method, **fields)
            assert getattr(record, field) == fields[field]
        else:
            with pytest.raises(PipelineError) as info:
                PredictionRecord("r1", T, None, "", method, **fields)
            assert str(info.value) == (
                f"{field} must be present iff method is {carriers} (method={method})"
            )

    def test_field_messages_name_their_methods(self):
        with pytest.raises(PipelineError) as info:
            PredictionRecord("r1", T, None, "", "zscot", memory_version=1)
        assert str(info.value) == (
            "memory_version must be present iff method is kewltm/kewrag (method=zscot)"
        )
        with pytest.raises(PipelineError) as info:
            PredictionRecord("r1", T, None, "", "kewrag", memory_version=1)
        assert str(info.value) == (
            "retrieved_chunk_ids must be present iff method is rag/kewrag (method=kewrag)"
        )
        with pytest.raises(PipelineError) as info:
            PredictionRecord("r1", T, None, "", "bogus")
        assert str(info.value) == "unknown method 'bogus'"

    def test_category_consistency(self):
        with pytest.raises(PipelineError):
            PredictionRecord("r1", T, StageLabel.parse("N1"), "", "zscot")

    def test_json_round_trip(self):
        rec = PredictionRecord(
            "r1", T, StageLabel.parse("T3"), "why", "kewrag",
            memory_version=1, retrieved_chunk_ids=(0, 2), timing_ms=5,
        )
        assert record_from_json(json.loads(json.dumps(record_to_json(rec)))) == rec

    def test_unparseable_round_trip(self):
        rec = PredictionRecord("r1", T, None, "", "zscot")
        obj = record_to_json(rec)
        assert obj["predicted"] == "unparseable"
        assert record_from_json(obj) == rec

    def test_extra_keys_tolerated(self):
        rec = PredictionRecord("r1", T, StageLabel.parse("T1"), "", "zscot")
        obj = record_to_json(rec, split=3)
        assert obj["split"] == 3
        assert record_from_json(obj) == rec


def test_scripted_pipelines_are_byte_deterministic():
    entries = (
        [chat_entry(rules_body("T1", ["aaaaa", "bbbbb"]))] * 2
        + [chat_entry(staging_body("T1"))] * 3
    )
    dumps = []
    for _ in range(2):
        client, _ = scripted_client(entries)
        result = induce_ltm(reports(2), T, client, threshold=80.0)
        records = run_kewltm_inference(
            reports(3), T, result.final_memory, client
        )
        dumps.append(json.dumps([record_to_json(r) for r in records]))
    assert dumps[0] == dumps[1]
