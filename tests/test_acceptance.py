"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import time

import numpy as np
import pytest

from stagepipe.cli import _build_client, build_parser, main, resolve_config
from stagepipe.corpus import Corpus, Report, StageCategory, StageLabel, make_splits
from stagepipe.evaluation import aggregate_runs, format_error_pct, score
from stagepipe.memory import gated_update, similarity, write_traces
from stagepipe.pipelines import (
    PredictionRecord,
    elicit_kewrag_rules,
    induce_ltm,
    infer,
    run_rag,
)
from stagepipe.retrieval import DEFAULT_QUERIES, Chunk, build_index, top_k
from .conftest import chat_entry, make_report, rules_body, scripted_client, staging_body

T = StageCategory.T
T_LABELS = ["T1", "T2", "T3", "T4"]

SPLIT_DIGEST = "34c1767381570acf0764598578ca43af27ad2b6c96d3b43940f365a0cd82eadf"


def _passed(name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{name} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_metrics_oracle():
    """score() matches a brute-force TP/FP/FN recount on 1,000 random sets."""
    started = time.perf_counter()
    rng = random.Random(20240501)
    for _ in range(1000):
        n = rng.randrange(1, 51)
        gold = {f"r{i}": rng.choice(T_LABELS) for i in range(n)}
        corpus = Corpus(tuple(make_report(rid, t=lab) for rid, lab in gold.items()))
        preds = {rid: rng.choice(T_LABELS + [None]) for rid in gold}
        records = [
            PredictionRecord(
                report_id=rid,
                category=T,
                predicted=StageLabel.parse(p) if p else None,
                reasoning="",
                method="zscot",
            )
            for rid, p in preds.items()
        ]
        block = score(records, corpus, T)
        confusion = block["confusion"]
        assert confusion["labels"] == T_LABELS
        counts, unparseable = np.asarray(confusion["counts"]), np.asarray(confusion["unparseable"])
        macro_p = macro_r = macro_f = 0.0
        for idx, lab in enumerate(T_LABELS):
            tp = sum(1 for rid in gold if gold[rid] == lab and preds[rid] == lab)
            fp = sum(1 for rid in gold if gold[rid] != lab and preds[rid] == lab)
            fn = sum(1 for rid in gold if gold[rid] == lab and preds[rid] != lab)
            # integer counts must match exactly
            assert int(counts[idx, idx]) == tp
            assert int(counts[:, idx].sum() - counts[idx, idx]) == fp
            assert (
                int(
                    counts[idx, :].sum()
                    - counts[idx, idx]
                    + unparseable[idx]
                )
                == fn
            )
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            cm = block["per_class"][idx]
            assert abs(cm["precision"] - p) < 1e-12
            assert abs(cm["recall"] - r) < 1e-12
            assert abs(cm["f1"] - f1) < 1e-12
            macro_p += p / 4
            macro_r += r / 4
            macro_f += f1 / 4
        macro = block["macro"]
        assert abs(macro["precision"] - macro_p) < 1e-12
        assert abs(macro["recall"] - macro_r) < 1e-12
        assert abs(macro["f1"] - macro_f) < 1e-12
    _passed("metrics-oracle", started, 5.0)


def test_error_percentage_arithmetic():
    """The nine reference (count,total) pairs render the printed percentages."""
    started = time.perf_counter()
    expected = [
        (110, 800, "13.8%"),
        (102, 800, "12.8%"),
        (148, 800, "18.5%"),
        (132, 800, "16.5%"),
        (85.50, 700, "12.2%"),
        (82.12, 700, "11.7%"),
        (122, 800, "15.3%"),
        (113, 800, "14.1%"),
        (115.50, 700, "16.5%"),
    ]
    for count, total, rendered in expected:
        assert format_error_pct(count, total) == rendered, (count, total)
    _passed("error-percentage-arithmetic", started, 1.0)


def _naive_levenshtein(a: str, b: str) -> int:
    @functools.cache
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def test_levenshtein_oracle():
    """10,000 random pairs match the recursive definition; metric axioms hold."""
    started = time.perf_counter()
    from stagepipe.memory import edit_distance

    rng = random.Random(7)
    alphabet = "abcxé "

    def random_string() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 13)))

    for _ in range(10_000):
        a, b = random_string(), random_string()
        assert edit_distance(a, b) == _naive_levenshtein(a, b), (a, b)
    for _ in range(1_000):
        a, b, c = random_string(), random_string(), random_string()
        dab, dba = edit_distance(a, b), edit_distance(b, a)
        assert dab == dba, (a, b)
        assert edit_distance(a, c) <= dab + edit_distance(b, c), (a, b, c)
        assert (edit_distance(a, b) == 0) == (a == b)
    _passed("levenshtein-oracle", started, 30.0)


def test_gating_semantics():
    """Threshold boundary, threshold 0, and the unconditional first step."""
    started = time.perf_counter()
    from stagepipe.memory import RuleMemory

    # distance 1 over max length 5 -> similarity exactly 80.0: accepted
    base = RuleMemory(T, ("abcde",), version=1)
    assert similarity("abcdf", "abcde") == 80.0
    _, trace = gated_update(base, ["abcdf"], 80.0, 2)
    assert trace.accepted and trace.similarity == 80.0

    # distance 20001 over max length 100000 -> 79.999: rejected
    long_base = RuleMemory(T, ("x" * 100000,), version=1)
    _, trace = gated_update(long_base, ["x" * 79999], 80.0, 2)
    assert not trace.accepted
    assert 79.99 < trace.similarity < 80.0

    # threshold 0 accepts every candidate
    mem, _ = gated_update(None, ["first"], 0.0, 1, category=T)
    for step in range(2, 8):
        mem, trace = gated_update(mem, [f"entirely different rule set {step}"], 0.0, step)
        assert trace.accepted
    assert mem.version == 7

    # first-step candidates are always accepted, whatever the threshold
    for threshold in (0.0, 80.0, 100.0):
        first, trace = gated_update(None, ["anything at all"], threshold, 1, category=T)
        assert trace.accepted and first.version == 1
    _passed("gating-semantics", started, 1.0)


def _induction_script() -> list[dict]:
    """5-report induction: unconditional accept, then accept/reject/accept/reject."""
    return [
        chat_entry(rules_body("T1", ["aaaaa", "bbbbb"])),   # step 1: accept (empty)
        chat_entry(rules_body("T1", ["aaaaa", "bbbbx"])),   # step 2: d=1/11 -> accept
        chat_entry(rules_body("T2", ["zzzzz", "qqqqq"])),   # step 3: d=10/11 -> reject
        chat_entry(rules_body("T1", ["aaaaa", "bbbbxc"])),  # step 4: d=1/12 -> accept
        chat_entry(rules_body("T3", ["ppppp", "rrrrr"])),   # step 5: far -> reject
    ]


def test_algorithm1_replay(tmp_path):
    """Hand-traced 5-step induction is bit-reproducible across two runs."""
    started = time.perf_counter()
    reports = [make_report(f"r{i:02d}", t="T1") for i in range(5)]
    results = []
    for run in range(2):
        client, _ = scripted_client(_induction_script())
        result = induce_ltm(reports, T, client, threshold=80.0)
        write_traces(result.traces, tmp_path / f"trace_run{run}.csv")
        results.append(result)
    first, second = results
    assert (tmp_path / "trace_run0.csv").read_bytes() == (
        tmp_path / "trace_run1.csv"
    ).read_bytes()
    assert first.final_memory == second.final_memory
    assert first.final_memory.rules == ("aaaaa", "bbbbxc")
    assert first.final_memory.version == 3  # three acceptances
    assert [t.accepted for t in first.traces] == [True, True, False, True, False]
    # similarities match the independent recursive oracle
    candidates = ["aaaaa\nbbbbx", "zzzzz\nqqqqq", "aaaaa\nbbbbxc", "ppppp\nrrrrr"]
    currents = ["aaaaa\nbbbbb", "aaaaa\nbbbbx", "aaaaa\nbbbbx", "aaaaa\nbbbbxc"]
    for trace, cand, cur in zip(first.traces[1:], candidates, currents):
        m = max(len(cand), len(cur))
        expected = 100 * (m - _naive_levenshtein(cand, cur)) / m
        assert trace.similarity == expected
    _passed("algorithm1-replay", started, 1.0)


def test_algorithm2_call_counts():
    """Exact chat/retrieval call counts for kewrag, rag, and zscot at N=20."""
    started = time.perf_counter()
    n = 20
    chunk_texts = [f"guideline chunk {i}" for i in range(8)]
    embed_entry = {
        "kind": "embed",
        "body": {"map": {t: [1.0, float(i + 1)] for i, t in enumerate(chunk_texts)}
                 | {DEFAULT_QUERIES[T]: [1.0, 0.5]}},
    }
    chunks = [Chunk(i, t, (0, len(t))) for i, t in enumerate(chunk_texts)]
    reports = [make_report(f"r{i:02d}", t="T1") for i in range(n)]

    # kewrag: 1 retrieval pass + 1 elicitation chat + N inference chats
    entries = [embed_entry, chat_entry({"rules": ["r1", "r2"]})]
    entries += [chat_entry(staging_body("T1"))] * n
    client, backend = scripted_client(entries)
    index = build_index(chunks, client.embed, "h")
    backend.embed_calls = backend.chat_calls = 0  # index build is setup
    elicited = elicit_kewrag_rules(index, T, client, k=5)
    infer("kewrag", reports, T, client,
          rules=elicited.memory, chunk_ids=elicited.chunk_ids)
    assert backend.embed_calls == 1
    assert backend.chat_calls == 1 + n

    # standard rag: 1 retrieval pass + N inference chats
    entries = [embed_entry] + [chat_entry(staging_body("T1"))] * n
    client, backend = scripted_client(entries)
    index = build_index(chunks, client.embed, "h")
    backend.embed_calls = backend.chat_calls = 0
    run_rag(reports, T, client, index, k=5)
    assert backend.embed_calls == 1
    assert backend.chat_calls == n

    # zscot: exactly N chats, no retrieval
    entries = [chat_entry(staging_body("T1"))] * n
    client, backend = scripted_client(entries)
    infer("zscot", reports, T, client)
    assert backend.embed_calls == 0
    assert backend.chat_calls == n
    _passed("algorithm2-call-counts", started, 1.0)


def test_retrieval_oracle():
    """top_k equals the brute-force cosine ranking on 500 random indexes."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(500):
        n = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 33))
        vectors = rng.uniform(-1, 1, size=(n, dim))
        vectors[np.all(vectors == 0, axis=1)] = 1.0
        if n >= 4:  # force ties so the chunk-id rule is exercised
            vectors[1] = vectors[0]
        qvec = rng.uniform(-1, 1, size=dim)
        if not qvec.any():
            qvec[0] = 1.0
        texts = [f"c{i}" for i in range(n)]
        mapping = {t: vectors[i].tolist() for i, t in enumerate(texts)}
        mapping["q"] = qvec.tolist()

        def embed(batch, _m=mapping):
            return [_m[t] for t in batch], "fake"

        index = build_index([Chunk(i, t, (0, 2)) for i, t in enumerate(texts)], embed, "h")
        unit_rows = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        cosines = unit_rows @ (qvec / np.linalg.norm(qvec))
        expected = sorted(range(n), key=lambda i: (-cosines[i], i))
        for k in range(1, n + 1):
            hits = top_k(index, "q", k, embed)
            assert [c.chunk_id for c, _ in hits] == expected[:k], (trial, k)
    _passed("retrieval-oracle", started, 10.0)


def test_split_protocol():
    """Eight 100/700 splits of an 800-id corpus, byte-stable for seed 0."""
    started = time.perf_counter()
    corpus = Corpus(tuple(Report(f"r{i:04d}", f"report {i}", {}) for i in range(800)))
    splits = make_splits(corpus, 8, 100, 0)
    all_ids = set(corpus.ids())
    for s in splits:
        assert len(s.train_ids) == 100
        assert len(s.test_ids) == 700
        assert not set(s.train_ids) & set(s.test_ids)
        assert set(s.train_ids) | set(s.test_ids) == all_ids
    assert len({s.train_ids for s in splits}) == 8  # pairwise distinct
    assert make_splits(corpus, 8, 100, 0) == splits  # stable within-process
    payload = json.dumps(
        [{"seed": s.seed, "train": list(s.train_ids), "test": list(s.test_ids)} for s in splits]
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == SPLIT_DIGEST  # stable across runs and platforms
    _passed("split-protocol", started, 1.0)


def test_aggregation_conformance():
    """mean±std rendering with the sample (n-1) standard deviation."""
    started = time.perf_counter()
    assert aggregate_runs([0.1, 0.2, 0.3, 0.4]) == "0.250±0.129"
    assert aggregate_runs([0.8, 0.8, 0.8]) == "0.800±0.000"
    _passed("aggregation-conformance", started, 1.0)


def test_end_to_end_determinism(tmp_path):
    """Two consecutive scripted kewltm runs produce byte-identical trees."""
    started = time.perf_counter()
    corpus_path = tmp_path / "corpus.jsonl"
    with corpus_path.open("w") as fh:
        for i in range(12):
            fh.write(
                json.dumps(
                    {
                        "id": f"r{i:03d}",
                        "text": f"report body {i}",
                        "t_label": T_LABELS[i % 4],
                        "n_label": None,
                    }
                )
                + "\n"
            )
    script_path = tmp_path / "script.json"
    entries = [
        rules_body(T_LABELS[i % 4], ["size rule", "margin rule"]) for i in range(24)
    ]
    script_path.write_text(
        json.dumps([{"kind": "chat", "body": b} for b in entries])
    )
    out = tmp_path / "out"
    argv = [
        "run", "--method", "kewltm", "--category", "T",
        "--corpus", str(corpus_path), "--script", str(script_path),
        "--out", str(out), "--splits", "2", "--train-size", "3", "--n-train", "3",
    ]
    assert main(argv) == 0
    first = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert main(argv) == 0
    second = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert first == second
    assert set(first) >= {
        "manifest.json", "predictions.jsonl", "metrics.json", "curves.csv",
        "memory_split0.json", "memory_split1.json", "trace_split0.csv", "trace_split1.csv",
    }
    _passed("end-to-end-determinism", started, 5.0)


@pytest.mark.skipif(
    not os.environ.get("STAGEPIPE_LLM_BASE"),
    reason="live smoke needs STAGEPIPE_LLM_BASE",
)
def test_live_smoke():
    """Optional: 3 schema-valid records from a real endpoint; no accuracy claim."""
    started = time.perf_counter()
    # the client the CLI builds: endpoints and keys from STAGEPIPE_*, the model by flag
    args = build_parser().parse_args(
        ["run", "--llm-model", os.environ.get("STAGEPIPE_LLM_MODEL", "default")]
    )
    client = _build_client(resolve_config(args))
    reports = [
        make_report(
            f"live{i}",
            t="T1",
            text="Invasive ductal carcinoma, 1.5 cm in greatest dimension. "
            "Margins negative. No lymphovascular invasion.",
        )
        for i in range(3)
    ]
    records = infer("zscot", reports, T, client)
    assert len(records) == 3
    for rec in records:
        assert rec.predicted is not None  # schema-valid label
        assert rec.predicted.category is T
    _passed("live-smoke", started, 120.0)
