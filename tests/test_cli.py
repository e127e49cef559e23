from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from stagepipe import cli, llm, pipelines
from stagepipe.cli import main
from stagepipe.corpus import (
    Corpus,
    Split,
    StageCategory,
    load_corpus,
    make_splits,
    truncate_train,
)
from stagepipe.evaluation import mcnemar_p
from stagepipe.llm import LlmClient, ScriptedBackend, TransportError
from stagepipe.prompts import default_templates
from stagepipe.retrieval import chunk_document
from .conftest import (
    BAD_EMBEDDINGS,
    NULL_CONTENT_REPLY,
    ContentKeyedBackend,
    Reply,
    embeddings_reply,
    make_report,
    write_corpus_jsonl,
)

LABELS = ["T1", "T2", "T3", "T4"]


def write_corpus(path: Path, n: int) -> None:
    rows = [
        {
            "id": f"r{i:03d}",
            "text": f"report body {i} with findings",
            "t_label": LABELS[i % 4],
            "n_label": f"N{i % 4}",
        }
        for i in range(n)
    ]
    write_corpus_jsonl(path, rows)


def write_keyed_corpus(path: Path, n: int) -> None:
    """A corpus whose texts name their report, as `ContentKeyedBackend` reads them."""
    write_corpus_jsonl(path, [
        {"id": f"r{i:03d}", "text": f"pathology report body for r{i:03d}",
         "t_label": LABELS[i % 4], "n_label": None}
        for i in range(n)
    ])


def rules_entry(rules: list[str], stage: str = "T1") -> dict:
    # valid under every schema kind: extras are ignored
    return {
        "kind": "chat",
        "body": {"reasoning": "because", "stage": stage, "rules": rules},
    }


def write_script(
    path: Path, n_chat: int, *, hash_dim: int | None = None, labels: list[str] = LABELS
) -> None:
    entries = []
    if hash_dim:
        entries.append({"kind": "embed", "body": {"hash_dim": hash_dim}})
    entries += [
        rules_entry(["size rule", "node rule"], stage=labels[i % 4]) for i in range(n_chat)
    ]
    path.write_text(json.dumps(entries))


def write_guideline(path: Path) -> None:
    paras = [
        (
            f"Guideline paragraph {i}: staging criterion involving "
            f"{'size thresholds' if i % 2 else 'invasion'} number {i}. "
        )
        * 12
        for i in range(6)
    ]
    path.write_text("\n\n".join(p.strip() for p in paras))


@pytest.fixture
def built_backends(monkeypatch) -> list[ScriptedBackend]:
    """Every scripted backend the commands build, so a test can count its calls."""
    built: list[ScriptedBackend] = []

    def recording_backend(path):
        built.append(llm.scripted_backend(path))
        return built[-1]

    monkeypatch.setattr(cli, "scripted_backend", recording_backend)
    return built


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestIngest:
    def test_prints_distribution(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 8)
        assert main(["ingest", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "Loaded 8 reports" in out
        assert "T Category" in out and "N Category" in out
        assert "Total" in out

    def test_bad_line_nonzero_with_line_number(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "ok", "t_label": "T1", "n_label": null}\nnot json\n')
        assert main(["ingest", "--corpus", str(corpus)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_corpus_flag(self, tmp_path, capsys):
        assert main(["ingest"]) == 2

    def test_empty_report_id_names_its_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus_jsonl(corpus, [{"id": "a", "text": "ok"}, {"id": "", "text": "ok"}])
        assert main(["ingest", "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == "error: c.jsonl line 2: report id must be non-empty\n"


class TestIndex:
    def test_builds_and_is_idempotent(self, tmp_path, capsys):
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        write_script(script, 0, hash_dim=8)
        out1, out2 = tmp_path / "idx1.json", tmp_path / "idx2.json"
        for out in (out1, out2):
            code = main(
                ["index", "--guideline", str(guideline), "--script", str(script),
                 "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "chunks" in capsys.readouterr().out

    def test_missing_guideline_usage_error(self, tmp_path, capsys):
        assert main(["index", "--out", str(tmp_path / "x.json")]) == 2
        assert "guideline" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--out", "runs/out"], []], ids=["given", "default"])
    def test_out_that_is_a_directory_is_usage_error_before_any_call(
        self, tmp_path, capsys, monkeypatch, built_backends, flags
    ):
        # the default --out is the directory every run writes
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        write_script(script, 0, hash_dim=8)
        run_out = tmp_path / "runs" / "out"
        run_out.mkdir(parents=True)
        (run_out / "manifest.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        code = main(["index", "--guideline", str(guideline), "--script", str(script)] + flags)
        assert code == 2
        assert "usage error: --out runs/out is a directory" in capsys.readouterr().err
        assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0
        assert [p.name for p in run_out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("bodies, complaint", [
        ([{"hash_dim": "x"}], "'hash_dim' must be a positive integer"),
        ([{"hash_dim": 0}], "'hash_dim' must be a positive integer"),
        ([{"hash_dim": -4}], "'hash_dim' must be a positive integer"),
        ([{"hash_dim": True}], "'hash_dim' must be a positive integer"),
        ([{"hash_dim": 8}, {"hash_dim": 8}, {"hash_dim": 16}], "'hash_dim' 16 contradicts 8"),
        ([{"vectors": 7}], "'vectors' must be"),
        ([{"vectors": [1.0, 0.0]}], "'vectors' must be"),
        ([{"vectors": [[1.0, "0"]]}], "'vectors' must be"),
        ([{"vectors": [[]]}], "'vectors' must be"),
        ([{"map": 5}], "'map' must"),
        ([{"map": {"x": 1.0}}], "'map' must"),
    ])
    def test_malformed_embed_entry_fails_before_any_call(self, tmp_path, capsys, bodies, complaint):
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"kind": "embed", "body": b} for b in bodies]))
        out = tmp_path / "idx.json"
        code = main(["index", "--guideline", str(guideline), "--script", str(script), "--out", str(out)])
        assert code == 1
        assert complaint in capsys.readouterr().err
        assert not out.exists()

    def test_no_embedding_backend_is_usage_error(self, tmp_path, capsys, monkeypatch):
        live_env(monkeypatch)  # no endpoint, and no --script
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        out = tmp_path / "idx.json"
        assert main(["index", "--guideline", str(guideline), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "usage error: no embedding backend configured "
            "(set STAGEPIPE_EMBED_BASE or --script)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bodies, complaint", [
        ([], "script exhausted: no embed responses left"),
        ([{"vectors": [[1.0, 0.0], [0.0, 1.0]]}], "embedding backend returned 2 vectors for 1 texts"),
    ], ids=["no-embed-entry", "batch-of-another-size"])
    def test_embed_reply_that_misses_the_batch_fails_and_writes_no_index(
        self, tmp_path, capsys, bodies, complaint
    ):
        guideline = tmp_path / "guide.md"
        guideline.write_text("One short staging paragraph.")  # one chunk, so one text
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"kind": "embed", "body": b} for b in bodies]))
        out = tmp_path / "idx.json"
        code = main(["index", "--guideline", str(guideline), "--script", str(script), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vector_fails_and_writes_no_index(self, tmp_path, capsys, value):
        guideline = tmp_path / "guide.md"
        guideline.write_text("One short staging paragraph.")  # one chunk, so one vector
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"kind": "embed", "body": {"vectors": [[value, 1.0]]}}]))
        out = tmp_path / "idx.json"
        code = main(["index", "--guideline", str(guideline), "--script", str(script), "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestRunZscot:
    def test_predictions_and_metrics(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 8)
        script = tmp_path / "script.json"
        write_script(script, 8)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 8
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["macro"]) == {"precision", "recall", "f1"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["timestamp"] is None  # scripted runs are deterministic
        assert manifest["model_ids"]["chat"] == "scripted"
        assert set(manifest["template_hashes"]) == {
            "ltm_elicit", "ltm_update", "ltm_inference", "rag_elicit",
            "rag_inference", "zscot_inference", "rawrag_inference",
        }

    def _run(self, tmp_path, replies: list[dict]) -> list[dict]:
        """A zscot run over reports r000 (gold T1) and r001 (gold T2)
        answered by `replies`, which it must use up; its records."""
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 2)
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"kind": "chat", "body": b} for b in replies]))
        out = tmp_path / "out"
        code = main(["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
                     "--script", str(script), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
        return [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]

    def test_reply_with_a_non_string_field_is_reasked(self, tmp_path, built_backends):
        records = self._run(tmp_path, [
            {"reasoning": 5, "stage": "T1"}, {"reasoning": "r", "stage": "T1"},
            {"reasoning": "r", "stage": "T2"},
        ])
        assert [(r["predicted"], r["reasoning"]) for r in records] == [("T1", "r"), ("T2", "r")]
        assert built_backends[0].chat_calls == 3

    @pytest.mark.parametrize("raw", [
        "[" * 100_000,
        "The answer is " + '{"a": ' + "[" * 100_000,
        '{"reasoning": "r", "stage": ' + "7" * 5000 + "}",
    ], ids=["nested-array", "prose-then-nested-object", "5000-digit-stage"])
    def test_reply_past_the_decoder_limits_is_unparseable(self, tmp_path, capsys, raw):
        # the first report's ask and its 3 re-asks all get `raw`
        records = self._run(tmp_path, [{"raw_text": raw}] * 4 + [{"reasoning": "r", "stage": "T2"}])
        assert [r["predicted"] for r in records] == ["unparseable", "T2"]
        assert capsys.readouterr().err == ""  # no traceback, no error

    def test_no_backend_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STAGEPIPE_LLM_BASE", raising=False)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        assert main(
            ["run", "--method", "zscot", "--category", "T",
             "--corpus", str(corpus), "--out", str(tmp_path / "o")]
        ) == 2

    def test_null_content_writes_failed_manifest(self, tmp_path, monkeypatch, loopback_endpoints):
        # one null reply for each of the 4 reports; none is retried
        endpoint = loopback_endpoints(*[Reply(body=NULL_CONTENT_REPLY)] * 4)
        monkeypatch.setenv("STAGEPIPE_LLM_BASE", endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "zscot", "--category", "T",
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert "content is NoneType" in manifest["error"]

    def test_rate_limited_on_every_attempt_writes_failed_manifest(
        self, tmp_path, monkeypatch, loopback_endpoints
    ):
        # 4 reports x 3 attempts: every request the run can make is rate limited
        limited = Reply(429, {"error": "rate limited"}, {"Retry-After": "3"})
        endpoint = loopback_endpoints(*[limited] * 12)
        sleeps = []
        # the CLI builds its client with the default sleep; record the waits instead
        monkeypatch.setitem(LlmClient.__init__.__kwdefaults__, "sleep", sleeps.append)
        monkeypatch.setenv("STAGEPIPE_LLM_BASE", endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "zscot", "--category", "T",
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert "429" in manifest["error"]
        # reports run up to four at once: the first to give up stops new ones
        # from starting, and the ones already posting each finish their attempts
        per_report = Counter(r.body["messages"][-1]["content"] for r in endpoint.requests)
        assert 1 <= len(per_report) <= 4
        assert set(per_report.values()) == {3}  # every transport attempt, then give up
        # Retry-After outlasts the 1 s and 2 s backoff
        assert sleeps == [3.0] * 2 * len(per_report)


class TestRunKewltm:
    def _run(self, tmp_path, out_name: str) -> Path:
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        # 2 splits x (3 induction + 9 inference) = 24 calls
        write_script(script, 24)
        out = tmp_path / out_name
        code = main(
            ["run", "--method", "kewltm", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out),
             "--splits", "2", "--train-size", "3", "--n-train", "3"]
        )
        assert code == 0
        return out

    def test_artifact_layout(self, tmp_path):
        out = self._run(tmp_path, "out")
        for name in (
            "manifest.json", "predictions.jsonl", "metrics.json", "curves.csv",
            "memory_split0.json", "memory_split1.json",
            "trace_split0.csv", "trace_split1.csv",
        ):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["per_split"]) == 2
        for key in ("precision", "recall", "f1"):
            assert "±" in metrics["aggregate"][key]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]
        lines = (out / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 18  # 2 splits x 9 test reports
        assert {json.loads(l)["split"] for l in lines} == {0, 1}

    def test_byte_identical_reruns(self, tmp_path):
        out = self._run(tmp_path, "out")
        first = tree_bytes(out)
        again = self._run(tmp_path, "out")  # same fixed config, same directory
        assert tree_bytes(again) == first

    def test_terminal_failure_across_splits_writes_failed_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        corpus = tmp_path / "c.jsonl"
        write_keyed_corpus(corpus, 12)
        splits = make_splits(load_corpus(corpus), 4, 6, 0)
        # four splits in step, one call each at a time; the first round fails
        backend = ContentKeyedBackend(
            barrier=threading.Barrier(4, timeout=10), fail_id=splits[2].train_ids[0]
        )
        monkeypatch.setattr(cli, "scripted_backend", lambda path: backend)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewltm", "--category", "T", "--corpus", str(corpus),
             "--script", "content-keyed", "--out", str(out),
             "--splits", "4", "--train-size", "6", "--n-train", "3"]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert manifest["error"] == str(backend.error)
        assert manifest["seeds"] == [0, 1, 2, 3]
        assert f"error: {backend.error}" in capsys.readouterr().err
        assert backend.peak == 4
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize(
        "command, prefix",
        [(["run", "--method", "kewltm", "--n-train", "3"], ""),
         (["sweep", "--train-counts", "3"], "n_train=3 ")],
        ids=["run", "sweep"],
    )
    def test_induction_with_no_valid_reply_fails_before_inference(
        self, tmp_path, capsys, built_backends, command, prefix
    ):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        # split 0's 3 induction steps each ask 1 + 3 times and get no rule list;
        # valid replies follow, enough for the rest of the run
        no_rules = {"kind": "chat", "body": {"reasoning": "because", "stage": "T1"}}
        script.write_text(json.dumps([no_rules] * 12 + [rules_entry(["size rule"])] * 24))
        out = tmp_path / "out"
        code = main(command + ["--category", "T", "--corpus", str(corpus),
                               "--script", str(script), "--out", str(out),
                               "--splits", "2", "--train-size", "3"])
        assert code == 1
        error = f"{prefix}split 0: induction produced no memory"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["error"]) == ("FAILED", error)
        # split 0's induction calls alone: no inference call, and split 1 never started
        assert built_backends[0].chat_calls == 12
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if line.startswith("error:")] == [f"error: {error}"]

    def test_negative_seed_fails_before_any_call(self, tmp_path, capsys, built_backends):
        # Random(-s) draws Random(s)'s stream, so a negative seed would repeat splits
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        write_script(script, 24)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewltm", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out),
             "--splits", "3", "--train-size", "3", "--n-train", "2", "--seed", "-1"]
        )
        assert code == 2
        assert "seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()
        assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0


class TestRunKewrag:
    def test_run_with_guideline(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 6)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        # 1 elicitation + 6 inference calls; hash embeds cover chunks + query
        write_script(script, 7, hash_dim=8)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewrag", "--category", "T", "--corpus", str(corpus),
             "--guideline", str(guideline), "--script", str(script),
             "--out", str(out), "--k", "3"]
        )
        assert code == 0
        assert (out / "rules.json").exists()
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(lines) == 6
        assert all(len(l["retrieved_chunk_ids"]) == 3 for l in lines)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["doc_hash"]
        assert manifest["query_provenance"] == "stated"

    def test_missing_guideline_usage_error_before_any_call(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        code = main(
            ["run", "--method", "kewrag", "--category", "T",
             "--corpus", str(corpus), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "guideline" in capsys.readouterr().err


class TestRunRag:
    def test_run_and_n_query_flagged(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        write_script(script, 5, hash_dim=8, labels=["N0", "N1", "N2", "N3"])
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "rag", "--category", "N", "--corpus", str(corpus),
             "--guideline", str(guideline), "--script", str(script), "--out", str(out)]
        )
        assert code == 0
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(lines) == 5
        id_sets = {tuple(l["retrieved_chunk_ids"]) for l in lines}
        assert len(id_sets) == 1  # one retrieval pass shared by every record
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["query_provenance"] == "extrapolated"

    def test_report_text_run_records_no_query(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        write_script(script, 5, hash_dim=8)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "rag", "--rag-query-mode", "report-text", "--category", "T",
             "--corpus", str(corpus), "--guideline", str(guideline), "--script", str(script),
             "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # each report's text was its own query; the category's default was never used
        assert (manifest["query"], manifest["query_provenance"]) == (None, None)
        assert manifest["config"]["rag_query_mode"] == "report-text"
        assert manifest["doc_hash"]

    def test_no_embedding_backend_is_usage_error(self, tmp_path, capsys, monkeypatch):
        live_env(monkeypatch, llm_base="http://127.0.0.1:9")  # a chat endpoint alone
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        out = tmp_path / "out"
        code = main(["run", "--method", "rag", "--category", "T", "--corpus", str(corpus),
                     "--guideline", str(guideline), "--out", str(out)])
        assert code == 2
        assert "usage error: no embedding backend configured" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_writes_failed_manifest(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "script.json"
        # embeds available but zero chat entries: elicitation will exhaust
        write_script(script, 0, hash_dim=8)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewrag", "--category", "T", "--corpus", str(corpus),
             "--guideline", str(guideline), "--script", str(script), "--out", str(out)]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert manifest["error"]

    @pytest.mark.parametrize(
        "method, flag",
        [("rag", "--guideline"), ("kewrag", "--index")],
        ids=["rag-guideline", "kewrag-index"],
    )
    def test_missing_input_file_writes_failed_manifest(self, tmp_path, capsys, method, flag):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        script = tmp_path / "script.json"
        write_script(script, 6, hash_dim=8)
        missing = tmp_path / "nope"
        out = tmp_path / "out"
        code = main(
            ["run", "--method", method, "--category", "T", "--corpus", str(corpus),
             flag, str(missing), "--script", str(script), "--out", str(out)]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert str(missing) in manifest["error"]
        assert str(missing) in capsys.readouterr().err


def live_env(monkeypatch, **values: str) -> None:
    """Sets the given STAGEPIPE_* variables (keyed by config name) and clears the rest."""
    for env_name, key in cli._ENV_KEYS.items():
        if key in values:
            monkeypatch.setenv(env_name, values[key])
        else:
            monkeypatch.delenv(env_name, raising=False)


class TestLoopbackEndpoint:
    """Runs whose model calls go over a socket to a loopback endpoint."""

    def _assert_sent(self, sent, path: str, key: str, model: str) -> None:
        for request in sent:
            assert request.path == path
            assert request.headers["Authorization"] == f"Bearer {key}"
            assert request.body["model"] == model

    def test_zscot_run(self, tmp_path, monkeypatch, loopback_endpoints):
        endpoint = loopback_endpoints()
        live_env(monkeypatch, llm_base=endpoint.url, llm_key="chat-key")
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 6)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
             "--out", str(out), "--llm-model", "m"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["model_ids"] == {"chat": "m", "embed": None}
        assert manifest["timestamp"] is not None  # a live run is not deterministic
        assert len((out / "predictions.jsonl").read_text().splitlines()) == 6
        assert len(endpoint.requests) == 6  # one valid reply per report
        self._assert_sent(endpoint.requests, "/v1/chat/completions", "chat-key", "m")

    def test_rag_report_text_run(self, tmp_path, monkeypatch, loopback_endpoints):
        endpoint = loopback_endpoints()
        live_env(monkeypatch, llm_base=endpoint.url, llm_key="chat-key",
                 embed_base=endpoint.url, embed_key="embed-key")
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "rag", "--rag-query-mode", "report-text", "--category", "T",
             "--corpus", str(corpus), "--guideline", str(guideline), "--out", str(out),
             "--llm-model", "m", "--embed-model", "e"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["model_ids"] == {"chat": "m", "embed": "e"}
        chats = [r for r in endpoint.requests if r.path == "/v1/chat/completions"]
        embeds = [r for r in endpoint.requests if r.path != "/v1/chat/completions"]
        assert len(chats) == 5
        assert len(embeds) == 1 + 5  # the guideline's chunks, then one query per report
        self._assert_sent(chats, "/v1/chat/completions", "chat-key", "m")
        self._assert_sent(embeds, "/v1/embeddings", "embed-key", "e")
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(lines) == 5 and all(l["retrieved_chunk_ids"] for l in lines)
        # the client bounds each endpoint on its own, at max_in_flight (4) calls
        assert set(endpoint.peak) == {"/v1/chat/completions", "/v1/embeddings"}
        assert max(endpoint.peak.values()) <= 4

    @pytest.mark.parametrize("rows, check", BAD_EMBEDDINGS.values(), ids=BAD_EMBEDDINGS.keys())
    def test_bad_guideline_embeddings_fail_the_run_before_any_chat_call(
        self, tmp_path, monkeypatch, loopback_endpoints, rows, check
    ):
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        chunks = len(chunk_document(guideline.read_text()))  # at the default chunk size
        endpoint = loopback_endpoints(Reply(body=embeddings_reply(rows, chunks)))
        live_env(monkeypatch, llm_base=endpoint.url, embed_base=endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 3)
        out = tmp_path / "out"
        code = main(["run", "--method", "rag", "--category", "T", "--corpus", str(corpus),
                     "--guideline", str(guideline), "--out", str(out)])
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert check in manifest["error"]
        assert [r.path for r in endpoint.requests] == ["/v1/embeddings"]

    @pytest.mark.parametrize("reply, attempts, error", [
        (Reply(401, {"error": "bad key"}), 1, "chat endpoint rejected credentials (401)"),
        (Reply(fault="close before reply"), 3, "chat endpoint unreachable"),
        (Reply(body=b"[" * 200_000), 1, "malformed chat response"),
    ], ids=["401", "closed-before-reply", "body-nested-past-the-limit"])
    def test_failing_endpoint_writes_failed_manifest(
        self, tmp_path, monkeypatch, loopback_endpoints, reply, attempts, error
    ):
        # 4 reports x 3 attempts: every request the run can make fails
        endpoint = loopback_endpoints(*[reply] * 12)
        sleeps = []
        monkeypatch.setitem(LlmClient.__init__.__kwdefaults__, "sleep", sleeps.append)
        live_env(monkeypatch, llm_base=endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        out = tmp_path / "out"
        code = main(["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert error in manifest["error"]
        # reports that had started posting each finish their attempts
        per_report = Counter(r.body["messages"][-1]["content"] for r in endpoint.requests)
        assert 1 <= len(per_report) <= 4
        assert set(per_report.values()) == {attempts}
        assert len(sleeps) == (attempts - 1) * len(per_report)

    @pytest.mark.parametrize(
        "flags, config, sent",
        [
            (["--temperature", "0.5", "--max-tokens", "99"], None, (0.5, 99)),
            ([], {"temperature": 0.5, "max_tokens": 99}, (0.5, 99)),
            ([], None, (0.0, 1024)),
        ],
        ids=["flags", "config", "defaults"],
    )
    def test_sampling_settings_reach_every_chat_body(
        self, tmp_path, monkeypatch, loopback_endpoints, flags, config, sent
    ):
        endpoint = loopback_endpoints()
        live_env(monkeypatch, llm_base=endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 3)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfg)]
        code = main(["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
                     "--out", str(tmp_path / "out")] + flags)
        assert code == 0
        assert len(endpoint.requests) == 3
        for request in endpoint.requests:
            assert (request.body["temperature"], request.body["max_tokens"]) == sent
            assert type(request.body["temperature"]) is float

    @pytest.mark.parametrize("finish_reason, calls", [("length", 1), ("stop", 1 + 3)])
    def test_reply_cut_off_at_max_tokens_is_unparseable_without_a_reask(
        self, tmp_path, monkeypatch, loopback_endpoints, finish_reason, calls
    ):
        endpoint = loopback_endpoints()
        endpoint.finish_reason, endpoint.content_chars = finish_reason, 20  # not JSON
        live_env(monkeypatch, llm_base=endpoint.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 2)
        out = tmp_path / "out"
        code = main(["run", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
        assert len(endpoint.requests) == 2 * calls  # per report: one call, or 3 re-asks more
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert [l["predicted"] for l in lines] == ["unparseable"] * 2


class TestIndexInputs:
    """An index that disagrees with the run's other inputs fails the run
    before any chat call."""

    def _index(self, tmp_path, hash_dim: int = 8) -> tuple[Path, Path]:
        guideline = tmp_path / "guide.md"
        write_guideline(guideline)
        script = tmp_path / "index_script.json"
        write_script(script, 0, hash_dim=hash_dim)
        index = tmp_path / "idx.json"
        assert main(["index", "--guideline", str(guideline), "--script", str(script),
                     "--out", str(index)]) == 0
        return guideline, index

    def _failed_run(self, tmp_path, built, flags: list[str], hash_dim: int = 8) -> str:
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        script = tmp_path / "script.json"
        write_script(script, 5, hash_dim=hash_dim)
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewrag", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out)] + flags
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert sum(b.chat_calls for b in built) == 0
        return manifest["error"]

    def test_index_of_another_guideline(self, tmp_path, built_backends):
        guideline, index = self._index(tmp_path)
        guideline.write_text(guideline.read_text() + "\n\nA later amendment.")
        error = self._failed_run(
            tmp_path, built_backends, ["--index", str(index), "--guideline", str(guideline)]
        )
        assert "another document" in error

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: [v[0][:-1]] + v[1:], "malformed"),
            (lambda v: [x for row in v for x in row], "2-D"),
            (lambda v: [[float("nan")] + row[1:] for row in v], "finite"),
            (lambda v: [[3 * x for x in row] for row in v], "unit-norm"),
            (lambda v: v[:-1], "chunks but"),
        ],
        ids=["ragged", "flat", "nan", "scaled", "row-missing"],
    )
    def test_malformed_vectors(self, tmp_path, built_backends, corrupt, message):
        _, index = self._index(tmp_path)
        obj = json.loads(index.read_text())
        obj["vectors"] = corrupt(obj["vectors"])
        index.write_text(json.dumps(obj))
        assert message in self._failed_run(tmp_path, built_backends, ["--index", str(index)])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda obj: obj["chunks"][0].update(text=None), "text must be a JSON str"),
            (lambda obj: obj["chunks"][0].update(text=""), "chunk 0 has empty text"),
            (lambda obj: obj["chunks"][0].update(chunk_id=True), "chunk_id must be a JSON int"),
            (lambda obj: obj["chunks"][0].update(chunk_id="0"), "chunk_id must be a JSON int"),
            (lambda obj: obj["chunks"][0].update(source_span=[0, 1.5]), "source_span must"),
            (lambda obj: obj["chunks"][0].update(source_span="0,9"), "source_span must"),
            (lambda obj: obj.update(model_id=7), "model_id must be a JSON str"),
            (lambda obj: obj.update(doc_hash=None), "doc_hash must be a JSON str"),
            (lambda obj: obj.update(chunks={}), "chunks must be a JSON list"),
            (lambda obj: obj.update(vectors=[[str(x) for x in row] for row in obj["vectors"]]),
             "vectors must hold JSON numbers"),
            # a unit row if the bool were read as 1.0; hash_dim is 8
            (lambda obj: obj.update(vectors=[[True] + [0.0] * 7] + obj["vectors"][1:]),
             "vectors must hold JSON numbers"),
            (lambda obj: obj["vectors"][0].__setitem__(0, 10**400), "too large to convert to float"),
        ],
        ids=["text-null", "text-empty", "chunk-id-bool", "chunk-id-string", "span-float", "span-string",
             "model-id-number", "doc-hash-null", "chunks-object", "vectors-strings",
             "vectors-bool", "vectors-int-past-float-range"],
    )
    def test_field_of_the_wrong_json_type(self, tmp_path, built_backends, corrupt, message):
        _, index = self._index(tmp_path)
        obj = json.loads(index.read_text())
        corrupt(obj)
        index.write_text(json.dumps(obj))
        error = self._failed_run(tmp_path, built_backends, ["--index", str(index)])
        assert "malformed index file" in error and message in error

    def test_query_embedded_with_another_dimension(self, tmp_path, built_backends):
        _, index = self._index(tmp_path, hash_dim=8)
        error = self._failed_run(tmp_path, built_backends, ["--index", str(index)], hash_dim=16)
        assert "dimension 16" in error

    def test_query_embedded_by_another_model(self, tmp_path, built_backends):
        _, index = self._index(tmp_path)
        obj = json.loads(index.read_text())
        obj["model_id"] = "another-embedder"
        index.write_text(json.dumps(obj))
        error = self._failed_run(tmp_path, built_backends, ["--index", str(index)])
        assert "another-embedder" in error


class TestSweep:
    def test_train_count_sweep(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        script = tmp_path / "script.json"
        # points 1 and 2: (1 + 8) + (2 + 8) calls per split, 2 splits
        write_script(script, (9 + 10) * 2)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out),
             "--splits", "2", "--train-size", "2",
             "--train-counts", "1,2"]
        )
        assert code == 0
        metrics = (out / "sweep_metrics.csv").read_text().splitlines()
        assert metrics[0] == "n_train,split,seed,precision,recall,f1"
        data_rows = [l for l in metrics[1:] if not l.startswith("#")]
        # 2 points x (2 splits + 1 mean row)
        assert len(data_rows) == 6
        curves = (out / "sweep_curves.csv").read_text().splitlines()
        assert curves[0] == "n_train,step,mean_len"

    def test_threshold_sweep_two_series(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        script = tmp_path / "script.json"
        write_script(script, (2 + 8) * 2 * 2)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out),
             "--splits", "2", "--train-size", "2", "--n-train", "2",
             "--thresholds", "0,80"]
        )
        assert code == 0
        curves = (out / "sweep_curves.csv").read_text().splitlines()
        params = {line.split(",")[0] for line in curves[1:]}
        assert params == {"0.0", "80.0"}

    def test_method_other_than_kewltm_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        out = tmp_path / "o"
        assert main(["sweep", "--method", "zscot", "--category", "T", "--corpus", str(corpus),
                     "--out", str(out), "--train-counts", "1"]) == 2
        assert capsys.readouterr().err == "usage error: sweep supports only method kewltm\n"
        assert not out.exists()

    def test_requires_exactly_one_sweep_axis(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        assert main(
            ["sweep", "--category", "T", "--corpus", str(corpus),
             "--out", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--train-counts", "1,2.5", "int list"), ("--thresholds", "0,high", "float list"),
         ("--train-counts", ",", "non-empty")],
    )
    def test_malformed_point_list_is_usage_error(self, tmp_path, capsys, flag, value, message):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        out = tmp_path / "o"
        assert main(
            ["sweep", "--category", "T", "--corpus", str(corpus), "--out", str(out),
             flag, value]
        ) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be" in err and message in err
        assert not out.exists()


    def test_train_count_point_scores_like_run(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        # 2 splits x (2 induction + 9 inference) calls, the same order in both commands
        write_script(script, 22)
        shared = ["--category", "T", "--corpus", str(corpus), "--script", str(script),
                  "--splits", "2", "--train-size", "3"]
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--method", "kewltm", "--n-train", "2",
                     "--out", str(run_out)] + shared) == 0
        assert main(["sweep", "--train-counts", "2", "--out", str(sweep_out)] + shared) == 0
        per_split = json.loads((run_out / "metrics.json").read_text())["per_split"]
        rows = (sweep_out / "sweep_metrics.csv").read_text().splitlines()[1:]
        split_rows = [row.split(",") for row in rows if ",mean," not in row]
        assert len(split_rows) == len(per_split) == 2
        for row, block in zip(split_rows, per_split):
            point, split, seed, precision, recall, f1 = row
            assert (int(point), int(split), int(seed)) == (2, block["split"], block["seed"])
            assert [float(precision), float(recall), float(f1)] == [
                block["macro"]["precision"], block["macro"]["recall"], block["macro"]["f1"]
            ]

    @pytest.mark.parametrize(
        "axis, points",
        [
            (["--train-counts", "1,2"],
             [("n_train=1", ["--n-train", "1"], 20), ("n_train=2", ["--n-train", "2"], 22)]),
            (["--n-train", "2", "--thresholds", "0,80"],
             [("threshold=0.0", ["--n-train", "2", "--threshold", "0"], 22),
              ("threshold=80.0", ["--n-train", "2", "--threshold", "80"], 22)]),
        ],
        ids=["train-counts", "thresholds"],
    )
    def test_each_point_directory_is_the_run_at_its_settings(self, tmp_path, axis, points):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        # per point, 2 splits x (n_train induction + 9 inference) calls
        write_script(script, sum(n_calls for *_, n_calls in points))
        entries = json.loads(script.read_text())
        shared = ["--category", "T", "--corpus", str(corpus), "--splits", "2", "--train-size", "3"]
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--script", str(script), "--out", str(sweep_out)] + axis + shared) == 0
        assert sorted(p.name for p in sweep_out.iterdir()) == sorted(
            [name for name, *_ in points] + ["manifest.json", "sweep_curves.csv", "sweep_metrics.csv"]
        )
        start = 0
        for name, flags, n_calls in points:
            # the sweep replays its script point after point, so each run replays its point's part
            part = tmp_path / f"{name}.json"
            part.write_text(json.dumps(entries[start:start + n_calls]))
            start += n_calls
            run_out = tmp_path / "run" / name
            assert main(["run", "--method", "kewltm", "--script", str(part),
                         "--out", str(run_out)] + flags + shared) == 0
            run_files = tree_bytes(run_out)
            del run_files["manifest.json"]
            assert tree_bytes(sweep_out / name) == run_files

    def test_failed_point_keeps_finished_points(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        shared = ["sweep", "--category", "T", "--corpus", str(corpus),
                  "--splits", "2", "--train-size", "2"]
        complete, failing = tmp_path / "complete.json", tmp_path / "failing.json"
        write_script(complete, 9 * 2)  # point 1: (1 + 8) calls per split
        write_script(failing, 9 * 2 + 5)  # runs out during point 2
        assert main(shared + ["--script", str(complete), "--out", str(tmp_path / "one"),
                              "--train-counts", "1"]) == 0
        out = tmp_path / "two"
        assert main(shared + ["--script", str(failing), "--out", str(out),
                              "--train-counts", "1,2"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert manifest["seeds"] == [0, 1]  # the splits were drawn before the failure
        for name in ("sweep_metrics.csv", "sweep_curves.csv"):
            finished = (tmp_path / "one" / name).read_text().splitlines()
            assert (out / name).read_text().splitlines() == finished

    def test_no_gold_label_fails_like_run(self, tmp_path, capsys, built_backends):
        corpus = tmp_path / "c.jsonl"
        rows = [{"id": f"r{i:03d}", "text": f"report body {i}", "t_label": "T1",
                 "n_label": None} for i in range(6)]
        write_corpus_jsonl(corpus, rows)
        script = tmp_path / "script.json"
        write_script(script, 12, labels=["N0", "N1", "N2", "N3"])
        out = tmp_path / "out"
        code = main(
            ["sweep", "--category", "N", "--corpus", str(corpus), "--script", str(script),
             "--out", str(out), "--splits", "1", "--train-size", "2", "--train-counts", "1"]
        )
        # a usage error, as for run: nothing of the corpus could be scored
        assert code == 2
        assert f"no report in {corpus} carries a gold N label" in capsys.readouterr().err
        assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0
        assert not out.exists()


# the header of each CSV a command writes, as the README gives it, by file
# name without its split index
CSV_HEADERS = {
    "trace_split": "step,proposed_len,current_len,similarity,accepted",
    "curves": "step,mean_len",
    "sweep_metrics": "threshold,split,seed,precision,recall,f1",
    "sweep_curves": "threshold,step,mean_len",
}


def test_every_output_file_has_the_one_style_of_its_format(tmp_path):
    """Every JSON file is indented by two with sorted keys and non-ASCII kept,
    every JSON-lines line a compact sorted-key dump, and every CSV holds no
    \\r and starts with its README header: in the trees of a kewltm run, a
    threshold sweep, a kewrag run (for `rules.json`) and an index."""
    corpus, guideline, script = tmp_path / "c.jsonl", tmp_path / "g.md", tmp_path / "s.json"
    write_corpus(corpus, 10)
    write_guideline(guideline)
    # non-ASCII rules, one or two in turn, so the gate both accepts and rejects
    script.write_text(json.dumps(
        [{"kind": "embed", "body": {"hash_dim": 8}}]
        + [rules_entry(["größe ≥ 2 cm → T2", "node rule"][:1 + i % 2], LABELS[i % 4])
           for i in range(60)]
    ))
    out = tmp_path / "out"
    inputs = ["--category", "T", "--corpus", str(corpus), "--script", str(script)]
    for argv in (
        ["run", "--method", "kewltm", "--splits", "2", "--train-size", "3",
         "--n-train", "3", "--out", str(out / "kewltm")],
        ["sweep", "--splits", "2", "--train-size", "2", "--n-train", "2",
         "--thresholds", "0,80", "--out", str(out / "sweep")],
        ["run", "--method", "kewrag", "--guideline", str(guideline), "--k", "3",
         "--out", str(out / "kewrag")],
    ):
        assert main(argv + inputs) == 0
    assert main(["index", "--guideline", str(guideline), "--script", str(script),
                 "--out", str(out / "index.json")]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    names = {p.name for p in files}
    assert {"memory_split0.json", "trace_split0.csv", "rules.json", "index.json",
            "sweep_metrics.csv", "predictions.jsonl"} <= names
    misformatted = []
    for path in files:
        text = path.read_bytes().decode("utf-8")  # no newline translation
        if path.suffix == ".json":
            ok = text == json.dumps(json.loads(text), indent=2, sort_keys=True,
                                    ensure_ascii=False) + "\n"
        elif path.suffix == ".jsonl":
            # split on "\n" alone: a JSON string may hold U+2028
            lines = text.split("\n")
            ok = lines[-1] == "" and all(
                line == json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False)
                for line in lines[:-1]
            )
        else:
            assert path.suffix == ".csv", path
            header = CSV_HEADERS[re.sub(r"\d+$", "", path.stem)]
            ok = "\r" not in text and text.startswith(header + "\n")
        if not ok:
            misformatted.append(str(path.relative_to(out)))
    assert misformatted == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--method", "kewltm", "--threshold", "150"],
        ["sweep", "--thresholds", "0,150"],
        ["sweep", "--train-counts", "2", "--threshold", "-1"],
    ],
    ids=["run", "sweep-thresholds", "sweep-threshold"],
)
def test_threshold_out_of_range_is_usage_error_before_any_call(
    tmp_path, capsys, built_backends, argv
):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, 12)
    script = tmp_path / "script.json"
    write_script(script, 60)
    out = tmp_path / "out"
    code = main(
        argv + ["--category", "T", "--corpus", str(corpus), "--script", str(script),
                "--out", str(out), "--splits", "2", "--train-size", "3", "--n-train", "2"]
    )
    assert code == 2
    assert "[0, 100]" in capsys.readouterr().err
    assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["run", "--method", "rag", "--k", "0"], None, "k must be at least 1"),
        (["run", "--method", "rag"], {"k": 0}, "k must be at least 1"),
        (["run", "--method", "kewltm", "--splits", "0"], None, "n_splits must be at least 1"),
        (["run", "--method", "kewltm", "--train-size", "0"], None,
         "train_size must be at least 1"),
        (["run", "--method", "kewltm", "--n-train", "0"], None, "n_train must be at least 1"),
        (["sweep", "--train-counts", "0,2"], None, "n_train must be at least 1"),
        (["sweep", "--train-counts", "2,5"], None,
         "--train-counts must not exceed train_size 3"),
        (["run", "--method", "kewltm", "--n-train", "25", "--train-size", "20"], None,
         "--n-train must not exceed train_size 20, got 25"),
        (["sweep", "--thresholds", "0,80", "--n-train", "4"], None,
         "--n-train must not exceed train_size 3, got 4"),
        (["run", "--method", "zscot", "--temperature", "-1"], None,
         "temperature must be at least 0, got -1.0"),
        (["run", "--method", "zscot", "--temperature", "nan"], None,
         "temperature must be finite, got nan"),
        (["run", "--method", "zscot", "--temperature", "inf"], None,
         "temperature must be finite, got inf"),
        (["run", "--method", "zscot"], {"temperature": float("nan")},
         "temperature must be finite, got nan"),
        (["run", "--method", "kewltm"], {"threshold": float("inf")},
         "threshold must be finite, got inf"),
        (["run", "--method", "zscot", "--max-tokens", "0"], None,
         "max_tokens must be at least 1, got 0"),
        (["run", "--method", "rag"], {"chunk_max_chars": 199},
         "chunk_max_chars must be at least 200, got 199"),
        (["run", "--method", "rag"], {"chunk_overlap": -1},
         "chunk_overlap must be within [0, chunk_max_chars), got -1"),
        (["run", "--method", "rag"], {"chunk_max_chars": 300, "chunk_overlap": 300},
         "chunk_overlap must be within [0, chunk_max_chars), got 300"),
        (["sweep", "--train-counts", "2"], {"seed": -3}, "seed must be at least 0, got -3"),
        # a repeated point would run twice and write each of its rows twice
        (["sweep", "--train-counts", "2,2"], None, "--train-counts repeats a value: 2, 2"),
        (["sweep", "--thresholds", "80,80.0"], None,
         "--thresholds repeats a value: 80.0, 80.0"),
        (["run"], None, "usage error: --method must be one of "
         "('zscot', 'rag', 'kewltm', 'kewrag')\n"),
        (["run"], {"method": "bogus"}, "usage error: method must be one of "
         "('zscot', 'rag', 'kewltm', 'kewrag'), got 'bogus'\n"),
        # each report's text is its query, so a --query would be ignored
        (["run", "--method", "rag", "--rag-query-mode", "report-text", "--query", "size"], None,
         "--query has no effect with --rag-query-mode report-text"),
        # no report of the corpus carries an N label, so nothing could be scored
        (["run", "--method", "zscot", "--category", "N"], None, "carries a gold N label"),
    ],
    ids=["k", "config-k", "splits", "train-size", "n-train", "sweep-train-counts",
         "sweep-train-counts-above-train-size", "n-train-above-train-size",
         "sweep-thresholds-n-train-above-train-size", "temperature", "temperature-nan",
         "temperature-inf", "config-temperature-nan", "config-threshold-inf", "max-tokens",
         "chunk-max-chars", "negative-chunk-overlap", "chunk-overlap-not-below-max",
         "config-seed", "sweep-repeated-train-count", "sweep-repeated-threshold",
         "run-without-method", "config-method", "query-with-report-text-rag",
         "corpus-without-category-label"],
)
def test_out_of_range_setting_is_usage_error_before_any_call(
    tmp_path, capsys, built_backends, argv, config, message
):
    corpus = tmp_path / "c.jsonl"
    write_keyed_corpus(corpus, 12)  # T labels only
    guideline = tmp_path / "guide.md"
    write_guideline(guideline)
    script = tmp_path / "script.json"
    write_script(script, 60, hash_dim=8)
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    # argv comes last, so its flags override these
    code = main(
        [argv[0], "--category", "T", "--corpus", str(corpus), "--guideline", str(guideline),
         "--script", str(script), "--out", str(out),
         "--splits", "2", "--train-size", "3", "--n-train", "2"] + argv[1:]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--method", "kewltm"], ["sweep", "--train-counts", "1,2"]],
    ids=["run", "sweep"],
)
def test_split_without_labeled_test_report_fails_before_any_call(
    tmp_path, capsys, built_backends, argv
):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, 12)
    splits = make_splits(load_corpus(corpus), 2, 10, 0)
    # only train reports carry a T label: the corpus passes, its splits cannot be scored
    test_ids = {rid for split in splits for rid in split.test_ids}
    write_corpus_jsonl(corpus, [
        {"id": f"r{i:03d}", "text": f"report body {i}", "n_label": None,
         "t_label": None if f"r{i:03d}" in test_ids else LABELS[i % 4]}
        for i in range(12)
    ])
    script = tmp_path / "script.json"
    write_script(script, 60)
    out = tmp_path / "out"
    code = main(argv + ["--category", "T", "--corpus", str(corpus), "--script", str(script),
                        "--out", str(out), "--splits", "2", "--train-size", "10",
                        "--n-train", "2"])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert manifest["error"] == "split 0: no test report carries a gold T label"
    assert manifest["error"] in capsys.readouterr().err
    assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0


@pytest.mark.parametrize(
    "argv",
    [["run", "--method", "zscot"], ["sweep", "--train-counts", "1"]],
    ids=["run", "sweep"],
)
def test_empty_out_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    corpus = inputs / "c.jsonl"
    write_corpus(corpus, 8)
    script = inputs / "script.json"
    write_script(script, 40)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main(
        argv + ["--category", "T", "--corpus", str(corpus), "--script", str(script),
                "--out", "", "--splits", "2", "--train-size", "2"]
    )
    assert code == 2
    assert "out must be a non-empty path" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


T = StageCategory.T
REGISTRY = default_templates(T)
N_TRAIN, N_TEST = 3, 4


def disjoint_splits(n_splits: int, n_test: int = N_TEST) -> tuple[Corpus, list[Split]]:
    """Hand-made splits that share no report, so every call names its split:
    report `s{i}t{j}` trains split i and report `s{i}e{j}` tests it."""
    reports, splits = [], []
    for i in range(n_splits):
        train = tuple(f"s{i}t{j}" for j in range(N_TRAIN))
        test = tuple(f"s{i}e{j}" for j in range(n_test))
        splits.append(Split(seed=i, train_ids=train, test_ids=test))
        reports += [make_report(rid, t=LABELS[j % 4]) for j, rid in enumerate(train + test)]
    return Corpus(tuple(reports)), splits


def sequential_calls(splits: list[Split]) -> list[tuple[str, str]]:
    """The (template, report) of every call when one call runs at a time:
    each split induces, then infers, before the next split starts."""
    calls = []
    for split in splits:
        calls.append(("ltm_elicit", split.train_ids[0]))
        calls += [("ltm_update", rid) for rid in split.train_ids[1:]]
        calls += [("ltm_inference", rid) for rid in split.test_ids]
    return calls


def kewltm_points(
    backend: ContentKeyedBackend, splits: list[Split], corpus: Corpus, width: int,
    points: list[cli.RunConfig], root: Path,
) -> list[dict[str, bytes]]:
    """The directory bytes of each point, run through one `cli._kewltm_points`
    pool into `root/point{p}`, which does not exist beforehand."""
    client = LlmClient(chat_backend=backend, max_in_flight=width)
    outs = [root / f"point{p}" for p in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
    try:
        finished = list(cli._kewltm_points(splits, points, outs, corpus, T, client, REGISTRY))
    finally:
        sys.setswitchinterval(interval)
    assert [point for point, *_ in finished] == points
    return [tree_bytes(out) for out in outs]


def kewltm_point(
    backend: ContentKeyedBackend, splits: list[Split], corpus: Corpus, width: int, root: Path
) -> dict[str, bytes]:
    [tree] = kewltm_points(backend, splits, corpus, width, [cli.RunConfig(n_train=N_TRAIN)], root)
    return tree


def records_per_split(tree: dict[str, bytes]) -> list[int]:
    """The number of prediction records of each split of a point directory."""
    splits = Counter(json.loads(line)["split"] for line in tree["predictions.jsonl"].splitlines())
    return [splits[i] for i in range(len(splits))]


class TestConcurrentSplits:
    @pytest.mark.parametrize("n_splits", [4, 8])
    def test_splits_induce_together_up_to_the_bound(self, tmp_path, n_splits):
        corpus, splits = disjoint_splits(n_splits)
        backend = ContentKeyedBackend()
        # only the first round is held together; after it the client hands
        # each free slot to whichever call asks, so cycles need not stay in step
        backend.barrier = threading.Barrier(
            4, action=lambda: setattr(backend, "barrier", None), timeout=10
        )
        kewltm_point(backend, splits, corpus, 4, tmp_path)
        assert backend.peak == 4  # the barrier lets 4 through together, the pools no more
        # the first round is the elicit call of each of the first four splits
        first_round = sorted(sequential_calls(splits[:4])[::N_TRAIN + N_TEST])
        assert sorted(backend.calls[:4]) == first_round

    def test_inference_of_two_splits_stays_within_the_bound(self, tmp_path):
        corpus, splits = disjoint_splits(2)
        backend = ContentKeyedBackend(
            barrier=threading.Barrier(2, timeout=10),  # the two inductions in step
            infer_barrier=threading.Barrier(4, timeout=10),  # any four reports
        )
        kewltm_point(backend, splits, corpus, 4, tmp_path)
        assert backend.peak == 4
        assert sorted(backend.calls) == sorted(sequential_calls(splits))

    def test_width_one_keeps_the_sequential_call_order(self, tmp_path):
        corpus, splits = disjoint_splits(3)
        backend = ContentKeyedBackend()
        kewltm_point(backend, splits, corpus, 1, tmp_path)
        assert backend.peak == 1
        assert backend.calls == sequential_calls(splits)

    def test_results_match_the_width_one_run(self, tmp_path):
        corpus, splits = disjoint_splits(4)
        backend = ContentKeyedBackend(barrier=threading.Barrier(4, timeout=10))
        wide = kewltm_point(backend, splits, corpus, 4, tmp_path / "wide")
        narrow = kewltm_point(ContentKeyedBackend(), splits, corpus, 1, tmp_path / "narrow")
        assert wide == narrow
        per_split = json.loads(wide["metrics.json"])["per_split"]
        assert [block["split"] for block in per_split] == [0, 1, 2, 3]
        assert records_per_split(wide) == [N_TEST] * 4
        assert len(wide["curves.csv"].splitlines()) == 1 + N_TRAIN  # a header, then each step
        assert {name for name in wide if name.startswith(("memory_", "trace_"))} == {
            f"{kind}_split{i}.{ext}" for i in range(4)
            for kind, ext in (("memory", "json"), ("trace", "csv"))
        }

    def test_terminal_failure_stops_every_split(self, tmp_path, failure_recorded):
        corpus, splits = disjoint_splits(4)
        backend = ContentKeyedBackend(
            barrier=threading.Barrier(2, timeout=10), fail_id="s1t1",
            release=failure_recorded, hold={"s0t1"},
        )
        with pytest.raises(TransportError) as info:
            kewltm_point(backend, splits, corpus, 2, tmp_path)
        assert info.value is backend.error
        # splits 0 and 1 induced in step; split 0's second step, in flight with
        # the failing one, was its last; splits 2 and 3 never started
        assert sorted(backend.calls) == [
            ("ltm_elicit", "s0t0"), ("ltm_elicit", "s1t0"),
            ("ltm_update", "s0t1"), ("ltm_update", "s1t1"),
        ]

    def test_terminal_failure_one_at_a_time_stops_at_the_failing_call(self, tmp_path):
        corpus, splits = disjoint_splits(3)
        backend = ContentKeyedBackend(fail_id="s1e1")
        with pytest.raises(TransportError) as info:
            kewltm_point(backend, splits, corpus, 1, tmp_path)
        assert info.value is backend.error
        calls = sequential_calls(splits)
        assert backend.calls == calls[:calls.index(("ltm_inference", "s1e1")) + 1]


class TestCrossPointPool:
    """Every (point, split) cycle of a sweep runs on one pool under one bound."""

    def _sweep(self, tmp_path, monkeypatch, backend, out_name: str, argv: list[str]) -> int:
        corpus = tmp_path / "c.jsonl"
        write_keyed_corpus(corpus, 12)
        monkeypatch.setattr(cli, "scripted_backend", lambda path: backend)
        return main(
            ["sweep", "--category", "T", "--corpus", str(corpus), "--script", "content-keyed",
             "--out", str(tmp_path / out_name), "--train-size", "3"] + argv
        )

    def test_two_points_of_two_splits_induce_together(self, tmp_path):
        corpus, splits = disjoint_splits(2)
        backend = ContentKeyedBackend(barrier=threading.Barrier(4, timeout=10))
        points = [cli.RunConfig(n_train=N_TRAIN, threshold=t) for t in (0, 80)]
        results = kewltm_points(backend, splits, corpus, 4, points, tmp_path)
        assert backend.peak == 4  # the barrier lets 4 through together, the pools no more
        # the first round is the elicit call of every (point, split)
        assert sorted(backend.calls[:4]) == sorted(2 * sequential_calls(splits)[::N_TRAIN + N_TEST])
        assert len(results) == 2

    @pytest.mark.parametrize(
        "n_splits, train_counts", [(1, (1, N_TRAIN)), (4, (N_TRAIN,))],
        ids=["finished-cycles", "unstarted-cycles"],
    )
    def test_a_cycle_running_alone_infers_with_every_slot(
        self, tmp_path, monkeypatch, n_splits, train_counts
    ):
        """The first cycle runs alone while the others wait, before any call,
        until its inference has returned: neither it nor a cycle that runs
        after it keeps a slot idle for cycles that are not running."""
        corpus, splits = disjoint_splits(n_splits)
        # every N_TEST inference calls meet: a cycle alone infers all its reports together
        backend = ContentKeyedBackend(infer_barrier=threading.Barrier(N_TEST, timeout=10))
        first_done = threading.Event()
        induce, infer = pipelines.induce_ltm, pipelines.run_kewltm_inference
        cycle = threading.local()  # a cycle induces and infers on one thread

        def others_after_the_first(train_reports, *args, **kwargs):
            # the first cycle induces from split 0 cut to the first point's n_train
            first_ids = list(splits[0].train_ids[:train_counts[0]])
            cycle.first = [r.id for r in train_reports] == first_ids
            if not cycle.first:
                assert first_done.wait(timeout=30)  # longer than the barrier's
            return induce(train_reports, *args, **kwargs)

        def signal_once_the_first_inferred(*args, **kwargs):
            try:
                return infer(*args, **kwargs)
            finally:
                if cycle.first:
                    first_done.set()

        monkeypatch.setattr(pipelines, "induce_ltm", others_after_the_first)
        monkeypatch.setattr(pipelines, "run_kewltm_inference", signal_once_the_first_inferred)
        points = [cli.RunConfig(n_train=n) for n in train_counts]
        results = kewltm_points(backend, splits, corpus, 4, points, tmp_path)
        assert backend.peak == 4
        assert [n for tree in results for n in records_per_split(tree)] == (
            [N_TEST] * len(points) * n_splits
        )

    def test_unequal_points_stay_within_the_bound(self, tmp_path):
        corpus, splits = disjoint_splits(3)
        points = [cli.RunConfig(n_train=n) for n in (1, 2, N_TRAIN)]
        backend = ContentKeyedBackend()
        wide = kewltm_points(backend, splits, corpus, 4, points, tmp_path / "wide")
        assert backend.peak <= 4
        assert wide == kewltm_points(ContentKeyedBackend(), splits, corpus, 1, points,
                                     tmp_path / "narrow")

    def test_width_one_keeps_the_point_then_split_order(self, tmp_path):
        corpus, splits = disjoint_splits(2)
        backend = ContentKeyedBackend()
        points = [cli.RunConfig(n_train=n) for n in (2, N_TRAIN)]
        kewltm_points(backend, splits, corpus, 1, points, tmp_path)
        assert backend.peak == 1
        assert backend.calls == (
            sequential_calls([truncate_train(split, 2) for split in splits])
            + sequential_calls(splits)
        )

    def test_wide_sweep_writes_the_width_one_csvs(self, tmp_path, monkeypatch):
        argv = ["--splits", "2", "--n-train", "3", "--thresholds", "0,80"]
        wide = ContentKeyedBackend(barrier=threading.Barrier(4, timeout=10))
        narrow = ContentKeyedBackend()
        narrow.replays_in_call_order = True  # so the client runs one call at a time
        assert self._sweep(tmp_path, monkeypatch, wide, "wide", argv) == 0
        assert self._sweep(tmp_path, monkeypatch, narrow, "narrow", argv) == 0
        assert (wide.peak, narrow.peak) == (4, 1)  # both points' splits ran together
        for name in ("sweep_metrics.csv", "sweep_curves.csv"):
            wide_csv, narrow_csv = ((tmp_path / side / name).read_bytes() for side in ("wide", "narrow"))
            assert wide_csv == narrow_csv

    def test_terminal_failure_stops_every_point(self, tmp_path, failure_recorded):
        corpus, splits = disjoint_splits(2)
        backend = ContentKeyedBackend(
            barrier=threading.Barrier(4, timeout=10), fail_id="s1t1",
            release=failure_recorded, hold={"s0t1"},
        )
        points = [cli.RunConfig(n_train=N_TRAIN, threshold=t) for t in (0, 50, 80)]
        with pytest.raises(TransportError) as info:
            kewltm_points(backend, splits, corpus, 4, points, tmp_path)
        assert info.value is backend.error
        # the splits of points 0 and 1 induced in step and stopped at the failing
        # round; the cycles of point 2 never started
        assert sorted(backend.calls) == sorted(2 * [
            ("ltm_elicit", "s0t0"), ("ltm_elicit", "s1t0"),
            ("ltm_update", "s0t1"), ("ltm_update", "s1t1"),
        ])

    def test_failed_sweep_keeps_every_finished_point(self, tmp_path, monkeypatch):
        write_keyed_corpus(tmp_path / "c.jsonl", 12)  # as `_sweep` writes it
        splits = make_splits(load_corpus(tmp_path / "c.jsonl"), 1, 3, 0)
        # only the n_train=3 point induces from the third train report
        backend = ContentKeyedBackend(fail_id=splits[0].train_ids[2])
        others_done = threading.Event()
        inferred = []
        induce, infer = pipelines.induce_ltm, pipelines.run_kewltm_inference

        def hold_the_failing_point(train_reports, *args, **kwargs):
            if len(train_reports) == 3:  # start only once the other two points have inferred
                assert others_done.wait(timeout=10)
            return induce(train_reports, *args, **kwargs)

        def signal_once_two_inferred(*args, **kwargs):
            records = infer(*args, **kwargs)
            inferred.append(records)
            if len(inferred) == 2:
                others_done.set()
            return records

        monkeypatch.setattr(pipelines, "induce_ltm", hold_the_failing_point)
        monkeypatch.setattr(pipelines, "run_kewltm_inference", signal_once_two_inferred)
        code = self._sweep(tmp_path, monkeypatch, backend, "failed",
                           ["--splits", "1", "--train-counts", "1,3,2"])
        assert code == 1
        manifest = json.loads((tmp_path / "failed" / "manifest.json").read_text())
        assert (manifest["status"], manifest["error"]) == ("FAILED", str(backend.error))
        monkeypatch.setattr(pipelines, "induce_ltm", induce)
        monkeypatch.setattr(pipelines, "run_kewltm_inference", infer)
        assert self._sweep(tmp_path, monkeypatch, ContentKeyedBackend(), "finished",
                           ["--splits", "1", "--train-counts", "1,2"]) == 0
        for name in ("sweep_metrics.csv", "sweep_curves.csv"):
            kept = (tmp_path / "failed" / name).read_text()
            assert kept == (tmp_path / "finished" / name).read_text()
        for point in ("n_train=1", "n_train=2"):
            kept = tree_bytes(tmp_path / "failed" / point)
            assert {"predictions.jsonl", "metrics.json"} <= set(kept)
            assert kept == tree_bytes(tmp_path / "finished" / point)
        unfinished = tmp_path / "failed" / "n_train=3"
        assert not (unfinished / "predictions.jsonl").exists()
        assert not (unfinished / "metrics.json").exists()


class TestRunThreads:
    """A run puts every report on its one report executor; a kewltm run adds
    one pool for its cycles. Both stop before the command returns."""

    def test_sweep_holds_one_report_executor_beside_its_cycle_pool(self, tmp_path):
        corpus, splits = disjoint_splits(2, n_test=8)
        backend = ContentKeyedBackend(barrier=threading.Barrier(8, timeout=10))
        alive = []
        complete = backend.complete

        def counting(request):
            alive.append(threading.active_count())
            return complete(request)

        backend.complete = counting
        before = threading.active_count()
        points = [cli.RunConfig(n_train=N_TRAIN, threshold=t) for t in (0, 40, 60, 80)]
        kewltm_points(backend, splits, corpus, 8, points, tmp_path)
        assert backend.peak == 8  # the barrier lets 8 through together
        # the 8 cycles and the 8 report threads, where a report pool per
        # cycle would add 8 x 8
        assert max(alive) - before <= 8 + 8

    @pytest.mark.parametrize("argv", [
        ["sweep", "--thresholds", "0,80", "--splits", "2", "--train-size", "3", "--n-train", "3"],
        ["run", "--method", "zscot"],
        ["run", "--method", "rag", "--rag-query-mode", "report-text", "--guideline", "guide.md"],
    ], ids=["kewltm-sweep", "zscot", "report-text-rag"])
    def test_no_thread_outlives_its_command(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_keyed_corpus(tmp_path / "c.jsonl", 12)
        write_guideline(tmp_path / "guide.md")
        monkeypatch.setattr(cli, "scripted_backend", lambda path: ContentKeyedBackend())
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        code = main(argv + ["--category", "T", "--corpus", "c.jsonl",
                            "--script", "content-keyed", "--out", "out"])
        assert code == 0
        assert started  # its reports ran on threads
        assert not set(started) & set(threading.enumerate())


class TestEvaluate:
    def _write_predictions(self, path: Path, preds: dict[str, str]) -> None:
        rows = [
            {
                "report_id": rid,
                "category": "T",
                "predicted": label,
                "reasoning": "",
                "method": "zscot",
                "timing_ms": 0,
            }
            for rid, label in preds.items()
        ]
        with path.open("w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_single_file_metrics(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)  # gold: T1 T2 T3 T4
        preds = tmp_path / "p.jsonl"
        self._write_predictions(
            preds, {"r000": "T1", "r001": "T2", "r002": "T3", "r003": "T1"}
        )
        code = main(
            ["evaluate", "--predictions", str(preds),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "macro" in out
        assert "num_errors=1" in out
        assert "25.0%" in out

    def test_records_without_a_gold_label_are_skipped_and_counted(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus_jsonl(corpus, [
            {"id": "r000", "text": "a", "t_label": "T1"},
            {"id": "r001", "text": "b", "t_label": None},
        ])
        preds = tmp_path / "p.jsonl"
        self._write_predictions(preds, {"r000": "T1", "r001": "T2"})
        code = main(["evaluate", "--predictions", str(preds),
                     "--corpus", str(corpus), "--category", "T"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(skipped 1 records without a gold T label)" in out
        assert "num_errors=0 of 1" in out

    def test_two_identical_files_empty_unique_lists(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        preds = tmp_path / "p.jsonl"
        self._write_predictions(
            preds, {"r000": "T1", "r001": "T1", "r002": "T3", "r003": "T4"}
        )
        code = main(
            ["evaluate", "--predictions", str(preds), str(preds),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unique errors" in out
        assert "(0)" in out

    def _kewltm_run(self, tmp_path, capsys) -> tuple[Path, Path]:
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        write_script(script, 24)  # 2 splits x (3 induction + 9 inference)
        out = tmp_path / "out"
        assert main(
            ["run", "--method", "kewltm", "--category", "T", "--corpus", str(corpus),
             "--script", str(script), "--out", str(out),
             "--splits", "2", "--train-size", "3", "--n-train", "3"]
        ) == 0
        capsys.readouterr()
        return corpus, out

    def test_kewltm_file_reproduces_the_run_aggregate(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        code = main(
            ["evaluate", "--predictions", str(out / "predictions.jsonl"),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 0
        printed = dict(re.findall(r"(\w+)=(\S+)", capsys.readouterr().out))
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["error_pct"] is not None
        for key, value in metrics["aggregate"].items():
            assert printed[key] == value
        assert printed["num_errors_mean"] == metrics["num_errors_mean"]
        assert printed["error_pct"] == metrics["error_pct"]

    def test_kewltm_files_compare_split_by_split(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        preds = out / "predictions.jsonl"
        rows = [json.loads(line) for line in preds.read_text().splitlines()]
        unparsed = tmp_path / "unparsed.jsonl"
        # split 1 turns unparseable: its correct predictions become the only unique errors
        unparsed.write_text("".join(
            json.dumps(dict(row, predicted="unparseable") if row["split"] == 1 else row) + "\n"
            for row in rows
        ))
        code = main(
            ["evaluate", "--predictions", str(preds), str(unparsed),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        gold = {r.id: r.gold_label(T) for r in load_corpus(corpus)}
        correct = sorted(
            row["report_id"] for row in rows
            if row["split"] == 1 and row["predicted"] == gold[row["report_id"]].render()
        )
        assert len(correct) >= 2
        assert f"split 0: unique errors of {unparsed} (0): " in lines
        assert f"split 1: unique errors of {preds} (0): " in lines
        assert (
            f"split 1: unique errors of {unparsed} ({len(correct)}): {', '.join(correct)}"
            in lines
        )
        # McNemar per split: (b, c) = (0, 0), then (0, len(correct))
        p_lines = ["split 0: McNemar exact p=1.0",
                   f"split 1: McNemar exact p={min(1.0, 2 / 2 ** len(correct))}"]
        assert [line for line in lines if "McNemar" in line] == p_lines
        assert main(
            ["evaluate", "--predictions", str(unparsed), str(preds),
             "--corpus", str(corpus), "--category", "T"]
        ) == 0
        swapped = capsys.readouterr().out.splitlines()
        assert [line for line in swapped if "McNemar" in line] == p_lines

    def _paired_lines(self, corpus: Path, paths: list[Path], capsys) -> list[str]:
        assert main(["evaluate", "--predictions", *map(str, paths),
                     "--corpus", str(corpus), "--category", "T"]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if "unique errors" in line or "McNemar" in line]

    def test_kewltm_file_pairs_with_a_file_without_splits(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        kewltm = out / "predictions.jsonl"
        rows = [json.loads(line) for line in kewltm.read_text().splitlines()]
        kewltm_preds = {(row["split"], row["report_id"]): row["predicted"] for row in rows}
        gold = {r.id: r.gold_label(T).render() for r in load_corpus(corpus)}
        # a zscot file over all 12 reports, wrong on every odd-numbered one
        zscot_preds = {rid: label if int(rid[1:]) % 2 == 0 else ("T2" if label == "T1" else "T1")
                       for rid, label in gold.items()}
        zscot = tmp_path / "zscot.jsonl"
        self._write_predictions(zscot, zscot_preds)
        expected = []
        for split in (0, 1):
            # each split's pair holds the zscot records of that split's test reports only
            ids = [row["report_id"] for row in rows if row["split"] == split]
            assert len(ids) == 9
            right = {"kewltm": {rid for rid in ids if kewltm_preds[split, rid] == gold[rid]},
                     "zscot": {rid for rid in ids if zscot_preds[rid] == gold[rid]}}
            only_kewltm_wrong = sorted(right["zscot"] - right["kewltm"])
            only_zscot_wrong = sorted(right["kewltm"] - right["zscot"])
            expected.append((split, only_kewltm_wrong, only_zscot_wrong))
        lines = self._paired_lines(corpus, [kewltm, zscot], capsys)
        assert lines == [
            line for split, a, b in expected for line in (
                f"split {split}: unique errors of {kewltm} ({len(a)}): {', '.join(a)}",
                f"split {split}: unique errors of {zscot} ({len(b)}): {', '.join(b)}",
                f"split {split}: McNemar exact p={mcnemar_p(len(a), len(b))}",
            )
        ]
        assert any(a or b for _, a, b in expected)
        # swapped, every value stays: the same unique errors per file, the same p-values
        swapped = self._paired_lines(corpus, [zscot, kewltm], capsys)
        assert sorted(swapped) == sorted(lines)

    def test_sweep_point_file_is_accepted(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        script = tmp_path / "script.json"  # the run's script, replayed once more
        sweep = tmp_path / "sweep"
        assert main(["sweep", "--category", "T", "--corpus", str(corpus), "--script", str(script),
                     "--out", str(sweep), "--splits", "2", "--train-size", "3",
                     "--train-counts", "3"]) == 0
        capsys.readouterr()
        point = sweep / "n_train=3" / "predictions.jsonl"
        assert point.read_bytes() == (out / "predictions.jsonl").read_bytes()
        zscot = tmp_path / "zscot.jsonl"
        self._write_predictions(zscot, {f"r{i:03d}": "T1" for i in range(12)})
        lines = self._paired_lines(corpus, [point, zscot], capsys)
        assert [line.split(": ")[0] for line in lines if "McNemar" in line] == ["split 0", "split 1"]

    def test_files_with_different_splits_are_usage_error(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        preds = out / "predictions.jsonl"
        first = tmp_path / "split0.jsonl"
        first.write_text("".join(
            line + "\n" for line in preds.read_text().splitlines()
            if json.loads(line)["split"] == 0
        ))
        code = main(
            ["evaluate", "--predictions", str(preds), str(first),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 2
        assert "different splits" in capsys.readouterr().err

    def test_unknown_id_names_it(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 2)
        preds = tmp_path / "p.jsonl"
        self._write_predictions(preds, {"ghost": "T1"})
        code = main(
            ["evaluate", "--predictions", str(preds),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_duplicated_record_is_usage_error_naming_both_lines(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        preds = tmp_path / "p.jsonl"
        self._write_predictions(
            preds, {"r000": "T1", "r001": "T2", "r002": "T3", "r003": "T4"}
        )
        lines = preds.read_text().splitlines()
        preds.write_text("\n".join(lines + lines[:1]) + "\n")
        code = main(
            ["evaluate", "--predictions", str(preds),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"{preds} lines 1 and 5: report id 'r000' appears twice" in captured.err
        assert "num_errors" not in captured.out

    def test_kewltm_record_duplicated_within_a_split_is_usage_error(self, tmp_path, capsys):
        corpus, out = self._kewltm_run(tmp_path, capsys)
        lines = (out / "predictions.jsonl").read_text().splitlines()
        row = json.loads(lines[-1])
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join(lines + lines[-1:]) + "\n")
        code = main(
            ["evaluate", "--predictions", str(dup),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 2
        assert (
            f"{dup} lines {len(lines)} and {len(lines) + 1}: report id {row['report_id']!r} "
            f"appears twice in split {row['split']}"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            ["r001"],
            {"predicted": 5},
            {"method": "rag", "retrieved_chunk_ids": 5},
            {"method": "rag", "retrieved_chunk_ids": ["0"]},
            {"report_id": ["r001"]},
            {"timing_ms": "0"},
            {"split": "0"},
            {"category": "N", "predicted": "N1"},
        ],
        ids=["not-an-object", "predicted-number", "chunk-ids-number", "chunk-ids-strings",
             "report-id-list", "timing-string", "split-string", "other-category"],
    )
    def test_malformed_line_is_usage_error_naming_it(self, tmp_path, capsys, fields):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 2)
        preds = tmp_path / "p.jsonl"
        self._write_predictions(preds, {"r000": "T1", "r001": "T2"})
        lines = preds.read_text().splitlines()
        second = fields if isinstance(fields, list) else dict(json.loads(lines[1]), **fields)
        preds.write_text(f"{lines[0]}\n{json.dumps(second)}\n")
        code = main(
            ["evaluate", "--predictions", str(preds),
             "--corpus", str(corpus), "--category", "T"]
        )
        assert code == 2
        assert f"{preds} line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "splits, copies, check",
        [
            ([], 1, "{preds}: no prediction records found"),
            ([0, None], 1, "{preds}: some records carry a split and some do not"),
            ([None, None], 3, "evaluate takes one or two prediction files"),
        ],
        ids=["no-records", "split-on-some-records", "three-files"],
    )
    def test_unusable_prediction_files_are_usage_error(
        self, tmp_path, capsys, splits, copies, check
    ):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 2)
        preds = tmp_path / "p.jsonl"
        self._write_predictions(preds, {f"r{i:03d}": "T1" for i in range(len(splits))})
        rows = [json.loads(line) for line in preds.read_text().splitlines()]
        # a blank line first, all that the no-records file holds
        preds.write_text("\n" + "".join(
            json.dumps(row if split is None else row | {"split": split}) + "\n"
            for row, split in zip(rows, splits)
        ))
        code = main(["evaluate", "--predictions", *[str(preds)] * copies,
                     "--corpus", str(corpus), "--category", "T"])
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {check.format(preds=preds)}\n"


@pytest.mark.parametrize("argv, missing", [
    (["run", "--method", "zscot", "--category", "T"], "--corpus"),
    (["run", "--method", "zscot", "--corpus", "{corpus}"], "--category"),
    (["sweep", "--train-counts", "1", "--category", "T"], "--corpus"),
    (["evaluate", "--predictions", "{corpus}", "--corpus", "{corpus}"], "--category"),
], ids=["run-corpus", "run-category", "sweep-corpus", "evaluate-category"])
def test_command_that_scores_needs_a_corpus_and_a_category(
    tmp_path, capsys, built_backends, argv, missing
):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, 4)
    script = tmp_path / "script.json"
    write_script(script, 4)
    out = tmp_path / "out"
    argv = [arg.format(corpus=corpus) for arg in argv]
    assert main(argv + ["--script", str(script), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {missing} is required\n"
    assert not out.exists() and not built_backends


class TestNonUtf8Input:
    """An input file that is not UTF-8 ends as a typed error naming it: a
    usage error for a config file, exit code 1 for any other file, and a
    FAILED manifest once `run` has created its output directory."""

    @pytest.mark.parametrize(
        "argv, bad, code, manifest",
        [
            (["ingest", "--corpus", "{corpus}", "--config", "{config}"], "config", 2, False),
            (["ingest", "--corpus", "{corpus}"], "corpus", 1, False),
            (["run", "--method", "zscot", "--category", "T", "--corpus", "{corpus}",
              "--script", "{script}", "--out", "{out}"], "corpus", 1, False),
            (["sweep", "--train-counts", "2", "--splits", "1", "--train-size", "3",
              "--category", "T", "--corpus", "{corpus}", "--script", "{script}",
              "--out", "{out}"], "corpus", 1, False),
            (["evaluate", "--predictions", "{predictions}", "--category", "T",
              "--corpus", "{corpus}"], "corpus", 1, False),
            (["run", "--method", "zscot", "--category", "T", "--corpus", "{corpus}",
              "--script", "{script}", "--out", "{out}"], "script", 1, False),
            (["evaluate", "--predictions", "{predictions}", "--category", "T",
              "--corpus", "{corpus}"], "predictions", 1, False),
            (["run", "--method", "zscot", "--category", "T", "--corpus", "{corpus}",
              "--script", "{script}", "--templates", "{templates}", "--out", "{out}"],
             "templates", 1, False),
            (["index", "--guideline", "{guideline}", "--script", "{script}",
              "--out", "{out}/index.json"], "guideline", 1, False),
            (["run", "--method", "rag", "--category", "T", "--corpus", "{corpus}",
              "--guideline", "{guideline}", "--script", "{script}", "--out", "{out}"],
             "guideline", 1, True),
        ],
        ids=["config", "corpus-ingest", "corpus-run", "corpus-sweep", "corpus-evaluate",
             "script", "predictions", "templates", "guideline-index", "guideline-run"],
    )
    def test_names_the_file(self, tmp_path, capsys, argv, bad, code, manifest):
        paths = {name: tmp_path / file for name, file in [
            ("corpus", "c.jsonl"), ("script", "script.json"), ("guideline", "guide.md"),
            ("predictions", "p.jsonl"), ("config", "cfg.json"), ("templates", "tpl"),
            ("out", "out"),
        ]}
        write_corpus(paths["corpus"], 5)
        write_script(paths["script"], 12, hash_dim=8)
        write_guideline(paths["guideline"])
        paths["predictions"].write_text(json.dumps(
            {"report_id": "r000", "category": "T", "predicted": "T1", "method": "zscot"}
        ) + "\n")
        paths["config"].write_text("{}")
        paths["templates"].mkdir()
        body = paths["templates"] / "zscot_inference.txt"
        body.write_text("Stage this: {report}")
        bad_file = body if bad == "templates" else paths[bad]
        bad_file.write_bytes("caf\u00e9 {report}\n".encode("latin-1"))
        assert main([arg.format(**paths) for arg in argv]) == code
        assert str(bad_file) in capsys.readouterr().err
        out = paths["out"] / "manifest.json"
        assert out.exists() == manifest
        if manifest:
            written = json.loads(out.read_text())
            assert written["status"] == "FAILED"
            assert str(bad_file) in written["error"]


class TestConfigPrecedence:
    def test_flag_overrides_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 8)
        script = tmp_path / "script.json"
        write_script(script, 8)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "zscot", "category": "N", "corpus": str(corpus)}))
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg), "--category", "T",
             "--script", str(script), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["category"] == "T"  # flag wins over file
        assert manifest["config"]["method"] == "zscot"  # file supplies the rest

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"n_train": 2.0}, "must be an integer"),
            ({"k": True}, "must be an integer"),
            ({"seed": 1.5}, "must be an integer"),
            ({"max_tokens": "512"}, "must be an integer"),
            ({"threshold": "80"}, "must be a number"),
            ({"temperature": "0"}, "must be a number"),
            ({"threshold": True}, "must be a number"),
            ({"llm_model": None}, "must be a string"),
            ({"query": 5}, "must be a string or null"),
            ({"rag_query_mode": "bogus"}, "must be one of"),
        ],
        ids=["float", "bool", "fraction", "string", "string-threshold",
             "string-temperature", "bool-threshold", "null-model", "int-query",
             "unknown-query-mode"],
    )
    def test_non_integer_config_value_is_usage_error_before_any_call(
        self, tmp_path, capsys, built_backends, values, message
    ):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 12)
        script = tmp_path / "script.json"
        write_script(script, 60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        code = main(
            ["run", "--method", "kewltm", "--config", str(cfg), "--category", "T",
             "--corpus", str(corpus), "--script", str(script), "--out", str(out),
             "--splits", "2", "--train-size", "3"]
        )
        assert code == 2
        (key,) = values
        assert f"{key} {message}" in capsys.readouterr().err
        assert sum(b.chat_calls + b.embed_calls for b in built_backends) == 0
        assert not out.exists()

    @pytest.mark.parametrize("values", [{"category": "X"}, {"method": "bogus"}],
                             ids=["category", "method"])
    def test_unknown_choice_rejected_by_a_command_that_does_not_use_it(
        self, tmp_path, capsys, values
    ):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["ingest", "--config", str(cfg), "--corpus", str(corpus)]) == 2
        (key,) = values
        assert f"{key} must be one of" in capsys.readouterr().err

    def test_integral_threshold_and_temperature_accepted(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 8)
        script = tmp_path / "script.json"
        write_script(script, 8)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 80, "temperature": 0}))
        code = main(
            ["run", "--method", "zscot", "--config", str(cfg), "--category", "T",
             "--corpus", str(corpus), "--script", str(script), "--out", str(tmp_path / "out")]
        )
        assert code == 0

    @pytest.mark.parametrize("text", ["5", '["k"]'], ids=["number", "list"])
    def test_config_file_not_an_object_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["ingest", "--config", str(cfg), "--corpus", "x"]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wat": 1}))
        assert main(["ingest", "--config", str(cfg), "--corpus", "x"]) == 2
        assert "wat" in capsys.readouterr().err

    def test_client_is_built_from_the_config_alone(self, monkeypatch):
        live_env(monkeypatch, llm_base="http://127.0.0.1:9", embed_base="http://127.0.0.1:9")
        client = cli._build_client(cli.RunConfig())
        assert client.chat_backend is None
        assert client.embed_backend is None

    def test_environment_overrides_file_and_flag_overrides_both(
        self, tmp_path, monkeypatch, loopback_endpoints
    ):
        from_file, from_env = loopback_endpoints(), loopback_endpoints()
        live_env(monkeypatch, llm_base=from_env.url)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_base": from_file.url, "llm_model": "file-model"}))
        code = main(
            ["run", "--method", "zscot", "--config", str(cfg), "--category", "T",
             "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--llm-model", "m"]
        )
        assert code == 0
        assert from_file.requests == []
        assert len(from_env.requests) == 4
        assert {r.body["model"] for r in from_env.requests} == {"m"}


# the flag of every config key that has one, and the keys that have none
FLAGS = {
    "category": "--category", "method": "--method", "corpus": "--corpus",
    "guideline": "--guideline", "index": "--index", "k": "--k", "threshold": "--threshold",
    "n_train": "--n-train", "n_splits": "--splits", "seed": "--seed",
    "train_size": "--train-size", "out": "--out", "script": "--script",
    "rag_query_mode": "--rag-query-mode", "templates": "--templates",
    "llm_model": "--llm-model", "embed_model": "--embed-model",
    "temperature": "--temperature", "max_tokens": "--max-tokens", "query": "--query",
}
UNFLAGGED = {"llm_base", "llm_key", "embed_base", "embed_key", "chunk_max_chars", "chunk_overlap"}
# each subcommand's flags besides --config and those of FLAGS
COMMAND_FLAGS = {"ingest": set(), "index": set(), "run": set(),
                 "sweep": {"--train-counts", "--thresholds"}, "evaluate": {"--predictions"}}
# a flag value other than the key's default, and the value it sets
FLAG_VALUES = {
    "category": ("N", "N"), "method": ("kewrag", "kewrag"), "k": ("7", 7),
    "threshold": ("0.5", 0.5), "n_train": ("7", 7), "n_splits": ("7", 7), "seed": ("7", 7),
    "train_size": ("7", 7), "rag_query_mode": ("report-text", "report-text"),
    "temperature": ("0.5", 0.5), "max_tokens": ("7", 7),
}


class TestFlags:
    """Each config key keeps its flag, type and choices, or its lack of a flag."""

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(cli.RunConfig)])
    def test_each_key_is_set_by_its_flag_or_has_none(self, capsys, key):
        if key in UNFLAGGED:
            assert key not in FLAGS
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(["run", "--" + key.replace("_", "-"), "x"])
            assert "unrecognized arguments" in capsys.readouterr().err
            return
        text, value = FLAG_VALUES.get(key, ("x", "x"))
        args = cli.build_parser().parse_args(["run", FLAGS[key], text])
        assert getattr(cli.resolve_config(args), key) == value
        assert type(getattr(args, key)) is type(value)

    @pytest.mark.parametrize("key", ["category", "method", "rag_query_mode"])
    def test_flag_rejects_a_value_outside_its_choices(self, capsys, key):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["run", FLAGS[key], "X"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_exactly_the_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", *FLAGS.values(), *COMMAND_FLAGS[command]}
        assert len(FLAGS) + 1 == 21


class TestStartUpImports:
    """No scripted command imports numpy or the HTTP client modules: retrieval
    runs on the standard library, and `urllib.request` is imported by the
    first live HTTP call."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    PROBED = ("numpy", "http.client", "urllib.request")
    # runs one command in a fresh interpreter, prints which of PROBED it
    # imported and exits with the command's code
    PROBE = (
        "import sys\n"
        "from stagepipe.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(*[name for name in {PROBED!r} if name in sys.modules])\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.parametrize("argv, n_chat", [
        (["ingest"], 0),
        (["index", "--guideline", "guide.md"], 0),
        (["run", "--method", "zscot"], 12),
        # 2 splits x (3 induction + 9 inference)
        (["run", "--method", "kewltm", "--splits", "2", "--train-size", "3", "--n-train", "3"], 24),
        # points 1 and 2: (1 + 10) + (2 + 10) calls per split, 2 splits
        (["sweep", "--splits", "2", "--train-size", "2", "--train-counts", "1,2"], (11 + 12) * 2),
        (["run", "--method", "rag", "--guideline", "guide.md"], 12),
        (["run", "--method", "rag", "--rag-query-mode", "report-text",
          "--guideline", "guide.md"], 12),
        # 1 elicitation + 12 inference
        (["run", "--method", "kewrag", "--guideline", "guide.md"], 13),
    ], ids=["ingest", "index", "zscot", "kewltm", "sweep", "rag-guideline", "rag-report-text",
            "kewrag"])
    def test_command_imports_neither_numpy_nor_http(self, tmp_path, argv, n_chat):
        write_corpus(tmp_path / "c.jsonl", 12)
        write_guideline(tmp_path / "guide.md")
        write_script(tmp_path / "script.json", n_chat, hash_dim=8)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv, "--category", "T", "--corpus", "c.jsonl",
             "--script", "script.json", "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == []
