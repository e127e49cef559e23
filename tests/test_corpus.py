from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagepipe.corpus import (
    Corpus,
    CorpusError,
    Report,
    StageCategory,
    StageLabel,
    label_distribution,
    load_corpus,
    make_splits,
    truncate_train,
    write_utf8,
)
from .conftest import make_report, write_corpus_jsonl

LEGAL_LABELS = ["T1", "T2", "T3", "T4", "N0", "N1", "N2", "N3"]


class TestLabels:
    @pytest.mark.parametrize("name", LEGAL_LABELS)
    def test_round_trip(self, name):
        assert StageLabel.parse(name).render() == name
        assert StageLabel.parse(name.lower()).render() == name

    # a digit other than ASCII's (superscript, Arabic-Indic, fullwidth) is no rank
    @pytest.mark.parametrize(
        "bad", ["T0", "T5", "N4", "X1", "", "T11", "T", "1T", "Tx", "T²", "T٢", "N０"]
    )
    def test_rejects_illegal(self, bad):
        with pytest.raises(CorpusError):
            StageLabel.parse(bad)

    def test_category_mismatch(self):
        with pytest.raises(CorpusError):
            StageLabel.parse("T2", StageCategory.N)

    def test_labels_per_category(self):
        assert StageCategory.T.label_names() == ["T1", "T2", "T3", "T4"]
        assert StageCategory.N.label_names() == ["N0", "N1", "N2", "N3"]

    @pytest.mark.parametrize("category, rank", [(StageCategory.T, 0), (StageCategory.N, 4)])
    def test_constructor_rejects_an_illegal_rank(self, category, rank):
        with pytest.raises(CorpusError, match=f"illegal rank {rank} for category"):
            StageLabel(category, rank)


class TestLoadCorpus:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r1", "text": "some findings", "t_label": "T1", "n_label": None}])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.reports[0].gold_label(StageCategory.T) == StageLabel.parse("T1")
        assert corpus.reports[0].gold_label(StageCategory.N) is None

    def test_label_normalized_to_uppercase(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r1", "text": "x y z", "t_label": "t2", "n_label": "n0"}])
        report = load_corpus(path).reports[0]
        assert report.gold_label(StageCategory.T).render() == "T2"
        assert report.gold_label(StageCategory.N).render() == "N0"

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(
            path,
            [
                {"id": "r1", "text": "a b", "t_label": "T1", "n_label": None},
                {"id": "r1", "text": "c d", "t_label": "T2", "n_label": None},
            ],
        )
        with pytest.raises(CorpusError, match="r1"):
            load_corpus(path)

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "r1", "text": "ok", "t_label": "T1", "n_label": null}\n{oops\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "row, check",
        [
            (["r1", "text"], "expected an object"),
            ({"id": 1, "text": "x"}, "id and text must be strings"),
            ({"id": "r1", "text": None}, "id and text must be strings"),
            ({"id": "r1", "text": "x", "t_label": 1}, "t_label must be a string or null"),
            ({"id": "r1", "text": "x", "n_label": ["N0"]}, "n_label must be a string or null"),
        ],
        ids=["list", "number-id", "null-text", "number-t-label", "list-n-label"],
    )
    def test_wrong_json_type_names_its_line(self, tmp_path, row, check):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r0", "text": "fine"}, row])
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value) == f"c.jsonl line 2: {check}"

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r1", "text": "x", "t_label": "T9", "n_label": None}])
        with pytest.raises(CorpusError, match="T9"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r1", "text": "   ", "t_label": "T1", "n_label": None}])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(path, [{"id": "r1", "t_label": "T1"}])
        with pytest.raises(CorpusError, match="text"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_reference_distribution(self, tmp_path):
        # 800 reports with the reference marginals: T 468/188/108/36, N 316/300/110/74
        t_counts = {"T1": 468, "T2": 188, "T3": 108, "T4": 36}
        n_counts = {"N0": 316, "N1": 300, "N2": 110, "N3": 74}
        t_seq = [lab for lab, c in t_counts.items() for _ in range(c)]
        n_seq = [lab for lab, c in n_counts.items() for _ in range(c)]
        rows = [
            {"id": f"r{i:04d}", "text": f"report {i}", "t_label": t_seq[i], "n_label": n_seq[i]}
            for i in range(800)
        ]
        path = tmp_path / "brca.jsonl"
        write_corpus_jsonl(path, rows)
        corpus = load_corpus(path)
        assert len(corpus) == 800
        assert label_distribution(corpus, StageCategory.T) == t_counts
        assert label_distribution(corpus, StageCategory.N) == n_counts


def make_corpus(n: int) -> Corpus:
    return Corpus(tuple(make_report(f"r{i:04d}", t="T1") for i in range(n)))


class TestSplits:
    def test_no_splits_rejected(self):
        with pytest.raises(CorpusError, match="n_splits must be >= 1, got 0"):
            make_splits(make_corpus(4), n_splits=0, train_size=2, base_seed=0)

    def test_protocol_800(self):
        corpus = make_corpus(800)
        splits = make_splits(corpus, n_splits=8, train_size=100, base_seed=0)
        assert len(splits) == 8
        all_ids = set(corpus.ids())
        for s in splits:
            assert len(s.train_ids) == 100
            assert len(s.test_ids) == 700
            assert set(s.train_ids) | set(s.test_ids) == all_ids
            assert not set(s.train_ids) & set(s.test_ids)
        trains = {s.train_ids for s in splits}
        assert len(trains) == 8  # pairwise distinct

    def test_deterministic(self):
        corpus = make_corpus(50)
        a = make_splits(corpus, 3, 10, 42)
        b = make_splits(corpus, 3, 10, 42)
        assert a == b

    def test_seed_derivation(self):
        corpus = make_corpus(50)
        splits = make_splits(corpus, 3, 10, 7)
        assert [s.seed for s in splits] == [7, 8, 9]

    def test_smallest_legal_split(self):
        corpus = make_corpus(2)
        (split,) = make_splits(corpus, 1, 1, 7)
        assert len(split.train_ids) == 1
        assert len(split.test_ids) == 1

    def test_independent_of_file_order(self):
        reports = tuple(make_report(f"r{i:02d}", t="T1") for i in range(20))
        forward = Corpus(reports)
        backward = Corpus(tuple(reversed(reports)))
        assert make_splits(forward, 2, 5, 0) == make_splits(backward, 2, 5, 0)

    @pytest.mark.parametrize("train_size", [0, 50, 99])
    def test_train_size_range(self, train_size):
        corpus = make_corpus(50)
        if 0 < train_size < 50:
            make_splits(corpus, 1, train_size, 0)
        else:
            with pytest.raises(CorpusError):
                make_splits(corpus, 1, train_size, 0)

    def test_negative_base_seed_rejected(self):
        # Random(-1) draws the stream of Random(1): split 0 and split 2 would be alike
        with pytest.raises(CorpusError, match="seed must be >= 0"):
            make_splits(make_corpus(50), 3, 10, -1)

    @given(
        n=st.integers(min_value=2, max_value=40),
        train=st.integers(min_value=1, max_value=39),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_invariants(self, n, train, seed):
        if not train < n:
            return
        corpus = make_corpus(n)
        (split,) = make_splits(corpus, 1, train, seed)
        assert len(split.train_ids) == train
        assert len(split.test_ids) == n - train
        assert set(split.train_ids) | set(split.test_ids) == set(corpus.ids())


class TestTruncate:
    def test_first_n(self):
        corpus = make_corpus(200)
        (split,) = make_splits(corpus, 1, 100, 0)
        cut = truncate_train(split, 40)
        assert cut.train_ids == split.train_ids[:40]
        assert cut.test_ids == split.test_ids

    def test_identity(self):
        corpus = make_corpus(10)
        (split,) = make_splits(corpus, 1, 4, 0)
        assert truncate_train(split, 4) == split

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_out_of_range(self, n):
        corpus = make_corpus(10)
        (split,) = make_splits(corpus, 1, 4, 0)
        with pytest.raises(CorpusError):
            truncate_train(split, n)


def test_corpus_rejects_no_reports():
    with pytest.raises(CorpusError, match="at least one report"):
        Corpus(())


def test_corpus_rejects_duplicates():
    with pytest.raises(CorpusError):
        Corpus((make_report("a", t="T1"), make_report("a", t="T2")))


def test_by_id_is_built_once_and_read_only():
    corpus = Corpus((make_report("a", t="T1"), make_report("b", t="T2")))
    assert corpus.by_id is corpus.by_id
    assert corpus.by_id["b"] is corpus.reports[1]
    with pytest.raises(TypeError):
        corpus.by_id["c"] = make_report("c")  # type: ignore[index]
    with pytest.raises(AttributeError):
        corpus.by_id = {}  # type: ignore[misc]


def test_report_rejects_mismatched_gold():
    with pytest.raises(CorpusError):
        Report(id="x", text="body", gold={StageCategory.T: StageLabel.parse("N1")})


class TestWriteUtf8:
    def test_writes_the_exact_text_and_its_missing_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        write_utf8(path, "x,ü\r\ny\n")  # line endings as given, UTF-8
        assert path.read_bytes() == "x,ü\r\ny\n".encode("utf-8")
        write_utf8(path, "shorter\n")
        assert path.read_bytes() == b"shorter\n"
        assert os.listdir(path.parent) == ["out.csv"]

    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.json"
        write_utf8(path, "old\n")

        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk gone"):
            write_utf8(path, "new\n")
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_directory_in_the_way_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            write_utf8(tmp_path / "out", "text")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_stale_temp_file_of_this_writer_is_replaced(self, tmp_path):
        """A temp file left by a killed process whose pid and thread id this
        writer now holds does not block the write."""
        path = tmp_path / "manifest.json"
        stale = tmp_path / f"manifest.json.{os.getpid()}-{threading.get_ident()}.tmp"
        stale.write_text("left by a killed process, and longer than the new text\n")
        write_utf8(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_concurrent_writers_share_one_new_directory(self, tmp_path):
        """Writers that all create the same missing directory at once, as the
        cycles of a kewltm point do, each write their own file."""
        out = tmp_path / "point" / "n_train=5"
        start = threading.Barrier(8, timeout=10)
        errors = []

        def write(i: int) -> None:
            try:
                start.wait()
                write_utf8(out / f"memory_split{i}.json", f"{i}\n" * 1000)
            except Exception as exc:  # raised below, on the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert sorted(p.name for p in out.iterdir()) == [f"memory_split{i}.json" for i in range(8)]
        assert all((out / f"memory_split{i}.json").read_text() == f"{i}\n" * 1000
                   for i in range(8))


@pytest.mark.parametrize("module, loaded", [
    ("stagepipe.corpus", ["stagepipe", "stagepipe.corpus"]),
    ("stagepipe.retrieval", ["stagepipe", "stagepipe.corpus", "stagepipe.retrieval"]),
])
def test_a_module_loads_only_the_stagepipe_modules_it_imports(tmp_path, module, loaded):
    """The package itself imports nothing: the corpus module needs no other
    stagepipe module, and retrieval does not load the model client."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'stagepipe')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == loaded
