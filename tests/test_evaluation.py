from __future__ import annotations

import random
from collections.abc import Mapping

import pytest

from stagepipe.corpus import Corpus, StageCategory, StageLabel
from stagepipe.evaluation import (
    EvaluationError,
    aggregate_runs,
    aggregate_splits,
    compare_unique_errors,
    format_error_pct,
    mcnemar_p,
    memory_curve,
    render_metrics_table,
    score,
)
from stagepipe.memory import UpdateTrace
from stagepipe.pipelines import PredictionRecord
from .conftest import make_report

T = StageCategory.T


def corpus_with_gold(gold_by_id: dict[str, str]) -> Corpus:
    return Corpus(tuple(make_report(rid, t=lab) for rid, lab in gold_by_id.items()))


def prediction(rid: str, label: str | None, method: str = "zscot") -> PredictionRecord:
    return PredictionRecord(
        report_id=rid,
        category=T,
        predicted=StageLabel.parse(label) if label else None,
        reasoning="",
        method=method,
    )


def cell_total(block: dict) -> int:
    """Every record the block's confusion matrix counts: its cells and its
    unparseable counts."""
    confusion = block["confusion"]
    return sum(map(sum, confusion["counts"])) + sum(confusion["unparseable"])


def brute_force_metrics(pairs: list[tuple[str, str | None]]):
    """Independent oracle: recount TP/FP/FN per label from raw pairs."""
    labels = ["T1", "T2", "T3", "T4"]
    per_class = {}
    for lab in labels:
        tp = sum(1 for g, p in pairs if g == lab and p == lab)
        fp = sum(1 for g, p in pairs if g != lab and p == lab)
        fn = sum(1 for g, p in pairs if g == lab and p != lab)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[lab] = (precision, recall, f1)
    macro = tuple(
        sum(per_class[lab][i] for lab in labels) / len(labels) for i in range(3)
    )
    return per_class, macro


class CountingMapping(Mapping):
    """A read-only mapping that counts its lookups (`in` and `.get` are lookups too)."""

    def __init__(self, inner: Mapping):
        self.inner = inner
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.inner[key]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


@pytest.fixture(
    params=[
        score,
        lambda records, corpus, category: compare_unique_errors(
            records, records, corpus, category
        ),
    ],
    ids=["score", "compare_unique_errors"],
)
def scorer(request):
    """Each entry point that checks records against the gold labels."""
    return request.param


class TestScore:
    def test_perfect_classifier(self):
        gold = {"a": "T1", "b": "T2", "c": "T3", "d": "T4"}
        corpus = corpus_with_gold(gold)
        records = [prediction(rid, lab) for rid, lab in gold.items()]
        block = score(records, corpus, T)
        macro = block["macro"]
        assert macro["precision"] == macro["recall"] == macro["f1"] == 1.0

    def test_toy_matrix_hand_computation(self):
        # gold (T1, T1, T2, T2), predicted (T1, T2, T2, T2):
        # T1: p=1, r=0.5, f1=2/3; T2: p=2/3, r=1, f1=0.8; T3, T4: 0
        corpus = corpus_with_gold({"a": "T1", "b": "T1", "c": "T2", "d": "T2"})
        records = [
            prediction("a", "T1"),
            prediction("b", "T2"),
            prediction("c", "T2"),
            prediction("d", "T2"),
        ]
        block = score(records, corpus, T)
        by_label = {cm["label"]: cm for cm in block["per_class"]}
        assert by_label["T1"]["precision"] == 1.0
        assert by_label["T1"]["recall"] == 0.5
        assert by_label["T1"]["f1"] == pytest.approx(2 / 3)
        assert by_label["T2"]["precision"] == pytest.approx(2 / 3)
        assert by_label["T2"]["recall"] == 1.0
        assert by_label["T2"]["f1"] == pytest.approx(0.8)
        assert by_label["T3"]["f1"] == 0.0
        assert by_label["T4"]["f1"] == 0.0
        assert block["macro"]["f1"] == pytest.approx((2 / 3 + 0.8) / 4)
        assert block["confusion"] == {
            "labels": ["T1", "T2", "T3", "T4"],
            "counts": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            "unparseable": [0, 0, 0, 0],
        }

    def test_unparseable_is_fn_for_gold_not_fp(self):
        corpus = corpus_with_gold({"a": "T1", "b": "T1"})
        records = [prediction("a", "T1"), prediction("b", None)]
        block = score(records, corpus, T)
        t1 = block["per_class"][0]
        assert t1["precision"] == 1.0  # the unparseable added no false positive
        assert t1["recall"] == 0.5  # but counts as a miss for T1
        assert sum(block["confusion"]["unparseable"]) == 1
        assert cell_total(block) == 2

    def test_unknown_report_id(self, scorer):
        corpus = corpus_with_gold({"a": "T1"})
        with pytest.raises(EvaluationError, match="ghost"):
            scorer([prediction("ghost", "T1")], corpus, T)

    def test_missing_gold_label(self, scorer):
        corpus = Corpus((make_report("a", n="N1"),))
        with pytest.raises(EvaluationError, match="gold"):
            scorer([prediction("a", "T1")], corpus, T)

    def test_unlabeled_records_are_skipped(self, scorer):
        corpus = Corpus((make_report("a", t="T1"), make_report("b", n="N1")))
        labeled = [prediction("a", "T2")]
        assert scorer(labeled + [prediction("b", "T1")], corpus, T) == scorer(labeled, corpus, T)

    def test_each_report_is_looked_up_once(self, monkeypatch):
        corpus = corpus_with_gold({f"r{i}": "T1" for i in range(5)})
        by_id = CountingMapping(corpus.by_id)
        monkeypatch.setattr(Corpus, "by_id", property(lambda self: by_id))
        records = [prediction(f"r{i}", "T2") for i in range(5)]
        score(records, corpus, T)
        assert by_id.lookups == len(records)
        compare_unique_errors(records, records, corpus, T)
        assert by_id.lookups == 3 * len(records)

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(9)
        labels = ["T1", "T2", "T3", "T4"]
        for _ in range(200):
            n = rng.randrange(1, 30)
            gold = {f"r{i}": rng.choice(labels) for i in range(n)}
            corpus = corpus_with_gold(gold)
            pairs = [
                (gold[rid], rng.choice(labels + [None])) for rid in gold
            ]
            records = [
                prediction(rid, pred) for rid, (_, pred) in zip(gold, pairs)
            ]
            block = score(records, corpus, T)
            _, (exp_p, exp_r, exp_f1) = brute_force_metrics(pairs)
            assert block["macro"]["precision"] == pytest.approx(exp_p, abs=1e-12)
            assert block["macro"]["recall"] == pytest.approx(exp_r, abs=1e-12)
            assert block["macro"]["f1"] == pytest.approx(exp_f1, abs=1e-12)
            # the block's error count comes from the matrix; unparseable ones are errors
            assert block["num_errors"] == sum(g != p for g, p in pairs)

    def test_order_invariance(self):
        gold = {"a": "T1", "b": "T2", "c": "T3"}
        corpus = corpus_with_gold(gold)
        records = [prediction("a", "T2"), prediction("b", "T2"), prediction("c", "T1")]
        forward = score(records, corpus, T)
        backward = score(list(reversed(records)), corpus, T)
        assert forward["macro"]["f1"] == backward["macro"]["f1"]

    def test_totals_add_up(self):
        gold = {f"r{i}": "T1" for i in range(10)}
        corpus = corpus_with_gold(gold)
        records = [
            prediction(rid, None if i % 3 == 0 else "T2") for i, rid in enumerate(gold)
        ]
        block = score(records, corpus, T)
        assert cell_total(block) == len(records)

    def test_table_prints_the_matrix_under_the_metrics(self):
        corpus = corpus_with_gold({"a": "T1", "b": "T1", "c": "T2"})
        records = [prediction("a", "T1"), prediction("b", None), prediction("c", "T1")]
        lines = render_metrics_table(score(records, corpus, T)).splitlines()
        assert lines[5].startswith("macro")
        assert lines[6:] == [
            "gold        T1    T2    T3    T4  unparseable",
            "T1           1     0     0     0            1",
            "T2           1     0     0     0            0",
            "T3           0     0     0     0            0",
            "T4           0     0     0     0            0",
            "num_errors=2 of 3 error_pct=66.7%",
        ]


class TestErrorFormatting:
    # the nine reference (count, total) -> percentage pairs
    @pytest.mark.parametrize(
        "count,total,expected",
        [
            (110, 800, "13.8%"),
            (102, 800, "12.8%"),
            (148, 800, "18.5%"),
            (132, 800, "16.5%"),
            (85.50, 700, "12.2%"),
            (82.12, 700, "11.7%"),
            (122, 800, "15.3%"),
            (113, 800, "14.1%"),
            (115.50, 700, "16.5%"),
        ],
    )
    def test_reference_percentages(self, count, total, expected):
        assert format_error_pct(count, total) == expected

    def test_perfect_run(self):
        assert format_error_pct(0, 700) == "0.0%"

    @pytest.mark.parametrize("total", [0, -800])
    def test_non_positive_total_rejected(self, total):
        with pytest.raises(EvaluationError, match="total must be positive"):
            format_error_pct(1, total)

    def test_unparseable_counts_as_error(self):
        gold = {"a": "T1"}
        corpus = corpus_with_gold(gold)
        block = score([prediction("a", None)], corpus, T)
        assert (block["num_errors"], block["error_pct"]) == (1, "100.0%")


class TestAggregateRuns:
    def test_constant_series(self):
        assert aggregate_runs([0.8, 0.8, 0.8]) == "0.800±0.000"

    def test_reference_series(self):
        assert aggregate_runs([0.1, 0.2, 0.3, 0.4]) == "0.250±0.129"

    def test_single_run_mean_only(self):
        assert aggregate_runs([0.822]) == "0.822"

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_runs([])

    def test_macro_aggregation(self):
        blocks = [
            {"macro": {"precision": 0.1, "recall": 0.2, "f1": 0.3},
             "num_errors": 1, "n_evaluated": 2},
            {"macro": {"precision": 0.2, "recall": 0.2, "f1": 0.4},
             "num_errors": 1, "n_evaluated": 2},
        ]
        agg = aggregate_splits(blocks)["aggregate"]
        assert agg["recall"] == "0.200±0.000"
        assert agg["f1"].startswith("0.350±")


class TestAggregateSplits:
    def test_error_pct_only_for_equal_split_totals(self):
        gold = {f"r{i}": "T1" for i in range(4)}
        corpus = corpus_with_gold(gold)
        wrong = score([prediction(rid, "T2") for rid in gold], corpus, T)  # 4 errors
        right = score([prediction(rid, "T1") for rid in gold], corpus, T)  # 0 errors
        one = score([prediction("r0", "T2")], corpus, T)  # 1 error of 1
        assert aggregate_splits([wrong]) == {
            "aggregate": {"precision": "0.000", "recall": "0.000", "f1": "0.000"},
            "num_errors_mean": "4",
            "error_pct": "100.0%",
        }
        even = aggregate_splits([wrong, right])
        assert (even["num_errors_mean"], even["error_pct"]) == ("2.00", "50.0%")
        uneven = aggregate_splits([wrong, one])
        assert (uneven["num_errors_mean"], uneven["error_pct"]) == ("2.50", None)
        assert uneven["aggregate"]["recall"] == aggregate_runs(
            [wrong["macro"]["recall"], one["macro"]["recall"]]
        )

    def test_zero_blocks_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_splits([])

    def test_score_skips_unlabeled_reports(self):
        corpus = Corpus((make_report("a", t="T1"), make_report("b", n="N1")))
        block = score([prediction("a", "T1"), prediction("b", "T2")], corpus, T)
        assert (block["n_evaluated"], block["num_errors"], block["error_pct"]) == (1, 0, "0.0%")
        with pytest.raises(EvaluationError, match="gold"):
            score([prediction("b", "T2")], corpus, T)
        with pytest.raises(EvaluationError, match="ghost"):
            score([prediction("ghost", "T1")], corpus, T)


class TestCompareUniqueErrors:
    def _corpus(self):
        return corpus_with_gold({"1": "T1", "2": "T1", "3": "T1"})

    def test_symmetric_difference_of_wrong_sets(self):
        corpus = self._corpus()
        a = [prediction("1", "T2"), prediction("2", "T2"), prediction("3", "T1")]
        b = [prediction("1", "T1"), prediction("2", "T2"), prediction("3", "T2")]
        a_only, b_only = compare_unique_errors(a, b, corpus, T)
        assert a_only == ["1"]
        assert b_only == ["3"]

    def test_identical_sets(self):
        corpus = self._corpus()
        a = [prediction(rid, "T2") for rid in ("1", "2", "3")]
        a_only, b_only = compare_unique_errors(a, list(a), corpus, T)
        assert a_only == [] and b_only == []

    def test_all_correct_side(self):
        corpus = self._corpus()
        a = [prediction(rid, "T1") for rid in ("1", "2", "3")]
        b = [prediction("1", "T2"), prediction("2", "T1"), prediction("3", "T2")]
        a_only, b_only = compare_unique_errors(a, b, corpus, T)
        assert a_only == []
        assert b_only == ["1", "3"]

    def test_sets_may_differ_in_unlabeled_reports(self):
        corpus = Corpus((make_report("1", t="T1"), make_report("2", n="N1")))
        a = [prediction("1", "T2"), prediction("2", "T1")]
        b = [prediction("1", "T1")]
        assert compare_unique_errors(a, b, corpus, T) == (["1"], [])
        assert compare_unique_errors(b, a, corpus, T) == ([], ["1"])

    def test_id_set_mismatch(self):
        # the sets differ in five ids; the message names the three smallest
        gold = {rid: "T1" for rid in ("r0", "r1", "r3", "r5", "r7", "r8")}
        corpus = corpus_with_gold(gold)
        a = [prediction(rid, "T1") for rid in ("r7", "r0", "r5", "r1")]
        b = [prediction(rid, "T1") for rid in ("r8", "r3", "r0")]
        message = "record sets cover different report ids (e.g. ['r1', 'r3', 'r5'])"
        for pair in ((a, b), (b, a)):
            with pytest.raises(EvaluationError) as excinfo:
                compare_unique_errors(*pair, corpus, T)
            assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "b, c, p", [(0, 6, 0.03125), (1, 9, 0.021484375), (3, 3, 1.0), (0, 0, 1.0), (0, 1, 1.0)]
)
def test_mcnemar_exact_two_sided_p(b, c, p):
    assert mcnemar_p(b, c) == p
    assert mcnemar_p(c, b) == p  # which method is named first does not matter


class TestMemoryCurve:
    def _traces(self, lengths: list[int]) -> list[UpdateTrace]:
        return [
            UpdateTrace(step=i, proposed_len=n, current_len=n, similarity=100.0, accepted=True)
            for i, n in enumerate(lengths, 1)
        ]

    def test_single_run_passthrough(self):
        series = memory_curve([self._traces([10, 10, 25])])
        assert series == [(1, 10.0), (2, 10.0), (3, 25.0)]

    def test_two_run_mean(self):
        series = memory_curve([self._traces([10, 20]), self._traces([30, 40])])
        assert series == [(1, 20.0), (2, 30.0)]

    def test_unequal_lengths_rejected(self):
        # every split of a point induces over exactly n_train reports
        with pytest.raises(EvaluationError, match=r"equal length, got \[1, 2\]"):
            memory_curve([self._traces([10]), self._traces([30, 50])])

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            memory_curve([])
