"""Metrics, error counts, multi-run aggregation, paired tests, and trace analysis.

One pass checks records against the corpus gold labels: a record whose
report lacks the category's label is skipped, and a record of an unknown
report, or a set with no labeled record, is an error. `score` turns the
labeled records into a score block, which carries its confusion matrix:
the one result format that `metrics.json`, `aggregate_splits` and
`render_metrics_table` read.

Each category is scored as a 4-class problem: per-class precision, recall,
and F1 from the confusion matrix, macro-averaged with equal class weights.
Unparseable predictions count as errors (a false negative for the gold
class, a false positive for nothing). Zero denominators yield 0 by
convention. Percentages round half away from zero; multi-run results render
as "mean±sample-std".
"""

from __future__ import annotations

import math
import statistics
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .corpus import Corpus, StageCategory, StageLabel
from .memory import UpdateTrace
from .pipelines import PredictionRecord


class EvaluationError(ValueError):
    """Records or aggregation inputs are inconsistent."""


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _with_gold(
    records: Sequence[PredictionRecord], corpus: Corpus, category: StageCategory
) -> list[tuple[PredictionRecord, StageLabel]]:
    """Each record whose report carries a gold label for `category`, paired
    with that label; records of unlabeled reports are skipped.

    The one check of records against the corpus: a record of an unknown
    report, or a set with no labeled record, is an EvaluationError.
    """
    by_id = corpus.by_id
    pairs = []
    for rec in records:
        report = by_id.get(rec.report_id)
        if report is None:
            raise EvaluationError(f"record references unknown report id {rec.report_id!r}")
        gold = report.gold_label(category)
        if gold is not None:
            pairs.append((rec, gold))
    if not pairs:
        raise EvaluationError(f"no records carry a gold {category.value} label")
    return pairs


def score(
    records: Sequence[PredictionRecord],
    corpus: Corpus,
    category: StageCategory,
) -> dict:
    """The score block of one run or split, over its records with a gold
    label: macro and per-class metrics, the error count and its percentage,
    and the confusion matrix they come from (`confusion`: the label order,
    the 4x4 counts indexed [gold][predicted] and the unparseable count of
    each gold class; the errors are its off-diagonal and unparseable cells)."""
    pairs = _with_gold(records, corpus, category)
    offset = category.ranks.start
    counts = [[0] * 4 for _ in range(4)]
    unparseable = [0] * 4
    for rec, gold in pairs:
        if rec.predicted is None:
            unparseable[gold.rank - offset] += 1
        else:
            counts[gold.rank - offset][rec.predicted.rank - offset] += 1
    per_class = []
    for lab in category.labels():
        i = lab.rank - offset
        tp = counts[i][i]
        fp = sum(row[i] for row in counts) - tp
        fn = sum(counts[i]) - tp + unparseable[i]
        p = _safe_div(tp, tp + fp)
        r = _safe_div(tp, tp + fn)
        per_class.append({"label": lab.render(), "precision": p, "recall": r,
                          "f1": _safe_div(2 * p * r, p + r)})
    n_errors = len(pairs) - sum(counts[i][i] for i in range(4))
    return {
        "n_evaluated": len(pairs),
        "macro": {key: sum(c[key] for c in per_class) / len(per_class)
                  for key in ("precision", "recall", "f1")},
        "per_class": per_class,
        "num_errors": n_errors,
        "error_pct": format_error_pct(n_errors, len(pairs)),
        "confusion": {"labels": category.label_names(), "counts": counts,
                      "unparseable": unparseable},
    }


def format_error_pct(count: float, total: int) -> str:
    """Percentage of errors, one decimal, round half away from zero."""
    if total <= 0:
        raise EvaluationError("total must be positive")
    pct = (Decimal(str(count)) * 100 / Decimal(total)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return f"{pct}%"


def aggregate_splits(blocks: Sequence[dict]) -> dict:
    """The KEwLTM statistic over the score blocks of its splits (or of any
    runs): mean±std of the macro metrics, the mean error count (two decimals
    for several runs), and its percentage of the per-run evaluated total,
    None when the runs evaluated different numbers of records."""
    aggregate = {key: aggregate_runs([b["macro"][key] for b in blocks])
                 for key in ("precision", "recall", "f1")}
    errors = [b["num_errors"] for b in blocks]
    totals = {b["n_evaluated"] for b in blocks}
    mean = sum(errors) / len(errors)
    return {
        "aggregate": aggregate,
        "num_errors_mean": f"{mean:.2f}" if len(errors) > 1 else str(errors[0]),
        "error_pct": format_error_pct(mean, totals.pop()) if len(totals) == 1 else None,
    }


def aggregate_runs(values: Sequence[float]) -> str:
    """Render a metric series as ``mean±std`` (sample std, 3 decimals).

    A single value renders as the mean alone.
    """
    if not values:
        raise EvaluationError("cannot aggregate an empty series")
    mean = statistics.fmean(values)
    if len(values) == 1:
        return f"{mean:.3f}"
    return f"{mean:.3f}±{statistics.stdev(values):.3f}"


def compare_unique_errors(
    a: Sequence[PredictionRecord],
    b: Sequence[PredictionRecord],
    corpus: Corpus,
    category: StageCategory,
) -> tuple[list[str], list[str]]:
    """Ids wrong under one method while the other was correct, both ways,
    over the records with a gold label; both sets must label the same ids."""
    labeled = [_with_gold(records, corpus, category) for records in (a, b)]
    ids_a, ids_b = ({rec.report_id for rec, _ in pairs} for pairs in labeled)
    if ids_a != ids_b:
        sample = sorted(ids_a ^ ids_b)[:3]
        raise EvaluationError(f"record sets cover different report ids (e.g. {sample})")
    wrong_a, wrong_b = (
        {rec.report_id for rec, gold in pairs if rec.predicted != gold} for pairs in labeled
    )
    return sorted(wrong_a - wrong_b), sorted(wrong_b - wrong_a)


def mcnemar_p(b: int, c: int) -> float:
    """Exact two-sided McNemar p-value of two methods on one test set.

    `b` and `c` count the reports each method alone got wrong. Under the null
    hypothesis each such report is equally likely to be either's, so the
    p-value is twice the binomial(b + c, 1/2) tail at min(b, c), capped at 1
    (McNemar 1947; the exact form Dietterich 1998 recommends).
    """
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return min(1.0, 2 * tail / 2**n)


def memory_curve(
    per_run_traces: Sequence[Sequence[UpdateTrace]],
) -> list[tuple[int, float]]:
    """Per-step mean serialized-memory length across runs.

    Every run must hold the same number of steps: each split of a point
    induces over exactly its `n_train` reports, one trace row per step.
    """
    if not per_run_traces or any(not run for run in per_run_traces):
        raise EvaluationError("memory_curve needs at least one non-empty trace per run")
    lengths = [len(run) for run in per_run_traces]
    if len(set(lengths)) > 1:
        raise EvaluationError(f"memory_curve needs traces of equal length, got {lengths}")
    return [
        (step, sum(t.current_len for t in rows) / len(rows))
        for step, rows in enumerate(zip(*per_run_traces), 1)
    ]


def render_metrics_table(block: dict) -> str:
    """Human-readable per-class and macro metrics of a score block, its
    confusion matrix (a row per gold label) and its error count."""
    rows = [(c["label"], c) for c in block["per_class"]] + [("macro", block["macro"])]
    lines = [f"{'label':<8}{'precision':>10}{'recall':>10}{'f1':>10}"]
    lines += [
        f"{label:<8}{m['precision']:>10.3f}{m['recall']:>10.3f}{m['f1']:>10.3f}"
        for label, m in rows
    ]
    confusion = block["confusion"]
    lines.append(f"{'gold':<8}" + "".join(f"{label:>6}" for label in confusion["labels"])
                 + f"{'unparseable':>13}")
    lines += [
        f"{label:<8}" + "".join(f"{n:>6}" for n in row) + f"{unparseable:>13}"
        for label, row, unparseable in zip(
            confusion["labels"], confusion["counts"], confusion["unparseable"]
        )
    ]
    lines.append(f"num_errors={block['num_errors']} of {block['n_evaluated']} "
                 f"error_pct={block['error_pct']}")
    return "\n".join(lines)
