"""
Scoring, error tables, and multi-run aggregation
================================================

Walks through the evaluation machinery on a toy prediction set: `score`
gives a score block (per-class and macro metrics, the error count and the
confusion matrix it comes from) over the records whose report carries a
gold label; error rows built from score blocks the way `run` and
`evaluate` build them (one block per run or split, the count averaged over
runs), the reference rounding, unique-error comparison between two
methods, and mean±std aggregation.
"""

from stagepipe.corpus import Corpus, Report, StageCategory, StageLabel
from stagepipe.evaluation import (
    aggregate_runs,
    aggregate_splits,
    compare_unique_errors,
    format_error_pct,
    render_metrics_table,
    score,
)
from stagepipe.pipelines import PredictionRecord

T = StageCategory.T


def record(rid: str, label: str | None, method: str = "zscot") -> PredictionRecord:
    return PredictionRecord(
        report_id=rid,
        category=T,
        predicted=StageLabel.parse(label) if label else None,
        reasoning="",
        method=method,
    )


gold = {"a": "T1", "b": "T1", "c": "T2", "d": "T2", "e": "T3", "f": "T4"}
corpus = Corpus(tuple(Report(rid, f"report {rid}", {T: StageLabel.parse(lab)})
                      for rid, lab in gold.items()))

# method A gets four right; method B gets a different four right
preds_a = {"a": "T1", "b": "T2", "c": "T2", "d": "T2", "e": "T3", "f": None}
preds_b = {"a": "T1", "b": "T1", "c": "T2", "d": "T3", "e": "T3", "f": "T4"}
records_a = [record(rid, lab, "zscot") for rid, lab in preds_a.items()]
# kewltm records carry the frozen memory version they were produced with
records_b = [
    PredictionRecord(
        report_id=rid,
        category=T,
        predicted=StageLabel.parse(lab) if lab else None,
        reasoning="",
        method="kewltm",
        memory_version=1,
    )
    for rid, lab in preds_b.items()
]

print("method A:")
block = score(records_a, corpus, T)
print(render_metrics_table(block))
# the block, as metrics.json holds it, carries the matrix the table prints
print("confusion:", block["confusion"])

# unparseable predictions (None above) count as errors for their gold class;
# a row aggregates one score block per run, its count the mean over the runs
print("\nerror table:")
for method, runs in (("A", [records_a]), ("B", [records_b]),
                     ("A and B as two runs", [records_a, records_b])):
    blocks = [score(run, corpus, T) for run in runs]
    row = aggregate_splits(blocks)
    print(f"  {method}: {row['num_errors_mean']} errors of {blocks[0]['n_evaluated']}"
          f" -> {row['error_pct']}")

# the rounding is half-away-from-zero: 110 of 800 renders 13.8%
print("\nreference roundings:", format_error_pct(110, 800), format_error_pct(115.50, 700))

a_only, b_only = compare_unique_errors(records_a, records_b, corpus, T)
print(f"\nA-only errors (B correct): {a_only}")
print(f"B-only errors (A correct): {b_only}")

# eight-run aggregation renders mean and sample standard deviation
f1_runs = [0.822, 0.815, 0.83, 0.812, 0.825, 0.81, 0.83, 0.82]
print(f"\nf1 over eight runs: {aggregate_runs(f1_runs)}")
