"""
Corpus ingestion and the eight-split protocol
=============================================

Builds a small JSONL corpus on disk, loads it back with validation, prints
the label distribution, and derives deterministic train/test splits.
"""

import json
import tempfile
from pathlib import Path

from stagepipe.corpus import (
    StageCategory,
    label_distribution,
    load_corpus,
    make_splits,
    truncate_train,
)

# --- write a toy corpus file: one JSON object per line -----------------------
tmp = Path(tempfile.mkdtemp())
corpus_path = tmp / "toy_corpus.jsonl"
labels_t = ["T1", "T1", "T2", "T2", "T3", "T1", "T4", "T2", "T1", "T3"]
with corpus_path.open("w") as fh:
    for i, t in enumerate(labels_t):
        fh.write(
            json.dumps(
                {
                    "id": f"case{i:03d}",
                    "text": f"Pathology report {i}: invasive carcinoma, details vary.",
                    "t_label": t.lower(),  # labels are normalized to uppercase
                    "n_label": f"N{i % 4}",
                }
            )
            + "\n"
        )

corpus = load_corpus(corpus_path)
print(f"loaded {len(corpus)} reports from {corpus_path}")
print("T distribution:", label_distribution(corpus, StageCategory.T))
print("N distribution:", label_distribution(corpus, StageCategory.N))

# --- deterministic splits ----------------------------------------------------
# ids are sorted before a seeded shuffle, so file order never matters;
# split i uses seed base_seed + i
splits = make_splits(corpus, n_splits=3, train_size=4, base_seed=0)
for s in splits:
    print(f"seed {s.seed}: train={s.train_ids} test={s.test_ids[:3]}...")

# the induction phase often uses only a prefix of the train ids
short = truncate_train(splits[0], 2)
print("first 2 train ids of split 0:", short.train_ids)

# rerunning with the same seed reproduces the same split, byte for byte
again = make_splits(corpus, n_splits=3, train_size=4, base_seed=0)
print("splits reproducible:", again == splits)
