"""The benchmark's workloads: their parameters, inputs and expected counts.

Inputs are generated from the seed alone. Every count the benchmark checks
is derived here from the workload parameters, independently of the program
and of the trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from synthetic_model import AMBIGUOUS_MARKER, ModelSpec

CORPUS = "corpus.jsonl"
GUIDELINE = "guideline.md"
SPEC = "model.json"
CONFIG = "config.json"  # settings that have no flag
OUT = "out"
AMBIGUOUS_EVERY = 16  # one report in this many draws exactly one re-ask per prompt


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    method: str
    n_reports: int
    model: dict  # ModelSpec fields other than the seed
    n_splits: int = 1
    train_size: int = 0
    n_train: int = 0
    train_counts: tuple[int, ...] = ()
    guideline_paragraphs: int = 0

    @property
    def test_size(self) -> int:
        return self.n_reports - self.train_size

    def argv(self) -> list[str]:
        argv = [self.command, "--category", "T", "--corpus", CORPUS,
                "--script", SPEC, "--out", OUT]
        if self.command == "run":
            argv += ["--method", self.method]
        if self.method == "rag":
            argv += ["--guideline", GUIDELINE, "--rag-query-mode", "report-text",
                     "--config", CONFIG]
        if self.method == "kewltm":
            argv += ["--splits", str(self.n_splits), "--train-size", str(self.train_size)]
        if self.command == "run" and self.method == "kewltm":
            argv += ["--n-train", str(self.n_train)]
        if self.command == "sweep":
            argv += ["--train-counts", ",".join(map(str, self.train_counts))]
        return argv

    def expected_predictions(self) -> int:
        """Evaluated prediction records one invocation produces."""
        if self.command == "sweep":
            return len(self.train_counts) * self.n_splits * self.test_size
        if self.method == "kewltm":
            return self.n_splits * self.test_size
        return self.n_reports

    def expected_trace_counts(self) -> dict[str, int]:
        """Calls each traced layer boundary must see in one invocation."""
        if self.method == "rag":
            n = self.n_reports
            return {
                "corpus.load": 1, "corpus.splits": 0,
                "retrieval.chunk": 1, "retrieval.build_index": 1, "retrieval.top_k": n,
                "llm.embed": n + 1, "llm.chat": n, "prompts.render": n,
                "memory.edit_distance": 0, "memory.gated_update": 0,
                "pipelines.induce": 0, "pipelines.infer": 1, "evaluation.score": 1,
            }
        counts = self.train_counts or (self.n_train,)
        runs = len(counts) * self.n_splits  # induce -> infer -> score cycles
        steps = sum(counts) * self.n_splits  # induction steps, one gate each
        return {
            "corpus.load": 1, "corpus.splits": 1 + runs,  # make_splits + truncate_train
            "retrieval.chunk": 0, "retrieval.build_index": 0, "retrieval.top_k": 0,
            "llm.embed": 0, "llm.chat": steps + runs * self.test_size,
            "prompts.render": steps + runs * self.test_size,
            "memory.edit_distance": steps, "memory.gated_update": steps,
            "pipelines.induce": runs, "pipelines.infer": runs, "evaluation.score": runs,
        }


_LATENCY = {"chat_latency_ms": 20.0, "embed_latency_ms": 5.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ltm-cpu", command="run", method="kewltm", n_reports=140,
            n_splits=2, train_size=100, n_train=14,
            model={"rules_chars": 2300},
        ),
        Workload(
            name="rag-latency", command="run", method="rag", n_reports=150,
            guideline_paragraphs=60, model=dict(_LATENCY),
        ),
        Workload(
            name="sweep-latency", command="sweep", method="kewltm", n_reports=28,
            n_splits=2, train_size=20, train_counts=(5, 10, 15, 20),
            model={**_LATENCY, "rules_chars": 400},
        ),
    )
}

_PROCEDURES = ("lumpectomy", "segmental mastectomy", "total mastectomy",
               "modified radical mastectomy", "core needle biopsy")
_HISTOLOGY = ("invasive ductal", "invasive lobular", "invasive mucinous",
              "invasive tubular")
_FINDINGS = (
    "Margins are negative, closest margin {m} mm (anterior).",
    "Lymphovascular invasion is {lvi}.",
    "Nottingham grade {g} of 3 (tubules {a}, nuclei {b}, mitoses {c}).",
    "Ductal carcinoma in situ, {dcis} pattern, comprises {p}% of the tumor.",
    "Estrogen receptor {er}; progesterone receptor {pr}; HER2 {her2}.",
    "Microcalcifications are {calc} in association with carcinoma.",
    "The background breast shows {bg} change.",
)


def _report(rng: random.Random, rid: str, ambiguous: bool) -> dict:
    size = round(rng.uniform(0.4, 7.5), 1)
    nodes = rng.choice((0, 0, 0, 1, 2, 3, 5, 11))
    t = "T1" if size <= 2 else "T2" if size <= 5 else "T3"
    n = "N0" if nodes == 0 else "N1" if nodes <= 3 else "N2" if nodes <= 9 else "N3"
    findings = [
        f.format(
            m=rng.randint(1, 15), lvi=rng.choice(("present", "not identified")),
            g=rng.randint(1, 3), a=rng.randint(1, 3), b=rng.randint(1, 3),
            c=rng.randint(1, 3), dcis=rng.choice(("solid", "cribriform")),
            p=rng.randint(0, 40), er=rng.choice(("positive", "negative")),
            pr=rng.choice(("positive", "negative")),
            her2=rng.choice(("0", "1+", "2+", "3+")),
            calc=rng.choice(("present", "absent")),
            bg=rng.choice(("fibrocystic", "columnar cell", "no specific")),
        )
        for f in _FINDINGS
    ]
    text = (
        f"Specimen: {rng.choice(('left', 'right'))} breast, {rng.choice(_PROCEDURES)}. "
        f"Diagnosis: {rng.choice(_HISTOLOGY)} carcinoma. "
        f"Gross: invasive carcinoma measuring {size} cm in greatest dimension. "
        f"Lymph nodes: {nodes} of {nodes + rng.randint(1, 14)} positive for metastatic "
        "carcinoma. " + " ".join(findings)
    )
    if ambiguous:
        text += " " + AMBIGUOUS_MARKER
    return {"id": rid, "text": text, "t_label": t, "n_label": n}


def _guideline(rng: random.Random, paragraphs: int) -> str:
    words = ("tumor", "size", "extension", "chest", "wall", "skin", "nodes",
             "axillary", "micrometastasis", "greatest", "dimension", "category",
             "assign", "invasive", "component", "measured", "clinical")
    return "\n\n".join(
        f"Section {i + 1}. " + " ".join(rng.choice(words) for _ in range(18)) + "."
        for i in range(paragraphs)
    ) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write the corpus, guideline and model spec for (workload, seed)."""
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    rows = [
        _report(rng, f"r{i:04d}", i % AMBIGUOUS_EVERY == 3) for i in range(workload.n_reports)
    ]
    (directory / CORPUS).write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8"
    )
    if workload.guideline_paragraphs:
        (directory / GUIDELINE).write_text(
            _guideline(rng, workload.guideline_paragraphs), encoding="utf-8"
        )
        (directory / CONFIG).write_text('{"chunk_max_chars": 200}\n', encoding="utf-8")
    spec = ModelSpec(seed=seed, **workload.model)
    (directory / SPEC).write_text(spec.to_json() + "\n", encoding="utf-8")
