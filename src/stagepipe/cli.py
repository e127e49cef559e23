"""Command-line entry point: ingest, index, run, sweep, evaluate.

Configuration precedence is flags > environment > config file > defaults.
Defaults match the reference protocol: k=5 retrieved chunks, similarity
threshold 80, 40 induction reports drawn from eight 100-report train splits
seeded from 0. Runs against a scripted backend are fully deterministic:
rerunning a command with the same config reproduces every output byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import evaluation, memory, pipelines, prompts, retrieval
from .corpus import (
    Corpus,
    CorpusError,
    Split,
    StageCategory,
    label_distribution,
    load_corpus,
    make_splits,
    read_json,
    read_jsonl,
    read_utf8,
    truncate_train,
    write_csv,
    write_json,
    write_jsonl,
)
from .llm import HttpChatBackend, HttpEmbedBackend, LlmClient, LlmError, scripted_backend
from .pipelines import PipelineError, PredictionRecord, record_from_json, record_to_json
from .retrieval import RetrievalError

log = logging.getLogger(__name__)

_ENV_KEYS = {
    "STAGEPIPE_LLM_BASE": "llm_base",
    "STAGEPIPE_LLM_KEY": "llm_key",
    "STAGEPIPE_EMBED_BASE": "embed_base",
    "STAGEPIPE_EMBED_KEY": "embed_key",
}

# the value types of each field annotation (bool is an int, so compare
# exactly), and how its flag reads a value
_TYPES = {
    "int": ((int,), "an integer", int),
    "float": ((int, float), "a number", float),
    "str": ((str,), "a string", str),
    "str | None": ((str, type(None)), "a string or null", str),
}


def _key(default, help: str | None = None, *, flag: str | None = None, least=None,
         most=None, choices: tuple = ()):
    """A config key with its default, and the flag that sets it when it has
    `help`: `--key-name` unless `flag` names another. Its values must be at
    least `least` (and at most `most`) when given, or one of `choices` (or
    null, where the command that needs one says so)."""
    return dataclasses.field(default=default, metadata={
        "help": help, "flag": flag, "least": least, "most": most, "choices": choices,
    })


class UsageError(ValueError):
    """Bad flags/config combination; reported before any work starts."""


# Every error a command can end with other than a UsageError: exit code 1.
# Once a run's or sweep's output directory exists, any error, one of these
# or not, leaves a FAILED manifest.
COMMAND_ERRORS = (
    CorpusError, LlmError, RetrievalError, PipelineError, evaluation.EvaluationError,
    memory.RuleMemoryError, OSError,
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every config key, each field declaring its default, range or choices
    and flag (see `_key`). Building one checks each value's type, choice and
    range (a float must be finite), key by key in field order, so a bad value
    is a usage error before any call; values are stored as given (an
    integral threshold stays an int)."""

    category: str | None = _key(None, "stage category", choices=("T", "N"))
    method: str | None = _key(None, "workflow", choices=tuple(pipelines.METHODS))
    corpus: str | None = _key(None, "corpus JSONL file")
    guideline: str | None = _key(None, "guideline text/markdown file")
    index: str | None = _key(None, "pre-built index JSON file")
    k: int = _key(5, "retrieved chunks per query", least=1)
    threshold: float = _key(80.0, "similarity gate threshold", least=0, most=100)
    n_train: int = _key(40, "induction reports", least=1)
    n_splits: int = _key(8, "number of splits", flag="--splits", least=1)
    seed: int = _key(0, "base seed", least=0)
    train_size: int = _key(100, "train ids per split", least=1)
    out: str = _key("runs/out", "output directory, or file for index")
    script: str | None = _key(None, "scripted backend file (offline deterministic runs)")
    rag_query_mode: str = _key("guideline", "what each rag report retrieves with",
                               choices=pipelines.RAG_QUERY_MODES)
    llm_base: str | None = None
    llm_key: str = ""
    llm_model: str = _key("default", "chat model id")
    embed_base: str | None = None
    embed_key: str = ""
    embed_model: str = _key("default", "embedding model id")
    temperature: float = _key(0.0, "sampling temperature of every chat call", least=0)
    max_tokens: int = _key(1024, "reply token cap of every chat call", least=1)
    chunk_max_chars: int = _key(1200, least=200)

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, meta = getattr(self, field.name), field.metadata
            kinds, noun, _ = _TYPES[field.type]
            if type(value) not in kinds:
                raise UsageError(f"{field.name} must be {noun}, got {value!r}")
            if type(value) is float and not math.isfinite(value):
                raise UsageError(f"{field.name} must be finite, got {value!r}")
            if meta.get("choices") and value is not None and value not in meta["choices"]:
                raise UsageError(f"{field.name} must be one of {meta['choices']}, got {value!r}")
            least, most = meta.get("least"), meta.get("most")
            if most is not None and not least <= value <= most:
                raise UsageError(f"{field.name} must be within [{least}, {most}], got {value}")
            if least is not None and value < least:
                raise UsageError(f"{field.name} must be at least {least}, got {value}")
        if not self.out:  # Path("") is the working directory
            raise UsageError("out must be a non-empty path")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    keys = {field.name for field in dataclasses.fields(RunConfig)}
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = read_json(config_path, UsageError)
        except OSError as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - keys
        if unknown:
            raise UsageError(f"unknown config key(s): {sorted(unknown)}")
        merged.update(file_cfg)
    for env_name, key in _ENV_KEYS.items():
        if env_name in os.environ:
            merged[key] = os.environ[env_name]
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return RunConfig(**merged)


def _build_client(cfg: RunConfig) -> LlmClient:
    """The one client builder. A `--script` backend serves both chat and
    embeddings; otherwise each HTTP backend is built when its base URL is
    set. Only `resolve_config` reads the environment."""
    if cfg.script:
        backend = scripted_backend(cfg.script)
        return LlmClient(chat_backend=backend, embed_backend=backend)
    return LlmClient(
        chat_backend=HttpChatBackend(cfg.llm_base, cfg.llm_key, model=cfg.llm_model,
                                     temperature=cfg.temperature, max_tokens=cfg.max_tokens)
        if cfg.llm_base else None,
        embed_backend=HttpEmbedBackend(cfg.embed_base, cfg.embed_key, model=cfg.embed_model)
        if cfg.embed_base else None,
    )


def _redact(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    for secret in ("llm_key", "embed_key"):
        out[secret] = bool(out[secret])
    return out


def _template_hashes(category: StageCategory) -> dict[str, str]:
    """The body hash of each template a run of `category` renders, by id."""
    return {tid: t.body_hash() for tid, t in prompts.default_templates(category).items()}


# what a command learns as it goes; each is null in its manifest until set
_MANIFEST_FIELDS = ("seeds", "template_hashes", "doc_hash", "query", "query_provenance", "sweep")


def _manifest(
    cfg: RunConfig, command: str, client: LlmClient, fields: dict, error: str | None
) -> dict:
    """The manifest of a `run` or `sweep`: status ok, or FAILED with `error`."""
    return {
        **dict.fromkeys(_MANIFEST_FIELDS),
        **fields,
        "command": command,
        "method": cfg.method,
        "category": cfg.category,
        "config": _redact(cfg),
        "model_ids": {
            "chat": getattr(client.chat_backend, "model_id", None),
            "embed": getattr(client.embed_backend, "model_id", None),
        },
        "timestamp": None if client.deterministic else datetime.now(timezone.utc).isoformat(),
        "status": "ok" if error is None else "FAILED",
        "error": error,
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig) -> int:
    if not cfg.corpus:
        raise UsageError("--corpus is required")
    corpus = load_corpus(cfg.corpus)
    print(f"Loaded {len(corpus)} reports from {cfg.corpus}")
    for category in (StageCategory.T, StageCategory.N):
        counts = label_distribution(corpus, category)
        names = category.label_names()
        header = f"{category.value + ' Category':<12}" + "".join(
            f"{n:>8}" for n in names
        ) + f"{'Total':>8}"
        values = f"{'':<12}" + "".join(f"{counts[n]:>8}" for n in names)
        values += f"{sum(counts.values()):>8}"
        print(header)
        print(values)
    return 0


def _load_or_build_index(cfg: RunConfig, client: LlmClient) -> retrieval.ChunkIndex:
    """Prefers --index, which must have been built from --guideline when both
    are given; else chunks --guideline."""
    doc = read_utf8(cfg.guideline, RetrievalError) if cfg.guideline else None
    doc_hash = retrieval.hash_document(doc) if doc is not None else None
    if cfg.index:
        idx = retrieval.load_index(cfg.index)
        if doc_hash is not None and idx.doc_hash != doc_hash:
            raise RetrievalError(
                f"index {cfg.index} was built from another document than {cfg.guideline}"
            )
        return idx
    chunks = retrieval.chunk_document(doc, max_chars=cfg.chunk_max_chars)
    return retrieval.build_index(chunks, client.embed, doc_hash)


def cmd_index(cfg: RunConfig) -> int:
    if not cfg.guideline:
        raise UsageError("--guideline is required for index")
    out = Path(cfg.out)
    if out.is_dir():  # the default --out is the directory a run writes
        raise UsageError(f"--out {out} is a directory; index writes one file")
    client = _build_client(cfg)
    if client.embed_backend is None:
        raise UsageError(
            "no embedding backend configured (set STAGEPIPE_EMBED_BASE or --script)"
        )
    index = _load_or_build_index(cfg, client)
    retrieval.save_index(index, out)
    print(f"Indexed {len(index)} chunks (dim {index.dim}) -> {out}")
    return 0


def _kewltm_points(
    splits: Sequence[Split],
    points: Sequence[RunConfig],
    outs: Sequence[Path],
    corpus: Corpus,
    category: StageCategory,
    client: LlmClient,
    *,
    param: str | None = None,
) -> Iterator[tuple[RunConfig, dict, list[tuple[int, float]]]]:
    """The kewltm protocol at each point's (n_train, threshold), written into
    that point's directory of `outs`: every split of every point through one
    cycle of truncate -> induce -> infer -> score, all on one pool.

    Each cycle writes its split's frozen memory (`memory_split{i}.json`) and
    induction trace (`trace_split{i}.csv`) before its inference starts. The
    cycle that finishes a point's last split writes the point's
    `predictions.jsonl` (records tagged with their split), `metrics.json`
    (each split's score block, tagged with its index, seed and memory
    version, and their aggregate) and `curves.csv` (the mean memory-length
    curve). So a failed run or sweep keeps every induction and every point
    that finished. Yields, in point order, each finished point with its
    metrics and curve; then raises the first terminal failure, if there was
    one. Errors name the point by its `param` value and the split by its
    index; a split whose test set holds no report with a gold label fails
    before any call.

    Every (point, split) cycle is independent, so up to `min(points x
    splits, max_in_flight)` of them run at once on a pool of their own, and
    put their reports on the run's one executor, `max_in_flight` wide: at
    most 1 + 2 x `max_in_flight` threads. The client bounds the calls and
    decides which runs next. Cycles start in (point, split) order, so at
    width 1 (scripted replays) the calls keep their sequential order: split
    0 of point 0 induces and infers, then split 1, and so on, point after
    point. The first terminal failure stops every cycle: none starts after
    it, and the cycles in flight start no further induction step or report.
    """
    by_id = corpus.by_id
    for i, split in enumerate(splits):
        if all(by_id[rid].gold_label(category) is None for rid in split.test_ids):
            raise evaluation.EvaluationError(
                f"split {i}: no test report carries a gold {category.value} label"
            )
    tasks = [(p, i) for p in range(len(points)) for i in range(len(splits))]
    results: dict[tuple[int, int], tuple] = {}
    lock = threading.Lock()  # guards `results`: one cycle alone sees its point finish
    finished = {}

    def cycle(task: tuple[int, int]) -> None:
        p, i = task
        point, out = points[p], outs[p]
        split = truncate_train(splits[i], point.n_train)
        # both steps through the module, where the benchmark's tracer wraps them
        induction = pipelines.induce_ltm(
            [by_id[rid] for rid in split.train_ids], category, client,
            threshold=point.threshold, run=run,
        )
        if induction.final_memory is None:
            prefix = f"{param}={getattr(point, param)} " if param else ""
            raise PipelineError(f"{prefix}split {i}: induction produced no memory")
        memory.persist(induction.final_memory, out / f"memory_split{i}.json")
        memory.write_traces(induction.traces, out / f"trace_split{i}.csv")
        records = pipelines.run_kewltm_inference(
            [by_id[rid] for rid in split.test_ids], category, induction.final_memory,
            client, run=run,
        )
        block = evaluation.score(records, corpus, category)
        block.update({"split": i, "seed": split.seed,
                      "memory_version": induction.final_memory.version})
        with lock:
            results[task] = records, block, induction.traces
            done = [results.get((p, j)) for j in range(len(splits))]
        if None not in done:  # this cycle finished the point
            per_split, blocks, traces = zip(*done)
            metrics = {"per_split": list(blocks), **evaluation.aggregate_splits(blocks)}
            curve = evaluation.memory_curve(traces)
            write_jsonl(out / "predictions.jsonl", [
                record_to_json(r, split=j) for j, rs in enumerate(per_split) for r in rs
            ])
            write_json(out / "metrics.json", metrics)
            write_csv(out / "curves.csv", ["step", "mean_len"], curve)
            finished[p] = metrics, curve

    error = None
    with (pipelines.Run(client.max_in_flight) as run,
          ThreadPoolExecutor(min(len(tasks), client.max_in_flight)) as cycles):
        try:
            pipelines.run_bounded(cycle, tasks, cycles, run)
        except Exception as exc:  # raised once the finished points are out
            error = exc
    for p in sorted(finished):
        yield (points[p], *finished[p])
    if error is not None:
        raise error


def _check_n_train(points: Sequence[RunConfig], flag: str) -> None:
    """Each kewltm point induces from at most its splits' `train_size`
    reports; `flag` is the one that set `n_train`."""
    for point in points:
        if point.n_train > point.train_size:
            raise UsageError(
                f"{flag} must not exceed train_size {point.train_size}, got {point.n_train}"
            )


def _category(cfg: RunConfig) -> StageCategory:
    """The category of a command that scores a corpus; both are required."""
    if not cfg.corpus:
        raise UsageError("--corpus is required")
    if cfg.category is None:
        raise UsageError("--category is required")
    return StageCategory(cfg.category)


def _setup(
    cfg: RunConfig, method: str
) -> tuple[StageCategory, LlmClient, Corpus, Path]:
    """Checks the inputs of a `run` or `sweep` of `method`, then creates its
    output directory.

    Every check runs before any model call and before the directory exists,
    so a usage error leaves nothing behind. A corpus with no report labeled
    for the category is one: nothing of the run could be scored. So is a
    kewltm `train_size` that leaves a split no test report, and so is a file
    at `--out` or above it.
    """
    category = _category(cfg)
    retrieves = pipelines.METHODS[method].carries_chunks
    if retrieves and not (cfg.guideline or cfg.index):
        raise UsageError(f"--guideline (or --index) is required for method {cfg.method}")
    client = _build_client(cfg)
    if client.chat_backend is None:
        raise UsageError("no chat backend configured (set STAGEPIPE_LLM_BASE or --script)")
    if retrieves and client.embed_backend is None:
        raise UsageError(
            "no embedding backend configured (set STAGEPIPE_EMBED_BASE or --script)"
        )
    corpus = load_corpus(cfg.corpus)
    if all(report.gold_label(category) is None for report in corpus):
        raise UsageError(f"no report in {cfg.corpus} carries a gold {category.value} label")
    if method == "kewltm" and cfg.train_size >= len(corpus):
        raise UsageError(
            f"train_size must be below the corpus size {len(corpus)}, got {cfg.train_size}"
        )
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"--out {out} cannot be a directory: {exc.strerror}")
    return category, client, corpus, out


def _run_command(cfg: RunConfig, command: str, client: LlmClient, out: Path, fields: dict,
                 body: Callable[[dict], None]) -> int:
    """Runs `body(fields)`, then writes `out/manifest.json` from `fields`.

    `body` adds to the manifest `fields` what it learns as it goes (split
    seeds, the guideline hash), so a failed command records as much as it
    got to. Any error, an interrupt too, is recorded in a FAILED manifest
    (its message, or its type's name when it has none) and raised again:
    `main` reports one in COMMAND_ERRORS and exits 1, and any other ends the
    command with its traceback.
    """
    try:
        body(fields)
    except BaseException as exc:
        error = str(exc) or type(exc).__name__
        write_json(out / "manifest.json", _manifest(cfg, command, client, fields, error))
        raise
    write_json(out / "manifest.json", _manifest(cfg, command, client, fields, None))
    return 0


def cmd_run(cfg: RunConfig) -> int:
    method = cfg.method
    if method is None:
        raise UsageError(f"--method must be one of {tuple(pipelines.METHODS)}")
    retrieves = pipelines.METHODS[method].carries_chunks
    if method == "kewltm":
        _check_n_train([cfg], "--n-train")
    category, client, corpus, out = _setup(cfg, method)
    fields = {"template_hashes": _template_hashes(category)}
    # each report's text is its query, so the run has no query of its own
    if retrieves and not (method == "rag" and cfg.rag_query_mode == "report-text"):
        fields["query"] = retrieval.DEFAULT_QUERIES[category]
        fields["query_provenance"] = retrieval.QUERY_PROVENANCE[category]

    def body(fields: dict) -> None:
        if method == "kewltm":  # a sweep of one point, written into --out itself
            splits = make_splits(corpus, cfg.n_splits, cfg.train_size, cfg.seed)
            fields["seeds"] = [s.seed for s in splits]
            ((_, metrics, _),) = _kewltm_points(
                splits, [cfg], [out], corpus, category, client
            )
            agg = metrics["aggregate"]
            print(f"kewltm {category.value}: precision {agg['precision']} "
                  f"recall {agg['recall']} f1 {agg['f1']} over {len(splits)} splits")
            return
        rules, chunk_ids = None, ()
        if retrieves:
            index = _load_or_build_index(cfg, client)
            fields["doc_hash"] = index.doc_hash
            if cfg.k > len(index):  # logged once here: top_k runs once per report
                log.warning("k=%d exceeds index size %d; clamping", cfg.k, len(index))
        if method == "kewrag":
            elicited = pipelines.elicit_kewrag_rules(index, category, client, k=cfg.k)
            memory.persist(elicited.memory, out / "rules.json")
            rules, chunk_ids = elicited.memory, elicited.chunk_ids
        if method == "rag":
            records = pipelines.run_rag(
                list(corpus), category, client, index, k=cfg.k,
                rag_query_mode=cfg.rag_query_mode,
            )
        else:
            records = pipelines.infer(method, list(corpus), category, client,
                                      rules=rules, chunk_ids=chunk_ids)
        metrics = evaluation.score(records, corpus, category)
        write_jsonl(out / "predictions.jsonl", [record_to_json(r) for r in records])
        write_json(out / "metrics.json", metrics)
        m = metrics["macro"]
        print(f"{method} {category.value}: precision {m['precision']:.3f} "
              f"recall {m['recall']:.3f} f1 {m['f1']:.3f} "
              f"errors {metrics['num_errors']} ({metrics['error_pct']})")

    return _run_command(cfg, "run", client, out, fields, body)


def _parse_list(text: str | None, flag: str, kind: type) -> list | None:
    """A comma-separated flag value as a list of `kind`; None when unset."""
    if not text:
        return None
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise UsageError(f"{flag} must be a comma-separated list of non-empty items: {text!r}")
    try:
        return [kind(x) for x in items]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated {kind.__name__} list")


def cmd_sweep(cfg: RunConfig, train_counts: list[int] | None, thresholds: list[float] | None) -> int:
    """`run --method kewltm` at each value of one setting, all on one pool.

    Each point writes what that run writes, but the manifest, into
    `<out>/<param>=<value>/` (`n_train=10`, `threshold=80.0`, as in the CSV
    rows). `sweep_metrics.csv` holds each point's split macro metrics and
    their mean, `sweep_curves.csv` its mean memory-length curve. A failed
    sweep keeps the rows and the directory of every point that finished."""
    if cfg.method is not None and cfg.method != "kewltm":
        raise UsageError("sweep supports only method kewltm")
    if bool(train_counts) == bool(thresholds):
        raise UsageError("provide exactly one of --train-counts or --thresholds")
    param = "n_train" if train_counts else "threshold"
    points: list = train_counts or thresholds  # type: ignore[assignment]
    if len(set(points)) < len(points):  # 80 and 80.0 are one threshold
        flag = "--train-counts" if train_counts else "--thresholds"
        raise UsageError(f"{flag} repeats a value: {', '.join(map(str, points))}")
    point_cfgs = [dataclasses.replace(cfg, **{param: point}) for point in points]
    _check_n_train(point_cfgs, "--train-counts" if train_counts else "--n-train")
    category, client, corpus, out = _setup(cfg, "kewltm")

    def body(fields: dict) -> None:
        splits = make_splits(corpus, cfg.n_splits, cfg.train_size, cfg.seed)
        fields["seeds"] = [s.seed for s in splits]
        metric_rows, curve_rows = [], []
        try:
            for point_cfg, metrics, curve in _kewltm_points(
                splits, point_cfgs, [out / f"{param}={point}" for point in points],
                corpus, category, client, param=param,
            ):
                point = getattr(point_cfg, param)
                blocks = metrics["per_split"]
                mean = {key: sum(b["macro"][key] for b in blocks) / len(blocks)
                        for key in blocks[0]["macro"]}
                rows = [(b["split"], b["seed"], b["macro"]) for b in blocks] + [("mean", "", mean)]
                # macro dicts keep the header's precision, recall, f1 order
                metric_rows.extend([point, split, seed, *m.values()] for split, seed, m in rows)
                curve_rows.extend([point, step, mean_len] for step, mean_len in curve)
        finally:  # a failed sweep keeps the rows of every point that finished
            write_csv(out / "sweep_metrics.csv",
                      [param, "split", "seed", "precision", "recall", "f1"], metric_rows)
            write_csv(out / "sweep_curves.csv", [param, "step", "mean_len"], curve_rows)
        print(f"swept {param} over {points} -> {out}")

    fields = {"template_hashes": _template_hashes(category), "sweep": {param: points}}
    return _run_command(cfg, "sweep", client, out, fields, body)


# the records of a predictions file by split, None for a file without splits
Groups = dict[int | None, list[PredictionRecord]]


def _load_predictions(path: str | Path, category: StageCategory, corpus: Corpus) -> Groups:
    """The records of a predictions file, grouped by the `split` field that
    `run --method kewltm` writes, in split order; one group keyed None for a
    file without that field. A report id appears at most once per group."""
    groups: Groups = {}
    first_line: dict[tuple[int | None, str], int] = {}
    for lineno, obj in read_jsonl(path, UsageError):
        try:
            rec = record_from_json(obj)
        except (KeyError, ValueError, PipelineError) as exc:
            raise UsageError(f"{path} line {lineno}: {exc}")
        split = obj.get("split")
        if split is not None and type(split) is not int:
            raise UsageError(f"{path} line {lineno}: split must be an integer")
        if rec.category is not category:
            raise UsageError(
                f"{path} line {lineno}: record category {rec.category.value} "
                f"does not match --category {category.value}"
            )
        if rec.report_id not in corpus.by_id:
            raise UsageError(
                f"{path} line {lineno}: record references unknown report id {rec.report_id!r}"
            )
        seen = first_line.setdefault((split, rec.report_id), lineno)
        if seen != lineno:
            where = "" if split is None else f" in split {split}"
            raise UsageError(
                f"{path} lines {seen} and {lineno}: report id {rec.report_id!r} "
                f"appears twice{where}"
            )
        groups.setdefault(split, []).append(rec)
    if not groups:
        raise UsageError(f"{path}: no prediction records found")
    if None in groups and len(groups) > 1:
        raise UsageError(f"{path}: some records carry a split and some do not")
    return dict(sorted(groups.items()))


def _pair_splits(a: Groups, b: Groups) -> dict[int | None, tuple[list, list]]:
    """The records of two prediction files, paired split by split. A file
    without splits (zscot, rag, kewrag) pairs with each split of a file with
    splits (kewltm), cut to the report ids of that split's records."""
    def cut(flat: list[PredictionRecord], grouped: Groups) -> Groups:
        ids = {split: {r.report_id for r in records} for split, records in grouped.items()}
        return {split: [r for r in flat if r.report_id in ids[split]] for split in grouped}

    if None in a and None not in b:
        a = cut(a[None], b)
    elif None in b and None not in a:
        b = cut(b[None], a)
    if list(a) != list(b):
        raise UsageError("the two prediction files cover different splits")
    return {split: (a[split], b[split]) for split in a}


def cmd_evaluate(cfg: RunConfig, prediction_paths: list[str]) -> int:
    category = _category(cfg)
    if not 1 <= len(prediction_paths) <= 2:
        raise UsageError("evaluate takes one or two prediction files")
    corpus = load_corpus(cfg.corpus)
    runs = [_load_predictions(path, category, corpus) for path in prediction_paths]
    pairs = _pair_splits(*runs) if len(runs) == 2 else {}
    for path, groups in zip(prediction_paths, runs):
        blocks = [evaluation.score(records, corpus, category) for records in groups.values()]
        skipped = sum(map(len, groups.values())) - sum(b["n_evaluated"] for b in blocks)
        print(f"== {path} ==")
        if skipped:
            print(f"(skipped {skipped} records without a gold {category.value} label)")
        if None in groups:
            print(evaluation.render_metrics_table(blocks[0]))
        else:
            agg = evaluation.aggregate_splits(blocks)
            print(" ".join(f"{key}={value}" for key, value in agg["aggregate"].items())
                  + f" over {len(blocks)} splits")
            print(f"num_errors_mean={agg['num_errors_mean']} error_pct={agg['error_pct']}")
    for split, pair in pairs.items():
        label = "" if split is None else f"split {split}: "
        unique = evaluation.compare_unique_errors(*pair, corpus, category)
        for path, ids in zip(prediction_paths, unique):
            print(f"{label}unique errors of {path} ({len(ids)}): {', '.join(ids)}")
        # per split only: the splits' test sets overlap, so their pairs are not independent
        print(f"{label}McNemar exact p={evaluation.mcnemar_p(*map(len, unique))}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """`--config`, then the flag of each `RunConfig` key that has one."""
    p.add_argument("--config", help="JSON config file")
    for field in dataclasses.fields(RunConfig):
        meta = field.metadata
        if meta.get("help"):
            default = "" if field.default is None else f" (default {field.default})"
            p.add_argument(meta["flag"] or "--" + field.name.replace("_", "-"), dest=field.name,
                           type=_TYPES[field.type][2], choices=meta["choices"] or None,
                           help=meta["help"] + default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagepipe",
        description="Staging workflows and evaluation protocol for pathology reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("ingest", "validate a corpus file and print its label distribution"),
        ("index", "chunk and embed a guideline document into an index file"),
        ("run", "run one workflow end to end and write predictions + metrics"),
        ("sweep", "rerun induction across train counts or thresholds"),
        ("evaluate", "score prediction files against a corpus"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_shared_flags(p)
        if name == "sweep":
            p.add_argument("--train-counts", dest="train_counts",
                           help="comma-separated induction sizes, e.g. 10,20,...")
            p.add_argument("--thresholds", help="comma-separated gate thresholds, e.g. 0,80")
        if name == "evaluate":
            p.add_argument("--predictions", nargs="+", required=True,
                           help="one or two prediction JSONL files")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "index":
            return cmd_index(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(
                cfg,
                _parse_list(args.train_counts, "--train-counts", int),
                _parse_list(args.thresholds, "--thresholds", float),
            )
        return cmd_evaluate(cfg, args.predictions)  # the parser admits no other command
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except COMMAND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
