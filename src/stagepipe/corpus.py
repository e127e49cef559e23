"""Report corpus: label sets, JSONL ingestion, seeded train/test splits, and
the writers of every output file.

A corpus is an ordered collection of pathology reports, each optionally
carrying gold T/N labels. Splits are produced by an explicit seeded
Fisher-Yates shuffle over lexicographically sorted report ids, so the same
(corpus, seed) pair yields byte-identical splits on every platform. Every
output file is written by `write_json`, `write_jsonl` or `write_csv`, so
each format is decided here once: JSON keys sorted, every line ended by LF.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class CorpusError(ValueError):
    """A corpus file, label string, or split request is invalid."""


class StageCategory(Enum):
    """One of the two staging problems: tumor size (T) or nodal involvement (N)."""

    T = "T"
    N = "N"

    @property
    def ranks(self) -> range:
        """Legal numeric ranks for this category (T: 1-4, N: 0-3)."""
        return range(1, 5) if self is StageCategory.T else range(0, 4)

    def labels(self) -> list[StageLabel]:
        """All legal labels of this category, in rank order."""
        return [StageLabel(self, r) for r in self.ranks]

    def label_names(self) -> list[str]:
        return [lab.render() for lab in self.labels()]


@dataclass(frozen=True)
class StageLabel:
    """A single stage label such as T2 or N0. Only the 8 legal labels exist."""

    category: StageCategory
    rank: int

    def __post_init__(self) -> None:
        if self.rank not in self.category.ranks:
            raise CorpusError(
                f"illegal rank {self.rank} for category {self.category.value}"
            )

    def render(self) -> str:
        return f"{self.category.value}{self.rank}"

    @classmethod
    def parse(cls, text: str, category: StageCategory | None = None) -> StageLabel:
        """Parse a label like ``"T2"`` or ``"n0"`` into canonical uppercase form.

        Raises CorpusError for anything outside the 8 legal labels, or when
        `category` is given and the label belongs to the other category.
        """
        s = text.strip().upper()
        if len(s) != 2 or s[0] not in ("T", "N") or s[1] not in "0123456789":
            raise CorpusError(f"unknown stage label {text!r}")
        cat = StageCategory(s[0])
        if int(s[1]) not in cat.ranks:
            raise CorpusError(f"unknown stage label {text!r}")
        label = cls(cat, int(s[1]))
        if category is not None and label.category is not category:
            raise CorpusError(
                f"label {label.render()} does not belong to category {category.value}"
            )
        return label


@dataclass(frozen=True)
class Report:
    """One pathology report with optional gold labels per category."""

    id: str
    text: str
    gold: dict[StageCategory, StageLabel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("report id must be non-empty")
        if not self.text.strip():
            raise CorpusError(f"report {self.id!r} has empty text")
        for cat, lab in self.gold.items():
            if lab.category is not cat:
                raise CorpusError(
                    f"report {self.id!r}: gold label {lab.render()} filed under {cat.value}"
                )

    def gold_label(self, category: StageCategory) -> StageLabel | None:
        return self.gold.get(category)


@dataclass(frozen=True)
class Corpus:
    """An ordered, id-unique collection of reports."""

    reports: tuple[Report, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise CorpusError("corpus must contain at least one report")
        by_id: dict[str, Report] = {}
        for r in self.reports:
            if r.id in by_id:
                raise CorpusError(f"duplicate report id {r.id!r}")
            by_id[r.id] = r
        object.__setattr__(self, "_by_id", MappingProxyType(by_id))

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def by_id(self) -> Mapping[str, Report]:
        """Read-only id -> report lookup, built once with the corpus."""
        return self._by_id

    def ids(self) -> list[str]:
        return [r.id for r in self.reports]


@dataclass(frozen=True)
class Split:
    """A train/test partition of a corpus; train order is the induction order."""

    seed: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; `error`, naming the file, when it is not
    UTF-8 (an unreadable file raises OSError as usual)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})")


def write_utf8(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, whole: into a temp file beside it,
    then `os.replace` into place, so a killed process leaves the old file or
    the new one, never part of either. Creates missing parent directories
    and writes line endings as given. The temp file is named for the process
    and thread, so no two live writers share one; a stale one of that name,
    left by a killed process, is overwritten. It is removed on any error."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    fh = tmp.open("w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """`obj` as JSON: two-space indent, sorted keys, non-ASCII kept, and a
    trailing newline."""
    write_utf8(path, json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """One compact JSON line per row, keys sorted."""
    write_utf8(path, "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
                             for row in rows))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """`header`, then `rows`, as CSV lines ended by LF alone; `csv` quotes
    any field that needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_utf8(path, buf.getvalue())


def typed(value, kind: type | tuple[type, ...], name: str):
    """`value` when its JSON type is `kind` or one of its kinds (a bool is
    not an int here); TypeError naming `name` otherwise."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        noun = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{name} must be a JSON {noun}, got {value!r}")
    return value


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a UTF-8 JSONL corpus file.

    Each line is an object ``{"id": str, "text": str, "t_label": str|null,
    "n_label": str|null}``. Labels are normalized to canonical uppercase.
    Errors carry the 1-based line number.
    """
    path = Path(path)
    reports: list[Report] = []
    seen: set[str] = set()
    # reading has turned \r\n and \r into \n; splitlines would also split
    # a text at U+2028, which JSON strings may hold
    for lineno, line in enumerate(read_utf8(path, CorpusError).split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path.name} line {lineno}: invalid JSON ({exc.msg})")
        if not isinstance(obj, dict):
            raise CorpusError(f"{path.name} line {lineno}: expected an object")
        try:
            rid = obj["id"]
            text = obj["text"]
        except KeyError as exc:
            raise CorpusError(f"{path.name} line {lineno}: missing field {exc.args[0]!r}")
        if not isinstance(rid, str) or not isinstance(text, str):
            raise CorpusError(f"{path.name} line {lineno}: id and text must be strings")
        if rid in seen:
            raise CorpusError(f"{path.name} line {lineno}: duplicate report id {rid!r}")
        gold: dict[StageCategory, StageLabel] = {}
        for key, cat in (("t_label", StageCategory.T), ("n_label", StageCategory.N)):
            raw = obj.get(key)
            if raw is None:
                continue
            if not isinstance(raw, str):
                raise CorpusError(f"{path.name} line {lineno}: {key} must be a string or null")
            try:
                gold[cat] = StageLabel.parse(raw, cat)
            except CorpusError as exc:
                raise CorpusError(f"{path.name} line {lineno}: {exc}")
        try:
            reports.append(Report(rid, text, gold))
        except CorpusError as exc:
            raise CorpusError(f"{path.name} line {lineno}: {exc}")
        seen.add(rid)
    if not reports:
        raise CorpusError(f"{path.name}: no reports found")
    return Corpus(tuple(reports))


def label_distribution(corpus: Corpus, category: StageCategory) -> dict[str, int]:
    """Count of reports per gold label of `category`, keyed by rendered label."""
    counts = {name: 0 for name in category.label_names()}
    for report in corpus:
        lab = report.gold_label(category)
        if lab is not None:
            counts[lab.render()] += 1
    return counts


def _fisher_yates(ids: list[str], seed: int) -> list[str]:
    rng = random.Random(seed)
    out = list(ids)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def make_splits(
    corpus: Corpus, n_splits: int, train_size: int, base_seed: int
) -> list[Split]:
    """Produce `n_splits` deterministic train/test splits.

    Split ``i`` uses seed ``base_seed + i``: report ids are sorted
    lexicographically, shuffled by a seeded Fisher-Yates, and the first
    `train_size` ids become the train set (in shuffled order).
    """
    if n_splits < 1:
        raise CorpusError(f"n_splits must be >= 1, got {n_splits}")
    # Random(-s) draws the same stream as Random(s), so a negative base
    # seed would repeat splits: seeds -1, 0, 1 give splits 0 and 2 alike
    if base_seed < 0:
        raise CorpusError(f"base seed must be >= 0, got {base_seed}")
    if not 0 < train_size < len(corpus):
        raise CorpusError(
            f"train_size must be in (0, {len(corpus)}), got {train_size}"
        )
    base_ids = sorted(corpus.ids())
    splits = []
    for i in range(n_splits):
        seed = base_seed + i
        shuffled = _fisher_yates(base_ids, seed)
        splits.append(
            Split(
                seed=seed,
                train_ids=tuple(shuffled[:train_size]),
                test_ids=tuple(shuffled[train_size:]),
            )
        )
    return splits


def truncate_train(split: Split, n: int) -> Split:
    """Keep only the first `n` train ids; test ids are unchanged."""
    if not 1 <= n <= len(split.train_ids):
        raise CorpusError(
            f"n must be in [1, {len(split.train_ids)}], got {n}"
        )
    return Split(seed=split.seed, train_ids=split.train_ids[:n], test_ids=split.test_ids)

