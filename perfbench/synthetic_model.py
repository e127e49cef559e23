"""Content-keyed synthetic chat/embed model for the benchmark.

Every reply, and the latency injected before it, is a pure function of the
model's spec and the request's content (template id plus rendered prompt, or
the embedded texts). Call order, call count and the calling thread never
matter, so a run that reorders or parallelises its calls gets byte-identical
replies. That is what lets the benchmark check outputs of later versions
that make inference concurrent or reuse induction prefixes.

Replies imitate a live endpoint closely enough to exercise the client:

* a small share of first replies wraps the JSON object in prose, so the
  parser's fallback path runs;
* the first reply to a staging prompt whose report carries
  `AMBIGUOUS_MARKER` has an invalid stage, so the client re-asks exactly
  once; every corrective prompt gets a valid reply. The inputs mark a fixed
  share of reports, so the number of re-asks does not depend on the seed;
* ``ltm_update`` replies copy the rule list bound into the prompt and
  substitute a per-request fraction of its letters, so the similarity gate
  both accepts and rejects while the rule list keeps its length.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Sequence

# The client's corrective prompt is the original prompt plus this marker and
# an explanation; the model answers it as it would the original, but validly.
CORRECTIVE_MARKER = "\n\nYour previous response was invalid:"
AMBIGUOUS_MARKER = "Addendum: the measurement is under review."

_RULE_LINE = re.compile(r"^\d+\. (.+)$", re.MULTILINE)
_TUMOR_SIZE = re.compile(r"invasive carcinoma measuring (\d+(?:\.\d+)?) cm")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_RULE_WORDS = (
    "tumor size greatest dimension invasive component microscopic extension "
    "skin chest wall ulceration satellite nodules inflammatory carcinoma "
    "measured gross specimen multifocal largest focus assign stage when "
    "exceeds centimeters millimeters does not include in situ component "
    "dermal lymphatic invasion pectoralis muscle alone qualify prefer "
    "pathologic over clinical measurement round down report"
).split()
_STD_NORMAL = NormalDist()
LATENCY_SIGMA = 0.2  # of the lognormal latency; its p99 is about 1.6x the median
EDIT_FRAC = (0.05, 0.35)  # share of letters an update substitutes; the gate is at 80
PROSE_SHARE = 0.05  # first replies wrapped in prose
CORRECT_SHARE = 0.8  # stage answers read off the report rather than drawn at random
EMBED_DIM = 64


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of the synthetic model; stored as the ``--script`` file."""

    seed: int
    chat_latency_ms: float = 0.0  # median of the lognormal chat latency
    embed_latency_ms: float = 0.0  # median of the lognormal embed latency
    rules_chars: int = 400  # serialized length of every rule list

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> ModelSpec:
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class ModelCounters:
    """What the model saw; the benchmark's end-to-end counts come from here."""

    chat_calls: int = 0
    embed_calls: int = 0
    prompt_chars: int = 0
    invalid_replies: int = 0
    corrective_requests: int = 0
    inference_requests: int = 0


class SyntheticModel:
    """Chat and embed backend keyed on request content only."""

    deterministic = True
    model_id = "synthetic"

    def __init__(self, spec: ModelSpec, sleep: Callable[[float], None] = time.sleep):
        self.spec = spec
        self.counters = ModelCounters()
        self._sleep = sleep
        self._lock = threading.Lock()

    @classmethod
    def from_spec_file(cls, path: str | Path) -> SyntheticModel:
        return cls(ModelSpec.load(path))

    # -- keying ---------------------------------------------------------------

    def _rng(self, *parts: str) -> random.Random:
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.spec.seed).encode())
        for part in parts:
            h.update(b"\0")
            h.update(part.encode("utf-8"))
        return random.Random(int.from_bytes(h.digest(), "big"))

    def _latency_s(self, rng: random.Random, median_ms: float) -> float:
        if median_ms <= 0:
            return 0.0
        u = min(max(rng.random(), 1e-9), 1 - 1e-9)
        return median_ms * math.exp(LATENCY_SIGMA * _STD_NORMAL.inv_cdf(u)) / 1000

    # -- chat -----------------------------------------------------------------

    def chat_latency_s(self, request) -> float:
        return self._latency_s(self._rng("latency", request.template_id or "", request.user),
                               self.spec.chat_latency_ms)

    def reply(self, request) -> tuple[str, bool]:
        """The reply text for `request` and whether it is invalid; pure in
        the request's content."""
        user = request.user
        corrective = CORRECTIVE_MARKER in user
        base = user.split(CORRECTIVE_MARKER, 1)[0]
        tid = request.template_id or ""
        rng = self._rng("reply", tid, base)
        schema = request.schema
        obj: dict = {}
        if schema.wants_stage:
            obj["reasoning"] = _reasoning(rng, tid)
            obj["stage"] = _stage(rng, base, schema.label_names())
        if schema.wants_rules:
            current = _RULE_LINE.findall(base) if tid == "ltm_update" else []
            if current:
                obj["rules"] = _edit_rules(rng, current)
            else:
                obj["rules"] = _fresh_rules(rng, self.spec.rules_chars)
        if not corrective and schema.wants_stage and AMBIGUOUS_MARKER in base:
            obj["stage"] = "stage " + obj["stage"].lower()
            return json.dumps(obj), True
        text = json.dumps(obj)
        if not corrective and rng.random() < PROSE_SHARE:
            text = f"Here is the requested assessment.\n{text}\nLet me know if anything is unclear."
        return text, False

    def complete(self, request) -> str:
        text, invalid = self.reply(request)
        delay = self.chat_latency_s(request)
        with self._lock:
            c = self.counters
            c.chat_calls += 1
            c.prompt_chars += len(request.user) + len(request.system or "")
            c.invalid_replies += invalid
            if CORRECTIVE_MARKER in request.user:
                c.corrective_requests += 1
            elif request.template_id == "ltm_inference":
                c.inference_requests += 1
        if delay:
            self._sleep(delay)
        return text

    # -- embed ----------------------------------------------------------------

    def embed_vector(self, text: str) -> list[float]:
        h = hashlib.shake_256(f"{self.spec.seed}\0{text}".encode("utf-8"))
        raw = struct.unpack(f">{EMBED_DIM}I", h.digest(4 * EMBED_DIM))
        return [v / 2**31 - 1.0 for v in raw]

    def embed_latency_s(self, texts: Sequence[str]) -> float:
        return self._latency_s(self._rng("embed", *texts), self.spec.embed_latency_ms)

    def embed(self, texts: Sequence[str]) -> tuple[list[list[float]], str]:
        vectors = [self.embed_vector(t) for t in texts]
        delay = self.embed_latency_s(texts)
        with self._lock:
            self.counters.embed_calls += 1
        if delay:
            self._sleep(delay)
        return vectors, self.model_id


def _reasoning(rng: random.Random, template_id: str) -> str:
    words = " ".join(rng.choice(_RULE_WORDS) for _ in range(24))
    return f"Applying the {template_id} instructions step by step: {words}."


def _stage(rng: random.Random, prompt: str, names: list[str]) -> str:
    m = _TUMOR_SIZE.search(prompt)
    if m and names[0].startswith("T") and rng.random() < CORRECT_SHARE:
        size = float(m.group(1))
        return "T1" if size <= 2 else "T2" if size <= 5 else "T3"
    return rng.choice(names)


def _fresh_rules(rng: random.Random, total_chars: int) -> list[str]:
    """Rules whose newline-joined serialization is exactly `total_chars` long."""
    rules: list[str] = []
    while sum(len(r) + 1 for r in rules) <= total_chars:
        words = [rng.choice(_RULE_WORDS) for _ in range(rng.randint(10, 18))]
        rules.append("When " + " ".join(words) + ".")
    # the cut may end on a space or newline, which trimming would remove
    text = "\n".join(rules)[: total_chars - 1] + "."
    return text.split("\n")


def _edit_rules(rng: random.Random, rules: list[str]) -> list[str]:
    """Substitute a random fraction of the letters; lengths stay the same."""
    chars = list("\n".join(rules))
    letters = [i for i, ch in enumerate(chars) if ch in _LETTERS]
    frac = rng.uniform(*EDIT_FRAC)
    for i in rng.sample(letters, min(len(letters), round(frac * len(chars)))):
        chars[i] = rng.choice(_LETTERS.replace(chars[i], ""))
    return "".join(chars).split("\n")
