"""Prompt templates for the four workflows, rendered from named placeholders.

Seven templates exist per category: rule elicitation, rule update, and
memory-guided inference for the iterative workflow; one-shot elicitation and
rule-guided inference for the retrieval workflow; plus plain step-by-step
inference and raw-context inference for the two baselines. Placeholders use
``{name}`` syntax with literal braces doubled. The shipped wording is
editable via an override directory; run manifests embed each template's
body hash so results stay attributable to exact prompt text.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus import StageCategory, read_utf8
from .llm import ChatRequest, OutputSchema

TEMPLATE_IDS = (
    "ltm_elicit",
    "ltm_update",
    "ltm_inference",
    "rag_elicit",
    "rag_inference",
    "zscot_inference",
    "rawrag_inference",
)

_REQUIRED: dict[str, frozenset[str]] = {
    "ltm_elicit": frozenset({"report"}),
    "ltm_update": frozenset({"report", "memory"}),
    "ltm_inference": frozenset({"report", "memory"}),
    "rag_elicit": frozenset({"chunks"}),
    "rag_inference": frozenset({"report", "rules"}),
    "zscot_inference": frozenset({"report"}),
    "rawrag_inference": frozenset({"report", "chunks"}),
}


class TemplateError(ValueError):
    """A template body, registry, or render request is invalid."""


def _placeholders(body: str) -> set[str]:
    """Names of all replacement fields in `body` ({{ }} are literals)."""
    names = set()
    try:
        for _, field_name, _, _ in string.Formatter().parse(body):
            if field_name is not None:
                if not field_name or not field_name.isidentifier():
                    raise TemplateError(f"bad placeholder {{{field_name}}}")
                names.add(field_name)
    except ValueError as exc:
        raise TemplateError(f"malformed placeholder syntax: {exc}")
    return names


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    required_placeholders: frozenset[str]
    schema: OutputSchema
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if self.template_id not in TEMPLATE_IDS:
            raise TemplateError(f"unknown template id {self.template_id!r}")
        found = _placeholders(self.body)
        missing = self.required_placeholders - found
        if missing:
            raise TemplateError(
                f"{self.template_id}: body lacks required placeholder(s) "
                f"{sorted(missing)}"
            )
        extra = found - self.required_placeholders
        if extra:
            raise TemplateError(
                f"{self.template_id}: body has undeclared placeholder(s) {sorted(extra)}"
            )

    def body_hash(self) -> str:
        return hashlib.sha256(self.body.encode("utf-8")).hexdigest()


def render(template: PromptTemplate, bindings: dict[str, str]) -> ChatRequest:
    """Substitute placeholders verbatim and produce a schema-bound request."""
    missing = template.required_placeholders - set(bindings)
    if missing:
        raise TemplateError(
            f"{template.template_id}: missing binding(s) {sorted(missing)}"
        )
    extra = set(bindings) - template.required_placeholders
    if extra:
        raise TemplateError(
            f"{template.template_id}: extraneous binding(s) {sorted(extra)}"
        )
    for name, value in bindings.items():
        if not value.strip():
            raise TemplateError(f"{template.template_id}: empty binding {name!r}")
    return ChatRequest(
        user=template.body.format(**bindings),
        schema=template.schema,
        temperature=template.temperature,
        max_tokens=template.max_tokens,
        template_id=template.template_id,
    )


class TemplateRegistry:
    """Immutable map of the seven templates, specialized to one category."""

    def __init__(self, category: StageCategory, templates: dict[str, PromptTemplate]):
        missing = set(TEMPLATE_IDS) - set(templates)
        if missing:
            raise TemplateError(f"registry missing template(s) {sorted(missing)}")
        self.category = category
        self._templates = dict(templates)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(f"unknown template id {template_id!r}")

    def hashes(self) -> dict[str, str]:
        return {tid: self._templates[tid].body_hash() for tid in TEMPLATE_IDS}


def _esc(text: str) -> str:
    """Escape literal braces so format() leaves them alone."""
    return text.replace("{", "{{").replace("}", "}}")


def _schema_for(template_id: str, category: StageCategory) -> OutputSchema:
    if template_id in ("ltm_elicit", "ltm_update"):
        return OutputSchema.staging_with_rules(category)
    if template_id == "rag_elicit":
        return OutputSchema.rules_only()
    return OutputSchema.staging(category)


def _default_bodies(category: StageCategory) -> dict[str, str]:
    cat = category.value
    names = category.label_names()
    labels = ", ".join(names)
    stage_json = _esc(
        f'{{"reasoning": "<step-by-step explanation>", "stage": "<one of {labels}>"}}'
    )
    stage_rules_json = _esc(
        f'{{"reasoning": "<step-by-step explanation>", "stage": "<one of {labels}>", '
        f'"rules": ["<rule 1>", "<rule 2>", "..."]}}'
    )
    rules_json = _esc('{"rules": ["<rule 1>", "<rule 2>", "..."]}')

    intro = (
        "You are assisting with pathologic staging of breast cancer from "
        "free-text pathology reports."
    )
    stage_task = (
        f"Determine the pathologic {cat} stage of the report. The stage must "
        f"be exactly one of: {labels}."
    )

    return {
        "zscot_inference": (
            f"{intro}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Think through the relevant findings step by step, then answer "
            "with a single JSON object of the form\n"
            f"{stage_json}"
        ),
        "ltm_elicit": (
            f"{intro}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Work step by step:\n"
            f"1. Identify every finding that bears on the {cat} stage.\n"
            "2. Decide the stage.\n"
            "3. Distill what you used into a numbered list of short, general "
            f"rules for determining the {cat} stage of breast cancer. The "
            "rules must stand on their own so they can be reused on other "
            "reports.\n\n"
            "Answer with a single JSON object of the form\n"
            f"{stage_rules_json}"
        ),
        "ltm_update": (
            f"{intro}\n\n"
            f"You maintain a running list of rules for determining the {cat} "
            "stage. Current rules:\n{memory}\n\n"
            "New report:\n{report}\n\n"
            f"{stage_task}\n"
            "Then propose an updated list of rules: keep what holds, and add, "
            "modify, or delete entries only where this report shows the need. "
            "Keep changes incremental; return the complete updated list.\n\n"
            "Answer with a single JSON object of the form\n"
            f"{stage_rules_json}"
        ),
        "ltm_inference": (
            f"{intro}\n\n"
            f"Apply the following rules for determining the {cat} stage:\n"
            "{memory}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Explain step by step which rules apply and how, then answer "
            "with a single JSON object of the form\n"
            f"{stage_json}"
        ),
        "rag_elicit": (
            f"{intro}\n\n"
            "Below are excerpts from a clinical staging guideline:\n"
            "{chunks}\n\n"
            "Synthesize these excerpts into a numbered list of short, "
            f"self-contained rules for determining the {cat} stage "
            f"({labels}) of breast cancer. Cover every criterion the "
            "excerpts support; do not invent criteria they do not state.\n\n"
            "Answer with a single JSON object of the form\n"
            f"{rules_json}"
        ),
        "rag_inference": (
            f"{intro}\n\n"
            f"Apply the following rules for determining the {cat} stage:\n"
            "{rules}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Explain step by step which rules apply and how, then answer "
            "with a single JSON object of the form\n"
            f"{stage_json}"
        ),
        "rawrag_inference": (
            f"{intro}\n\n"
            "Context from a clinical staging guideline:\n"
            "{chunks}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Use the context above where it applies. Think step by step, "
            "then answer with a single JSON object of the form\n"
            f"{stage_json}"
        ),
    }


def default_templates(
    category: StageCategory, *, temperature: float = 0.0, max_tokens: int = 1024
) -> TemplateRegistry:
    """The seven shipped templates specialized to `category`'s label set."""
    bodies = _default_bodies(category)
    templates = {
        tid: PromptTemplate(
            template_id=tid,
            body=bodies[tid],
            required_placeholders=_REQUIRED[tid],
            schema=_schema_for(tid, category),
            temperature=temperature,
            max_tokens=max_tokens,
        )
        for tid in TEMPLATE_IDS
    }
    return TemplateRegistry(category, templates)


def load_templates(
    directory: str | Path,
    category: StageCategory,
    *,
    temperature: float = 0.0,
    max_tokens: int = 1024,
) -> TemplateRegistry:
    """Load template overrides: one ``<template_id>.txt`` per template plus a
    ``manifest.json`` mapping template ids to their required placeholders.

    Templates absent from the directory fall back to the shipped defaults.
    Validation happens at load time, not first render.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise TemplateError(f"override directory {directory} lacks manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TemplateError(f"malformed manifest.json: {exc}")
    if not isinstance(manifest, dict):
        raise TemplateError("manifest.json must map template ids to placeholder lists")
    defaults = default_templates(category, temperature=temperature, max_tokens=max_tokens)
    templates = {tid: defaults.get(tid) for tid in TEMPLATE_IDS}
    for tid, placeholders in manifest.items():
        if tid not in TEMPLATE_IDS:
            raise TemplateError(f"manifest names unknown template {tid!r}")
        body_path = directory / f"{tid}.txt"
        if not body_path.exists():
            raise TemplateError(f"manifest lists {tid} but {body_path.name} is missing")
        declared = frozenset(str(p) for p in placeholders)
        if declared != _REQUIRED[tid]:
            raise TemplateError(
                f"{tid}: manifest placeholders {sorted(declared)} must be "
                f"{sorted(_REQUIRED[tid])}"
            )
        templates[tid] = PromptTemplate(
            template_id=tid,
            body=read_utf8(body_path, TemplateError),
            required_placeholders=_REQUIRED[tid],
            schema=_schema_for(tid, category),
            temperature=temperature,
            max_tokens=max_tokens,
        )
    return TemplateRegistry(category, templates)
