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
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus import StageCategory, read_utf8
from .llm import ChatRequest, OutputSchema, SchemaKind

# each template's contract: the placeholders its body holds, exactly, and
# the kind of reply it asks for
_CONTRACTS: dict[str, tuple[frozenset[str], SchemaKind]] = {
    "ltm_elicit": (frozenset({"report"}), SchemaKind.STAGING_WITH_RULES),
    "ltm_update": (frozenset({"report", "memory"}), SchemaKind.STAGING_WITH_RULES),
    "ltm_inference": (frozenset({"report", "memory"}), SchemaKind.STAGING),
    "rag_elicit": (frozenset({"chunks"}), SchemaKind.RULES_ONLY),
    "rag_inference": (frozenset({"report", "rules"}), SchemaKind.STAGING),
    "zscot_inference": (frozenset({"report"}), SchemaKind.STAGING),
    "rawrag_inference": (frozenset({"report", "chunks"}), SchemaKind.STAGING),
}
TEMPLATE_IDS = tuple(_CONTRACTS)


def _schema(template_id: str, category: StageCategory) -> OutputSchema:
    kind = _CONTRACTS[template_id][1]
    return OutputSchema(kind, None if kind is SchemaKind.RULES_ONLY else category)


class TemplateError(ValueError):
    """A template body, registry, or render request is invalid."""


def _check_body(template_id: str, body: str) -> None:
    """Raises TemplateError unless `body`'s placeholders ({{ }} are
    literals) are exactly those `template_id`'s contract names."""
    if template_id not in _CONTRACTS:
        raise TemplateError(f"unknown template id {template_id!r}")
    try:
        found = {name for _, name, _, _ in string.Formatter().parse(body) if name is not None}
    except ValueError as exc:
        raise TemplateError(f"malformed placeholder syntax: {exc}")
    for name in sorted(found):
        if not name.isidentifier():
            raise TemplateError(f"bad placeholder {{{name}}}")
    required = _CONTRACTS[template_id][0]
    if missing := required - found:
        raise TemplateError(f"{template_id}: body lacks required placeholder(s) {sorted(missing)}")
    if extra := found - required:
        raise TemplateError(f"{template_id}: body has undeclared placeholder(s) {sorted(extra)}")


@dataclass(frozen=True)
class PromptTemplate:
    """A template body for one category; its placeholders and reply schema
    come from the template id's contract."""

    template_id: str
    body: str
    category: StageCategory

    def __post_init__(self) -> None:
        _check_body(self.template_id, self.body)

    @property
    def placeholders(self) -> frozenset[str]:
        return _CONTRACTS[self.template_id][0]

    @property
    def schema(self) -> OutputSchema:
        return _schema(self.template_id, self.category)

    def body_hash(self) -> str:
        return hashlib.sha256(self.body.encode("utf-8")).hexdigest()


def render(template: PromptTemplate, bindings: dict[str, str]) -> ChatRequest:
    """Substitute placeholders verbatim and produce a schema-bound request."""
    missing = template.placeholders - set(bindings)
    if missing:
        raise TemplateError(
            f"{template.template_id}: missing binding(s) {sorted(missing)}"
        )
    extra = set(bindings) - template.placeholders
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
        template_id=template.template_id,
    )


class TemplateRegistry:
    """Immutable map of the seven templates, specialized to one category."""

    def __init__(self, category: StageCategory, templates: dict[str, PromptTemplate]):
        self.category = category
        self._templates = dict(templates)

    def get(self, template_id: str) -> PromptTemplate:
        return self._templates[template_id]

    def hashes(self) -> dict[str, str]:
        return {tid: self._templates[tid].body_hash() for tid in TEMPLATE_IDS}


def _esc(text: str) -> str:
    """Escape literal braces so format() leaves them alone."""
    return text.replace("{", "{{").replace("}", "}}")


def _default_bodies(category: StageCategory) -> dict[str, str]:
    cat = category.value
    labels = ", ".join(category.label_names())

    intro = (
        "You are assisting with pathologic staging of breast cancer from "
        "free-text pathology reports."
    )
    stage_task = (
        f"Determine the pathologic {cat} stage of the report. The stage must "
        f"be exactly one of: {labels}."
    )

    # each body ends with an example of its template's reply
    bodies = {
        "zscot_inference": (
            f"{intro}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Think through the relevant findings step by step, then answer "
            "with a single JSON object of the form\n"
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
        ),
        "ltm_inference": (
            f"{intro}\n\n"
            f"Apply the following rules for determining the {cat} stage:\n"
            "{memory}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Explain step by step which rules apply and how, then answer "
            "with a single JSON object of the form\n"
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
        ),
        "rag_inference": (
            f"{intro}\n\n"
            f"Apply the following rules for determining the {cat} stage:\n"
            "{rules}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Explain step by step which rules apply and how, then answer "
            "with a single JSON object of the form\n"
        ),
        "rawrag_inference": (
            f"{intro}\n\n"
            "Context from a clinical staging guideline:\n"
            "{chunks}\n\n"
            "Report:\n{report}\n\n"
            f"{stage_task}\n"
            "Use the context above where it applies. Think step by step, "
            "then answer with a single JSON object of the form\n"
        ),
    }
    return {tid: body + _esc(_schema(tid, category).example()) for tid, body in bodies.items()}


def _registry(category: StageCategory, bodies: dict[str, str]) -> TemplateRegistry:
    return TemplateRegistry(category, {
        tid: PromptTemplate(tid, body, category) for tid, body in bodies.items()
    })


def default_templates(category: StageCategory) -> TemplateRegistry:
    """The seven shipped templates specialized to `category`'s label set."""
    return _registry(category, _default_bodies(category))


def load_templates(directory: str | Path, category: StageCategory) -> TemplateRegistry:
    """The shipped templates, each replaced by ``<template_id>.txt`` when
    `directory` holds one. Every ``.txt`` there must be named for a template
    and hold exactly its placeholders; errors name the file."""
    directory = Path(directory)
    if not directory.is_dir():
        raise TemplateError(f"template directory {directory} does not exist")
    bodies = _default_bodies(category)
    for path in sorted(directory.glob("*.txt")):
        if path.stem not in _CONTRACTS:
            raise TemplateError(
                f"{path}: {path.stem!r} is not a template id (one of {', '.join(TEMPLATE_IDS)})"
            )
        bodies[path.stem] = read_utf8(path, TemplateError)
        try:
            _check_body(path.stem, bodies[path.stem])
        except TemplateError as exc:
            raise TemplateError(f"{path}: {exc}")
    return _registry(category, bodies)
