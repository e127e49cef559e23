"""Prompt templates for the four workflows, rendered from named placeholders.

Seven templates exist per category: rule elicitation, rule update, and
memory-guided inference for the iterative workflow; one-shot elicitation and
rule-guided inference for the retrieval workflow; plus plain step-by-step
inference and raw-context inference for the two baselines. Placeholders use
``{name}`` syntax with literal braces doubled. The wording is fixed by the
program (`_default_bodies`); run manifests embed each template's body hash
so results stay attributable to exact prompt text.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .corpus import StageCategory
from .llm import ChatRequest, OutputSchema

# each template's contract: the placeholders its body holds, exactly, and
# whether its reply holds a stage and whether it holds a rule list
_CONTRACTS: dict[str, tuple[frozenset[str], bool, bool]] = {
    "ltm_elicit": (frozenset({"report"}), True, True),
    "ltm_update": (frozenset({"report", "memory"}), True, True),
    "ltm_inference": (frozenset({"report", "memory"}), True, False),
    "rag_elicit": (frozenset({"chunks"}), False, True),
    "rag_inference": (frozenset({"report", "rules"}), True, False),
    "zscot_inference": (frozenset({"report"}), True, False),
    "rawrag_inference": (frozenset({"report", "chunks"}), True, False),
}


def _schema(template_id: str, category: StageCategory) -> OutputSchema:
    _, stage, rules = _CONTRACTS[template_id]
    return OutputSchema(category if stage else None, rules)


@dataclass(frozen=True)
class PromptTemplate:
    """A template body for one category; its placeholders and reply schema
    come from the template id's contract."""

    template_id: str
    body: str
    category: StageCategory

    @property
    def placeholders(self) -> frozenset[str]:
        return _CONTRACTS[self.template_id][0]

    @property
    def schema(self) -> OutputSchema:
        return _schema(self.template_id, self.category)

    def body_hash(self) -> str:
        return hashlib.sha256(self.body.encode("utf-8")).hexdigest()


def render(template: PromptTemplate, bindings: dict[str, str]) -> ChatRequest:
    """Substitute `bindings` verbatim and produce a schema-bound request; a
    test, not this call, checks each shipped body against its contract."""
    return ChatRequest(
        user=template.body.format(**bindings),
        schema=template.schema,
        template_id=template.template_id,
    )


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


@functools.cache
def default_templates(category: StageCategory) -> Mapping[str, PromptTemplate]:
    """The seven templates specialized to `category`'s label set, keyed by
    template id; one read-only mapping per category, shared by every caller."""
    return MappingProxyType({
        tid: PromptTemplate(tid, body, category)
        for tid, body in _default_bodies(category).items()
    })
