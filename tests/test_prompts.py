from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagepipe.corpus import StageCategory
from stagepipe.llm import SchemaKind
from stagepipe.prompts import (
    TEMPLATE_IDS,
    PromptTemplate,
    TemplateError,
    default_templates,
    load_templates,
    render,
)

T = StageCategory.T
N = StageCategory.N


class TestDefaultTemplates:
    def test_seven_templates(self):
        registry = default_templates(T)
        assert len(TEMPLATE_IDS) == 7
        assert tuple(registry.hashes()) == TEMPLATE_IDS
        for tid in TEMPLATE_IDS:
            assert registry.get(tid).template_id == tid

    def test_elicit_mentions_t_labels(self):
        body = default_templates(T).get("ltm_elicit").body
        for name in ("T1", "T2", "T3", "T4"):
            assert name in body

    def test_n_inference_schema_enum(self):
        schema = default_templates(N).get("ltm_inference").schema
        assert schema.kind is SchemaKind.STAGING
        assert schema.label_names() == ["N0", "N1", "N2", "N3"]

    def test_schema_kinds_by_role(self):
        registry = default_templates(T)
        assert registry.get("ltm_elicit").schema.kind is SchemaKind.STAGING_WITH_RULES
        assert registry.get("ltm_update").schema.kind is SchemaKind.STAGING_WITH_RULES
        assert registry.get("rag_elicit").schema.kind is SchemaKind.RULES_ONLY
        assert registry.get("rag_elicit").schema.category is None
        for tid in ("ltm_inference", "rag_inference", "zscot_inference", "rawrag_inference"):
            assert registry.get(tid).schema.kind is SchemaKind.STAGING

    @pytest.mark.parametrize("category", [T, N])
    def test_rendered_inference_contains_every_label(self, category):
        registry = default_templates(category)
        bindings_by_id = {
            "ltm_inference": {"report": "body", "memory": "1. rule"},
            "rag_inference": {"report": "body", "rules": "1. rule"},
            "zscot_inference": {"report": "body"},
            "rawrag_inference": {"report": "body", "chunks": "chunk text"},
        }
        for tid, bindings in bindings_by_id.items():
            request = render(registry.get(tid), bindings)
            for name in category.label_names():
                assert name in request.user, f"{tid} lacks {name}"

    def test_hashes_stable(self):
        assert default_templates(T).hashes() == default_templates(T).hashes()
        assert default_templates(T).hashes() != default_templates(N).hashes()


class TestRender:
    def test_update_binding(self):
        registry = default_templates(T)
        request = render(
            registry.get("ltm_update"),
            {"report": "the report", "memory": "1. rule one\n2. rule two"},
        )
        assert request.schema.kind is SchemaKind.STAGING_WITH_RULES
        assert "the report" in request.user
        assert "2. rule two" in request.user
        assert request.template_id == "ltm_update"

    def test_zscot_binding(self):
        request = render(default_templates(T).get("zscot_inference"), {"report": "xyz"})
        assert request.schema.kind is SchemaKind.STAGING
        assert "memory" not in request.user

    def test_missing_placeholder_named(self):
        with pytest.raises(TemplateError, match="memory"):
            render(default_templates(T).get("ltm_update"), {"report": "x"})

    def test_extraneous_binding_rejected(self):
        with pytest.raises(TemplateError, match="extra"):
            render(
                default_templates(T).get("zscot_inference"),
                {"report": "x", "extra": "y"},
            )

    def test_empty_binding_rejected(self):
        with pytest.raises(TemplateError, match="report"):
            render(default_templates(T).get("zscot_inference"), {"report": "   "})

    def test_braces_in_binding_values_stay_verbatim(self):
        request = render(
            default_templates(T).get("zscot_inference"), {"report": "size {2.5} cm"}
        )
        assert "size {2.5} cm" in request.user

    def test_gen_params_threaded(self):
        registry = default_templates(T, temperature=0.5, max_tokens=99)
        request = render(registry.get("zscot_inference"), {"report": "x"})
        assert request.temperature == 0.5
        assert request.max_tokens == 99

    @given(
        a=st.text(alphabet="abc xyz.", min_size=1).filter(str.strip),
        b=st.text(alphabet="abc xyz.", min_size=1).filter(str.strip),
    )
    @settings(max_examples=60, deadline=None)
    def test_injective_in_bindings(self, a, b):
        # distinct brace-free binding values render to distinct prompts
        template = default_templates(T).get("zscot_inference")
        rendered_a = render(template, {"report": a}).user
        rendered_b = render(template, {"report": b}).user
        assert (rendered_a == rendered_b) == (a == b)


class TestTemplateValidation:
    def test_body_missing_required_placeholder(self):
        with pytest.raises(TemplateError, match="memory"):
            PromptTemplate(template_id="ltm_update", body="only {report} here", category=T)

    def test_body_with_undeclared_placeholder(self):
        with pytest.raises(TemplateError, match="undeclared"):
            PromptTemplate(
                template_id="zscot_inference", body="{report} and {surprise}", category=T
            )

    def test_unknown_template_id(self):
        with pytest.raises(TemplateError):
            PromptTemplate(template_id="mystery", body="{report}", category=T)


class TestOverrides:
    def _write_override(self, tmp_path, tid, body):
        path = tmp_path / f"{tid}.txt"
        path.write_text(body)
        return path

    def test_valid_override_loads(self, tmp_path):
        body = "Custom wording. Report: {report}\nRules so far:\n{memory}\nStages: T1 T2 T3 T4"
        self._write_override(tmp_path, "ltm_update", body)
        registry = load_templates(tmp_path, T)
        assert registry.get("ltm_update").body == body
        # untouched templates fall back to defaults
        assert registry.get("zscot_inference").body == default_templates(T).get("zscot_inference").body

    def test_override_keeps_the_reply_schema(self, tmp_path):
        self._write_override(tmp_path, "rag_elicit", "Rules from {chunks}")
        template = load_templates(tmp_path, N).get("rag_elicit")
        assert template.schema == default_templates(N).get("rag_elicit").schema

    def test_empty_directory_loads_the_shipped_templates(self, tmp_path):
        (tmp_path / "notes.md").write_text("not a template")
        assert load_templates(tmp_path, T).hashes() == default_templates(T).hashes()

    def test_override_missing_placeholder_fails_at_load(self, tmp_path):
        path = self._write_override(tmp_path, "ltm_update", "no placeholders")
        with pytest.raises(TemplateError, match="ltm_update") as info:
            load_templates(tmp_path, T)
        assert str(path) in str(info.value)

    def test_override_extra_placeholder_fails_at_load(self, tmp_path):
        path = self._write_override(tmp_path, "ltm_update", "{report} {memory} {chunks}")
        with pytest.raises(TemplateError, match="undeclared") as info:
            load_templates(tmp_path, T)
        assert str(path) in str(info.value)

    def test_file_named_for_no_template_fails_at_load(self, tmp_path):
        self._write_override(tmp_path, "zscot_inference", "{report}")
        path = self._write_override(tmp_path, "bogus", "{report}")
        with pytest.raises(TemplateError, match="bogus") as info:
            load_templates(tmp_path, T)
        assert str(path) in str(info.value)

    def test_missing_directory_fails_at_load(self, tmp_path):
        with pytest.raises(TemplateError, match="does not exist"):
            load_templates(tmp_path / "absent", T)
