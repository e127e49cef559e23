from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagepipe.corpus import StageCategory
from stagepipe.llm import SchemaKind
from stagepipe.prompts import _CONTRACTS, default_templates, render

T = StageCategory.T
N = StageCategory.N


def body_hashes(category: StageCategory) -> dict[str, str]:
    return {tid: t.body_hash() for tid, t in default_templates(category).items()}


class TestDefaultTemplates:
    def test_seven_templates(self):
        templates = default_templates(T)
        assert sorted(templates) == sorted([
            "ltm_elicit", "ltm_update", "ltm_inference", "rag_elicit",
            "rag_inference", "zscot_inference", "rawrag_inference",
        ])
        for tid, template in templates.items():
            assert (template.template_id, template.category) == (tid, T)

    @pytest.mark.parametrize("category", [T, N])
    def test_one_read_only_set_per_category(self, category):
        templates = default_templates(category)
        assert default_templates(category) is templates
        with pytest.raises(TypeError):
            templates["zscot_inference"] = templates["ltm_elicit"]
        with pytest.raises(TypeError):
            del templates["zscot_inference"]

    def test_elicit_mentions_t_labels(self):
        body = default_templates(T)["ltm_elicit"].body
        for name in ("T1", "T2", "T3", "T4"):
            assert name in body

    def test_n_inference_schema_enum(self):
        schema = default_templates(N)["ltm_inference"].schema
        assert schema.kind is SchemaKind.STAGING
        assert schema.label_names() == ["N0", "N1", "N2", "N3"]

    def test_schema_kinds_by_role(self):
        templates = default_templates(T)
        assert templates["ltm_elicit"].schema.kind is SchemaKind.STAGING_WITH_RULES
        assert templates["ltm_update"].schema.kind is SchemaKind.STAGING_WITH_RULES
        assert templates["rag_elicit"].schema.kind is SchemaKind.RULES_ONLY
        assert templates["rag_elicit"].schema.category is None
        for tid in ("ltm_inference", "rag_inference", "zscot_inference", "rawrag_inference"):
            assert templates[tid].schema.kind is SchemaKind.STAGING

    @pytest.mark.parametrize("category", [T, N])
    def test_rendered_inference_contains_every_label(self, category):
        templates = default_templates(category)
        bindings_by_id = {
            "ltm_inference": {"report": "body", "memory": "1. rule"},
            "rag_inference": {"report": "body", "rules": "1. rule"},
            "zscot_inference": {"report": "body"},
            "rawrag_inference": {"report": "body", "chunks": "chunk text"},
        }
        for tid, bindings in bindings_by_id.items():
            request = render(templates[tid], bindings)
            for name in category.label_names():
                assert name in request.user, f"{tid} lacks {name}"

    def test_hashes_stable(self):
        assert body_hashes(T) == body_hashes(T)
        assert body_hashes(T) != body_hashes(N)

    @pytest.mark.parametrize(
        "category, hashes",
        [
            (T, {
                "ltm_elicit": "9f85ab797a9cc3d35360819e92b901871a88094d423a40c8d8ba120259a64c95",
                "ltm_update": "10960ec72f529b357c7fc9edf6e4b00e02cd1a3e7332aba542d1c0ac232c2955",
                "ltm_inference": "2eba88046d35a67db4b2061c39069299e63e26814d9f5b248600f19dd75427af",
                "rag_elicit": "bad3b641da685f85ff97606c9c94858fc6a66846a2ecf837369b873672cfe179",
                "rag_inference": "e80a31a9f61bcc7f727db44096feb676a4dacfe09ecf8b731414cd319409fee6",
                "zscot_inference":
                    "c788979d5941a35ce4ba10958ba5e1ee58dbfb511d71beeedff0235b6fa71c07",
                "rawrag_inference":
                    "ebeceb3cbb4caa1bcb9415fdb875df33b28b9be6f95966c1050f8787dc0c4519",
            }),
            (N, {
                "ltm_elicit": "7637c63013175a01988c9b6407804db65f47df729479f59f8e4b4be0a72b627a",
                "ltm_update": "640f5170f8e9f7c1f19e0b651622b86f7ffbe71b2dd3a69b7bb56405ae93d777",
                "ltm_inference": "b6d4cebda9caf483d7f0b34d4730b8913a1c58d222be251d707a30cb3c8f5a7f",
                "rag_elicit": "4f9d6601c137dbd64598773baf3a7f97bcf48db3b095100939c29b361f3beabb",
                "rag_inference": "09142d22454a61684ece8f5fb4a551651b31a4d30fc12dd513690fcd4943585c",
                "zscot_inference":
                    "3766c6d63220c425523077c418f8c7ab3ee77113799f993f7c587726c29133f8",
                "rawrag_inference":
                    "67cffaf3607c074b3764e0edb431bc21083cb8011dbf8a71d8f3779bc6794324",
            }),
        ],
        ids=["T", "N"],
    )
    def test_shipped_body_hashes(self, category, hashes):
        # the shipped wording, example reply objects included, is a pinned contract
        assert body_hashes(category) == hashes


class TestRender:
    def test_update_binding(self):
        request = render(
            default_templates(T)["ltm_update"],
            {"report": "the report", "memory": "1. rule one\n2. rule two"},
        )
        assert request.schema.kind is SchemaKind.STAGING_WITH_RULES
        assert "the report" in request.user
        assert "2. rule two" in request.user
        assert request.template_id == "ltm_update"

    def test_zscot_binding(self):
        request = render(default_templates(T)["zscot_inference"], {"report": "xyz"})
        assert request.schema.kind is SchemaKind.STAGING
        assert "memory" not in request.user

    def test_braces_in_binding_values_stay_verbatim(self):
        request = render(
            default_templates(T)["zscot_inference"], {"report": "size {2.5} cm"}
        )
        assert "size {2.5} cm" in request.user

    @given(
        a=st.text(alphabet="abc xyz.", min_size=1).filter(str.strip),
        b=st.text(alphabet="abc xyz.", min_size=1).filter(str.strip),
    )
    @settings(max_examples=60, deadline=None)
    def test_injective_in_bindings(self, a, b):
        # distinct brace-free binding values render to distinct prompts
        template = default_templates(T)["zscot_inference"]
        rendered_a = render(template, {"report": a}).user
        rendered_b = render(template, {"report": b}).user
        assert (rendered_a == rendered_b) == (a == b)


@pytest.mark.parametrize("category", [T, N])
def test_each_shipped_body_holds_exactly_its_contracts_placeholders(category):
    """The contract of the prompt set, checked here rather than at run time:
    each body's fields are identifiers and are its contract's placeholders,
    and rendering them all leaves no placeholder behind."""
    templates = default_templates(category)
    assert set(templates) == set(_CONTRACTS)
    contract_names = set().union(*(names for names, _ in _CONTRACTS.values()))
    for tid, template in templates.items():
        found = {name for _, name, _, _ in string.Formatter().parse(template.body)
                 if name is not None}
        assert all(name.isidentifier() for name in found), (tid, found)
        assert found == template.placeholders == _CONTRACTS[tid][0], tid
        markers = {name: f"<{name} marker>" for name in template.placeholders}
        user = render(template, markers).user
        assert all(marker in user for marker in markers.values()), tid
        assert not any(f"{{{name}}}" in user for name in contract_names), tid
