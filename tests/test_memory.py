from __future__ import annotations

import csv
import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagepipe import memory
from stagepipe.corpus import StageCategory
from stagepipe.memory import (
    RuleMemory,
    RuleMemoryError,
    UpdateTrace,
    edit_distance,
    gated_update,
    persist,
    render_numbered,
    serialize,
    similarity,
    write_traces,
)


def read_traces(path) -> list[UpdateTrace]:
    """Oracle: parse a `write_traces` CSV back into traces."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            UpdateTrace(
                step=int(row["step"]),
                proposed_len=int(row["proposed_len"]),
                current_len=int(row["current_len"]),
                similarity=float(row["similarity"]),
                accepted=row["accepted"] == "true",
            )
            for row in csv.DictReader(fh)
        ]


def naive_levenshtein(a: str, b: str) -> int:
    """Independent oracle: the plain recursive definition, memoized."""

    @functools.cache
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def two_row_levenshtein(a: str, b: str) -> int:
    """Independent oracle for long strings: the untrimmed two-row DP."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def mutate(rng: random.Random, text: str, rate: float, alphabet: str) -> str:
    """Apply about `rate` random substitutions, insertions and deletions."""
    out = []
    for ch in text:
        roll = rng.random()
        if roll < rate / 3:
            out.append(rng.choice(alphabet))  # substitution
        elif roll < 2 * rate / 3:
            out += [ch, rng.choice(alphabet)]  # insertion
        elif roll >= rate:
            out.append(ch)  # kept; otherwise deleted
    return "".join(out)


short_text = st.text(alphabet="abcxyz é世", max_size=12)
# masks are keyed by code point, so include a character outside the BMP
long_text = st.text(alphabet="abcdef é世\n𝄞", min_size=30, max_size=150)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_insertion_only(self):
        assert edit_distance("", "abc") == 3

    def test_kitten_sitting(self):
        # frozen from the recursive oracle
        assert naive_levenshtein("kitten", "sitting") == 3
        assert edit_distance("kitten", "sitting") == 3

    @given(a=short_text, b=short_text)
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_oracle(self, a, b):
        assert edit_distance(a, b) == naive_levenshtein(a, b)

    @given(a=short_text, b=short_text)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(a=short_text, b=short_text, c=short_text)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(a=short_text, b=short_text)
    @settings(max_examples=100, deadline=None)
    def test_identity_of_indiscernibles(self, a, b):
        assert (edit_distance(a, b) == 0) == (a == b)

    @given(a=long_text, b=long_text)
    @settings(max_examples=40, deadline=None)
    def test_matches_recursive_oracle_on_long_text(self, a, b):
        assert edit_distance(a, b) == naive_levenshtein(a, b)

    def test_matches_two_row_dp_on_kilobyte_text(self):
        rng = random.Random(2)
        alphabet = "abcdefgh ,.\né世𝄞"

        def text(n: int) -> str:
            return "".join(rng.choice(alphabet) for _ in range(n))

        base = text(700)
        longer = text(1000)
        prefix, suffix = text(250), text(250)
        pairs = [
            (base, mutate(rng, base, 0.2, alphabet)),
            # 1000 against 700 characters
            (longer, mutate(rng, longer, 0.2, alphabet)[:700]),
            # only a middle section differs once the shared ends are trimmed
            (prefix + text(120) + suffix, prefix + text(90) + suffix),
        ]
        # strongly unequal lengths: one loop step against a 2,000-bit vector,
        # then 600 against 2,300 characters
        longest = text(2300)
        pairs.append(("é", "<" + text(1998) + ">"))
        pairs.append((mutate(rng, longest[700:1400], 0.2, alphabet)[:600], longest))
        # a 1,500-character rule list that grew by 800 inserted characters
        kept = text(1500)
        grown = "".join(
            [kept[:200], text(300), kept[200:900], text(100), kept[900:], text(400)]
        )
        pairs.append((kept, grown))
        for a, b in pairs:
            expected = two_row_levenshtein(a, b)
            assert edit_distance(a, b) == expected
            assert edit_distance(b, a) == expected
        assert expected == 800  # insertions alone, so the length difference

    # The bit vectors span the longer string. CPython stores ints in 30-bit
    # digits, so these lengths put the vectors' top bit on either side of a
    # digit boundary. The ends lie outside the alphabet, so no shared prefix
    # or suffix is trimmed away.
    @pytest.mark.parametrize("n", [29, 30, 31, 59, 60, 61])
    def test_matches_two_row_dp_across_int_digit_boundaries(self, n):
        rng = random.Random(n)
        alphabet = "abcd é世𝄞"

        def text(k: int) -> str:
            return "".join(rng.choice(alphabet) for _ in range(k))

        for m in (2, n - 1, n, n + 1, 2 * n):
            for _ in range(6):
                a = "<" + text(n - 2) + ">"
                b = "(" + (mutate(rng, a[1:-1], 0.3, alphabet) + text(m))[: m - 2] + ")"
                expected = two_row_levenshtein(a, b)
                assert edit_distance(a, b) == expected
                assert edit_distance(b, a) == expected

    # The loop over the shorter string masks its vectors once per 64-character
    # block, so these lengths end the loop just before, on and after a block
    # boundary, against a 2,300-character vector string. The ends lie outside
    # the alphabets, so nothing is trimmed.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_matches_two_row_dp_across_loop_block_boundaries(self, n):
        rng = random.Random(n)
        for alphabet in ("abcdefghijklmnopqrstuvwxyz ,.\n", "abcd é世𝄞"):

            def text(k: int) -> str:
                return "".join(rng.choice(alphabet) for _ in range(k))

            a = "<" + text(n - 2) + ">" if n > 1 else text(1)
            at = rng.randrange(2300 - 2 * n)
            middle = mutate(rng, a[1:-1], 0.2, alphabet)
            b = "(" + (text(at) + middle + text(2300))[:2298] + ")"
            expected = two_row_levenshtein(a, b)
            assert edit_distance(a, b) == expected
            assert edit_distance(b, a) == expected

    @pytest.mark.parametrize("n", [29, 60, 250])
    def test_pairs_that_differ_at_one_end(self, n):
        rng = random.Random(n)
        s = "".join(rng.choice("abcd é世") for _ in range(n))
        pairs = [
            ("x" + s, "y" + s),
            (s + "x", s + "y"),
            ("x" + s, s),
            (s, s + "y"),
            # both ends differ, so nothing is trimmed and the loop runs in full
            ("x" + s + "y", "z" + s + "w"),
            ("x" + s + "y", s),
        ]
        for a, b in pairs:
            expected = two_row_levenshtein(a, b)
            assert edit_distance(a, b) == expected
            assert edit_distance(b, a) == expected


class TestSimilarity:
    def test_identical_nonempty(self):
        assert similarity("abcab", "abcab") == 100.0

    def test_maximal_distance(self):
        assert similarity("aaaa", "") == 0.0

    def test_distance_one_of_five(self):
        # distance 1 over max length 5 -> exactly 80
        assert similarity("abcde", "abcdf") == 80.0

    def test_both_empty(self):
        assert similarity("", "") == 100.0

    @given(a=short_text, b=short_text)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        s = similarity(a, b)
        assert s == similarity(b, a)
        assert 0.0 <= s <= 100.0

    @given(a=short_text)
    @settings(max_examples=50, deadline=None)
    def test_self_similarity(self, a):
        assert similarity(a, a) == 100.0


class TestSerialize:
    def test_joins_with_newline(self):
        assert serialize(RuleMemory(StageCategory.T, ["a", "b"], 1)) == "a\nb"

    def test_empty(self):
        with pytest.raises(RuleMemoryError):
            RuleMemory(StageCategory.T, (), 1)

    def test_trims(self):
        assert serialize(RuleMemory(StageCategory.T, ["  x  "], 1)) == "x"

    def test_memory_serialize(self):
        mem = RuleMemory(StageCategory.T, ("r one", "r two"), version=1)
        assert serialize(mem) == "r one\nr two"

    def test_render_numbered(self):
        mem = RuleMemory(StageCategory.T, ("first", "second"), version=1)
        assert render_numbered(mem) == "1. first\n2. second"


class TestRuleMemory:
    def test_rejects_empty_rule(self):
        with pytest.raises(RuleMemoryError):
            RuleMemory(StageCategory.T, ("ok", "   "), version=0)

    def test_trims_on_construction(self):
        mem = RuleMemory(StageCategory.N, ("  a rule  ",), version=0)
        assert mem.rules == ("a rule",)


_pad = st.sampled_from(["", " ", "\t", "\n "])


class TestGatedUpdate:
    def test_first_step_unconditional(self):
        mem, trace = gated_update(None, ["r1"], 80.0, 1, category=StageCategory.T)
        assert mem.version == 1
        assert mem.rules == ("r1",)
        assert trace.accepted
        assert trace.step == 1
        assert trace.similarity == 0.0  # vs empty serialization

    def test_verbatim_accepted_at_100(self):
        base = RuleMemory(StageCategory.T, ("alpha", "beta"), version=1)
        mem, trace = gated_update(base, ["alpha", "beta"], 80.0, 2)
        assert trace.accepted
        assert trace.similarity == 100.0
        assert mem.version == 2

    def test_below_threshold_rejected(self):
        base = RuleMemory(StageCategory.T, ("aaaaa", "bbbbb"), version=1)
        # wholly different candidate: similarity far below 80
        mem, trace = gated_update(base, ["zzzzz", "qqqqq"], 80.0, 2)
        assert not trace.accepted
        assert mem is base
        assert mem.version == 1

    def test_exact_boundary_accepted(self):
        # serializations "abcde" vs "abcdf": distance 1, length 5 -> exactly 80
        base = RuleMemory(StageCategory.T, ("abcde",), version=1)
        mem, trace = gated_update(base, ["abcdf"], 80.0, 2)
        assert trace.similarity == 80.0
        assert trace.accepted
        assert mem.version == 2

    def test_just_below_boundary_rejected(self):
        # distance 20001 over max length 100000 -> similarity just under 80
        base = RuleMemory(StageCategory.T, ("x" * 100000,), version=1)
        mem, trace = gated_update(base, ["x" * 79999], 80.0, 2)
        assert trace.similarity < 80.0
        assert not trace.accepted

    def test_threshold_zero_accepts_everything(self):
        mem, _ = gated_update(None, ["start"], 0.0, 1, category=StageCategory.N)
        for step in range(2, 6):
            mem, trace = gated_update(mem, [f"completely new rule {step}"], 0.0, step)
            assert trace.accepted
        assert mem.version == 5

    def test_threshold_100_verbatim_only(self):
        base = RuleMemory(StageCategory.T, ("same",), version=1)
        _, t1 = gated_update(base, ["same"], 100.0, 2)
        _, t2 = gated_update(base, ["samx"], 100.0, 2)
        assert t1.accepted and not t2.accepted

    def test_trace_lengths(self):
        base = RuleMemory(StageCategory.T, ("aaaaa",), version=1)
        _, trace = gated_update(base, ["aaaaa", "bbbbb"], 0.0, 2)
        assert trace.proposed_len == len("aaaaa\nbbbbb")
        assert trace.current_len == len("aaaaa\nbbbbb")  # accepted at threshold 0

    def test_rejection_keeps_current_len(self):
        base = RuleMemory(StageCategory.T, ("aaaaa",), version=1)
        _, trace = gated_update(base, ["qqqqqqqqqq"], 99.0, 2)
        assert not trace.accepted
        assert trace.current_len == 5

    def test_one_distance_call_per_step(self, monkeypatch):
        # the benchmark derives its memory.edit_distance count as one per step
        calls = []
        real = memory.edit_distance

        def counting(a: str, b: str) -> int:
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(memory, "edit_distance", counting)
        # the first step, an accepted edit, a rejected one and a verbatim repeat
        candidates = [["a1", "b2"], ["a1", "b3"], ["zz", "yy"], ["a1", "b3"]]
        mem, traces = None, []
        for step, cand in enumerate(candidates, 1):
            mem, trace = gated_update(mem, cand, 60.0, step, category=StageCategory.T)
            traces.append(trace)
            assert len(calls) == step
        assert [(t.accepted, t.similarity) for t in traces] == [
            (True, 0.0), (True, 80.0), (False, 20.0), (True, 100.0)
        ]

    @pytest.mark.parametrize(
        "base", [None, RuleMemory(StageCategory.T, ("aaaaa", "bb"), version=3)],
        ids=["empty-memory", "memory"],
    )
    def test_no_candidate_is_rejected_without_a_distance(self, monkeypatch, base):
        # a step whose reply stayed unparseable: the memory stays as it is,
        # at threshold 0 too, and the row proposes nothing
        monkeypatch.setattr(memory, "edit_distance", None)  # any call fails
        mem, trace = gated_update(base, None, 0.0, 4, category=StageCategory.T)
        assert mem is base
        current_len = 0 if base is None else len("aaaaa\nbb")
        assert trace == UpdateTrace(4, 0, current_len, 0.0, False)

    @pytest.mark.parametrize("base", [None, RuleMemory(StageCategory.T, ("aaaaa",), version=1)],
                             ids=["empty-memory", "memory"])
    @pytest.mark.parametrize("candidate", [[], ["ok", "  "]], ids=["empty", "blank-rule"])
    def test_blank_or_empty_candidate_fails_before_the_gate(self, monkeypatch, base, candidate):
        monkeypatch.setattr(memory, "edit_distance", None)  # any call fails
        with pytest.raises(RuleMemoryError, match="at least one"):
            gated_update(base, candidate, 0.0, 2, category=StageCategory.T)

    @given(
        padded=st.lists(st.tuples(_pad, st.text(alphabet="ab ", max_size=5).filter(str.strip),
                                  _pad), min_size=1, max_size=4),
        current=st.sampled_from([None, ("ab", "ba b"), ("a",)]),
        threshold=st.sampled_from([0.0, 50.0, 80.0, 100.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_gate_reads_the_next_versions_memory(self, padded, current, threshold):
        base = None if current is None else RuleMemory(StageCategory.N, current, 3)
        candidate = ["".join(parts) for parts in padded]
        version = 1 if base is None else base.version + 1
        expected = RuleMemory(StageCategory.N, candidate, version)
        expected_ser = serialize(expected)
        mem, trace = gated_update(base, candidate, threshold, 5, category=StageCategory.N)
        assert trace.proposed_len == len(expected_ser)
        assert trace.similarity == similarity(expected_ser, "" if base is None else serialize(base))
        assert mem == (expected if trace.accepted else base)

    @pytest.mark.parametrize("bad", [-1, 100.5, 1000])
    def test_invalid_threshold(self, bad):
        for candidate in (["r"], None):
            with pytest.raises(RuleMemoryError):
                gated_update(None, candidate, bad, 1, category=StageCategory.T)

    def test_absent_memory_requires_category(self):
        for candidate in (["r"], None):
            with pytest.raises(RuleMemoryError):
                gated_update(None, candidate, 80.0, 1)

    def test_replaying_accepted_steps_reconstructs_memory(self):
        candidates = [["a1"], ["a1", "b2"], ["zz", "yy"], ["a1", "b2", "c3"]]
        mem = None
        traces = []
        for step, cand in enumerate(candidates, 1):
            mem, trace = gated_update(mem, cand, 60.0, step, category=StageCategory.T)
            traces.append(trace)
        replay = None
        for step, cand in enumerate(candidates, 1):
            if traces[step - 1].accepted:
                replay, _ = gated_update(replay, cand, 0.0, step, category=StageCategory.T)
        assert replay is not None
        assert replay.rules == mem.rules


class TestPersistence:
    def test_writes_category_rules_and_version(self, tmp_path):
        mem = RuleMemory(StageCategory.N, ("look at node counts", "check laterality"), version=3)
        path = tmp_path / "mem.json"
        persist(mem, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "category": "N", "rules": ["look at node counts", "check laterality"], "version": 3,
        }


def test_trace_csv_round_trip(tmp_path):
    traces = [
        UpdateTrace(1, 11, 11, 0.0, True),
        UpdateTrace(2, 11, 11, 90.90909090909091, True),
        UpdateTrace(3, 11, 11, 9.090909090909092, False),
    ]
    path = tmp_path / "trace.csv"
    write_traces(traces, path)
    content = path.read_text()
    assert content.splitlines()[0] == "step,proposed_len,current_len,similarity,accepted"
    assert read_traces(path) == traces
    # rows end in \n, as in every CSV a command writes
    assert path.read_bytes() == (
        b"step,proposed_len,current_len,similarity,accepted\n1,11,11,0.0,true\n"
        b"2,11,11,90.9090909090909,true\n3,11,11,9.090909090909092,false\n"
    )
