"""Long-term rule memory: canonical serialization, Levenshtein gate, persistence.

The memory is an ordered list of natural-language staging rules. Candidate
updates proposed during induction are accepted only when the candidate's
serialization is similar enough to the current one, measured by the exact
character-level Levenshtein distance rescaled to a 0-100 similarity score:
bit-parallel (Myers/Hyyrö), with bit vectors over the longer string, a loop
over the shorter one, and the distance read off the last DP column. The
first candidate (empty memory) is always accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import StageCategory, write_csv, write_json


class RuleMemoryError(ValueError):
    """A rule memory value or update request is invalid."""


@dataclass(frozen=True)
class RuleMemory:
    """An immutable snapshot of the rule list for one category."""

    category: StageCategory
    rules: tuple[str, ...]
    version: int = 0

    def __post_init__(self) -> None:
        cleaned = tuple(r.strip() for r in self.rules)
        if any(not r for r in cleaned):
            raise RuleMemoryError("rules must be non-empty after trimming")
        object.__setattr__(self, "rules", cleaned)


@dataclass(frozen=True)
class UpdateTrace:
    """One induction step: candidate length, accepted length, gate outcome."""

    step: int
    proposed_len: int
    current_len: int
    similarity: float
    accepted: bool


def serialize_rules(rules: Iterable[str]) -> str:
    """Trim each rule and join with single newlines (no trailing newline)."""
    return "\n".join(r.strip() for r in rules)


def serialize(memory: RuleMemory) -> str:
    """Canonical serialization used for edit-distance comparison."""
    return serialize_rules(memory.rules)


def render_numbered(memory: RuleMemory | Sequence[str]) -> str:
    """Rules as a numbered list, the form bound into prompt templates."""
    rules = memory.rules if isinstance(memory, RuleMemory) else memory
    return "\n".join(f"{i}. {r.strip()}" for i, r in enumerate(rules, 1))


# Characters of the shorter string per run of the column loop between maskings.
_BLOCK = 64


def edit_distance(a: str, b: str) -> int:
    """Character-level Levenshtein distance over Unicode scalar values.

    Unit-cost insertions, deletions, and substitutions; no case folding.
    Exact, computed with the bit-parallel algorithm of Myers (J. ACM 46(3),
    1999) in Hyyrö's global-distance form (2001). After trimming the shared
    prefix and suffix, one DP column is held as vertical +1/-1 delta bit
    vectors over the longer string (one Python int each) and advanced by 15
    big-int operations per character of the shorter string, with no mask
    inside the loop: the vectors are masked back to the longer length once
    per block of `_BLOCK` characters. The distance is the shorter length plus
    the last column's +1s minus its -1s.
    """
    if a == b:
        return 0
    # shared prefixes/suffixes never change the optimal alignment cost
    lo, hi_a, hi_b = 0, len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    match = dict.fromkeys(a, 0)  # bit i set where b[i] is the character
    bit = 1
    for c in b:
        if c in match:
            match[c] |= bit
        bit <<= 1
    # Complements are taken by xor with `mask`, not `~`, so every int stays
    # non-negative: CPython's bitwise ops on negative big ints are markedly
    # slower. In Hyyrö's terms hn = vp & d0 and hp = vn | ~(vp | d0). Every bit
    # of vn is in x and so in d0, which makes that `|` an xor: hp shifted up,
    # with the +1 that the top DP row (0..len(a)) feeds into bit 0, is
    # (((vp | d0) ^ vn) << 1) ^ top. Stray bits above len(b) never reach the
    # bits below it, since carries and shifts only move upward, so the loop
    # lets them grow and cuts them off once per block (the ints stay within
    # about 2 * _BLOCK bits of len(b)), and so before the final popcounts.
    mask = bit - 1
    top = (mask << 1) | 1
    vp, vn = mask, 0
    for start in range(0, len(a), _BLOCK):
        for pm in map(match.__getitem__, a[start:start + _BLOCK]):
            x = pm | vn
            d0 = (((x & vp) + vp) ^ vp) | x
            x = (((vp | d0) ^ vn) << 1) ^ top
            vp = ((vp & d0) << 1) | ((x | d0) ^ mask)
            vn = x & d0
        vp &= mask
        vn &= mask
    return len(a) + vp.bit_count() - vn.bit_count()


def similarity(a: str, b: str) -> float:
    """Similarity score in [0, 100]: ``100 * (1 - distance / max_len)``.

    Two empty strings score 100. Computed as ``100 * (max_len - d) / max_len``
    so exact thresholds (e.g. distance 1 at length 5 -> exactly 80.0) land on
    exact floats.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 100.0
    return 100 * (longest - edit_distance(a, b)) / longest


def gated_update(
    memory: RuleMemory | None,
    candidate: Sequence[str],
    threshold: float,
    step: int,
    *,
    category: StageCategory | None = None,
) -> tuple[RuleMemory, UpdateTrace]:
    """Apply the similarity-gated update rule for one induction step.

    With no existing memory the candidate is accepted unconditionally.
    Otherwise it is accepted iff ``similarity(candidate, memory) >=
    threshold``; a rejection leaves the memory (and its version) unchanged.
    An UpdateTrace is produced either way.
    """
    if not 0 <= threshold <= 100:
        raise RuleMemoryError(f"threshold must be in [0, 100], got {threshold}")
    if memory is None and category is None:
        raise RuleMemoryError("category is required when memory is absent")
    cat = memory.category if memory is not None else category
    assert cat is not None
    candidate_ser = serialize_rules(candidate)
    current_ser = serialize(memory) if memory is not None else ""
    sim = similarity(candidate_ser, current_ser)
    accepted = memory is None or sim >= threshold
    if accepted:
        new = RuleMemory(
            category=cat,
            rules=tuple(candidate),
            version=(memory.version if memory is not None else 0) + 1,
        )
    else:
        new = memory
    trace = UpdateTrace(
        step=step,
        proposed_len=len(candidate_ser),
        current_len=len(candidate_ser if accepted else current_ser),
        similarity=sim,
        accepted=accepted,
    )
    return new, trace


def persist(memory: RuleMemory, path: str | Path) -> None:
    """Write the memory as JSON: its category, rules and version."""
    write_json(path, {"category": memory.category.value, "rules": list(memory.rules),
                      "version": memory.version})


def write_traces(traces: Sequence[UpdateTrace], path: str | Path) -> None:
    """Write traces as CSV with header step,proposed_len,current_len,similarity,accepted."""
    write_csv(path, ["step", "proposed_len", "current_len", "similarity", "accepted"],
              ([t.step, t.proposed_len, t.current_len, t.similarity,
                "true" if t.accepted else "false"] for t in traces))
