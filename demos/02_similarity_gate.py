"""
The Levenshtein similarity gate on rule memories
================================================

Shows how candidate rule lists are accepted or rejected during induction.
The gate compares the newline-joined serialization of the candidate against
the current memory: similarity = 100 * (1 - distance / max_len). The first
candidate is always accepted; afterwards a threshold of 80 keeps evolution
incremental, while a threshold of 0 accepts everything.
"""

from stagepipe.corpus import StageCategory
from stagepipe.evaluation import memory_curve
from stagepipe.memory import edit_distance, gated_update, similarity

print("edit_distance('kitten', 'sitting') =", edit_distance("kitten", "sitting"))
print("similarity('abcde', 'abcdf') =", similarity("abcde", "abcdf"), "(distance 1 of 5)")

# --- a stream of candidate rule lists, as a model might propose them ---------
candidates = [
    ["tumor over 5 cm is stage three"],
    ["tumor over 5 cm is stage three", "tumor under 2 cm is stage one"],
    ["chest wall invasion means stage four"],  # wholesale rewrite
    ["tumor over 5 cm is stage three", "tumor under 2 cm is stage one",
     "between 2 and 5 cm is stage two"],
]

for threshold in (80.0, 0.0):
    print(f"\n--- threshold {threshold} ---")
    memory = None
    traces = []
    for step, candidate in enumerate(candidates, 1):
        memory, trace = gated_update(
            memory, candidate, threshold, step, category=StageCategory.T
        )
        traces.append(trace)
        verdict = "accepted" if trace.accepted else "rejected"
        print(
            f"step {step}: similarity {trace.similarity:6.1f} -> {verdict}; "
            f"memory now {len(memory.rules)} rule(s), version {memory.version}"
        )
    print("final rules:")
    for i, rule in enumerate(memory.rules, 1):
        print(f"  {i}. {rule}")
    # the per-step serialized length is what the appendix-style curves plot
    print("length curve:", memory_curve([traces]))
