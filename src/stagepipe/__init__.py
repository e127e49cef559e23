"""Staging workflows for pathology reports: corpus handling, rule-memory
induction with a Levenshtein similarity gate, one-shot rule synthesis from
retrieved guideline chunks, two baselines, and the full evaluation protocol.

Each public name is imported from the module that defines it, so importing
one module loads only the modules it needs.
"""

__version__ = "0.1.0"
