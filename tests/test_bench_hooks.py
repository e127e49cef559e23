"""The benchmark's tracer still finds every stagepipe function it wraps.

`perfbench/spans.py` wraps functions by rebinding the names stagepipe
modules hold, and the benchmark compares the traced call counts with counts
derived from the workload parameters. A refactor that drops or renames one
of those bindings, or changes how often a command calls it, would only show
up when the benchmark runs; this test runs one traced repetition of each
workload so it shows up in the test suite too. The `rag-latency` one also fails when test-set
inference no longer overlaps its model calls, when the calls to either
endpoint exceed the client's bound, or when query embeds no longer run beside
a full set of chat calls; the `sweep-latency` one when the inductions of more
than one sweep point no longer run concurrently or their calls in flight
exceed the client's bound. Each also checks the digest of the run's output
tree at seed 7, so a change to any output byte fails here.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the output-tree digest of each workload's run at seed 7
DIGESTS = {
    "ltm-cpu": "7d164e308d6a617133f97ef4ba63538149d96b2243b9a97ea74a9ab0f3977666",
    "rag-latency": "b53a19dc400de7e98f8eb6833b11e57ad9dbbc6e774a027b8fcb39125ace0dca",
    "sweep-latency": "8698d6668fcd5c3bccc2f7dd315736962b721fb2f15a75602989296aa991da61",
}


def _most_open(spans: list[dict], name: str) -> int:
    """The most spans called `name` open at once."""
    # an end sorts before a start at the same instant
    edges = sorted(edge for s in spans if s["name"] == name
                   for edge in ((s["start"], 1), (s["end"], -1)))
    open_now = most_open = 0
    for _, delta in edges:
        open_now += delta
        most_open = max(most_open, open_now)
    return most_open


def _bench_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_traced_repetition_matches_derived_counts(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), workload, "7", str(tmp_path), "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rep["exit_code"] == 0, proc.stderr[-2000:]
    bench = _bench_runner()
    assert bench.check_trace(bench.WORKLOADS[workload], rep) == []
    assert rep["digest"] == DIGESTS[workload]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    if workload == "rag-latency":
        # test-set inference overlaps its model calls
        assert rep["layers"]["llm.in_flight_max"] > 1
        # each endpoint keeps LlmClient's max_in_flight (4), and query embeds
        # run while the chat calls fill theirs
        assert _most_open(spans, "llm.backend.chat") <= 4
        assert _most_open(spans, "llm.backend.embed") <= 4
        assert rep["layers"]["llm.in_flight_max"] > 4
    if workload == "sweep-latency":
        assert rep["layers"]["llm.in_flight_max"] <= 4  # LlmClient's max_in_flight
        # the inductions of different sweep points overlap too, not only one point's 2 splits
        assert _most_open(spans, "pipelines.induce") > 2
