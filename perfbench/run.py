"""stagepipe benchmark: seeded workloads driven through ``stagepipe.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ltm-cpu --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh worker process (``worker.py``) that imports
stagepipe from ``src``, generates the workload's inputs from the seed and
runs the CLI once against the content-keyed synthetic model
(``synthetic_model.py``). Repetitions follow one another (a closed loop with
one client) until ``--seconds`` have been measured. With ``--trace 0`` the
last stdout line reports the end-to-end metrics, each the median over the
repetitions, with wall time normalised for the machine's CPU speed (see
`wall_norm_s`); with ``--trace 1`` untraced and traced repetitions alternate
and the line reports the per-layer metrics of the traced ones (``spans.py``).

Every repetition's output is checked: exit code 0, a manifest with status
ok, exactly the expected number of prediction records, none unparseable, and
one output-tree digest shared by all repetitions, traced or not. Traced call
counts must equal counts derived from the workload parameters. The process
exits 0 when every check passes, 1 when one fails, and 2 without a result
when a repetition cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
REP_TIMEOUT_S = 120
MIN_REPS = 3  # per kind of repetition, so every reported figure is a median
# The reference loop's time (worker.reference_s) on the machine the baseline
# was recorded on, when that machine ran at its usual speed.
REFERENCE_NOMINAL_S = 0.30

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402


class SetupError(RuntimeError):
    """A repetition could not be set up; the benchmark reports no result."""


def run_rep(workload: Workload, seed: int, workdir: Path, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload.name, str(seed),
         str(workdir), "1" if traced else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SetupError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    if rep["exit_code"] != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return rep


def run_reps(
    workload: Workload, seed: int, workdir: Path, seconds: float, trace: bool
) -> list[dict]:
    """Repetitions until `seconds` are spent; with `trace`, untraced and
    traced alternate so both see the same machine conditions."""
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        for traced in kinds:
            reps.append(run_rep(workload, seed, workdir, traced))
        elapsed = time.perf_counter() - started
        rounds = len(reps) // len(kinds)
        if rounds >= MIN_REPS and elapsed * (rounds + 1) / rounds > seconds:
            return reps


def check(workload: Workload, reps: list[dict]) -> list[str]:
    """Every way the repetitions' outputs fall short; empty when correct."""
    problems = []
    expected = workload.expected_predictions()
    for i, rep in enumerate(reps):
        tag = f"rep {i}{' (traced)' if rep['traced'] else ''}"
        if rep["exit_code"] != 0:
            problems.append(f"{tag}: stagepipe exited {rep['exit_code']}")
            continue
        if rep["status"] != "ok":
            problems.append(f"{tag}: manifest status {rep['status']!r}")
        if rep["records"] != expected:
            problems.append(f"{tag}: {rep['records']} prediction records, expected {expected}")
        if rep["unparseable"]:
            problems.append(f"{tag}: {rep['unparseable']} unparseable records")
        if workload.command == "sweep":
            rows = len(workload.train_counts) * (workload.n_splits + 1)
            if rep["metric_rows"] != rows:
                problems.append(f"{tag}: {rep['metric_rows']} sweep metric rows, expected {rows}")
        elif workload.method == "kewltm" and not (rep["gate_accepts"] and rep["gate_rejects"]):
            problems.append(f"{tag}: the gate accepted {rep['gate_accepts']} and rejected "
                            f"{rep['gate_rejects']} updates; it must do both")
        if rep["traced"]:
            problems += [f"{tag}: {p}" for p in check_trace(workload, rep)]
    if len({rep["digest"] for rep in reps}) != 1:
        problems.append("output trees differ between repetitions of one seed")
    if len({json.dumps(rep["model"], sort_keys=True) for rep in reps}) != 1:
        problems.append("model call counts differ between repetitions of one seed")
    return problems


def check_trace(workload: Workload, rep: dict) -> list[str]:
    """Traced call counts against counts derived from the workload."""
    counts, model = rep["span_counts"], rep["model"]
    expected = dict(workload.expected_trace_counts())
    expected["llm.backend.chat"] = model["chat_calls"]
    expected["llm.backend.embed"] = model["embed_calls"]
    problems = [
        f"{name}: traced {counts.get(name, 0)} calls, expected {want}"
        for name, want in expected.items()
        if counts.get(name, 0) != want
    ]
    if rep["layers"]["llm.reasks"] != model["invalid_replies"]:
        problems.append(f"llm.reasks {rep['layers']['llm.reasks']} != "
                        f"{model['invalid_replies']} invalid replies sent")
    return problems


def wall_norm_s(rep: dict) -> float:
    """Wall time with its CPU part rescaled to the nominal machine speed.

    On a shared machine the CPU runs up to 1.7x slower for stretches of
    tens of seconds, which moves CPU-bound wall times far more than any
    bound could allow. Waiting (injected model latency) is kept as measured;
    only the process's CPU time is scaled by how much slower than nominal the
    reference work ran just before and after this repetition.
    """
    return rep["wall_s"] - rep["cpu_s"] * (1 - REFERENCE_NOMINAL_S / rep["ref_s"])


def end_to_end(workload: Workload, reps: list[dict], failed: int, attempted: int) -> dict:
    model = reps[0]["model"]
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "wall_norm_s": (statistics.median(wall_norm_s(r) for r in reps), "s"),
        "predictions_per_s": (
            statistics.median(r.get("records", 0) / wall_norm_s(r) for r in reps), "1/s"),
        "chat_calls": (model["chat_calls"], "count"),
        "backend_calls": (model["chat_calls"] + model["embed_calls"], "count"),
        "prompt_kchars": (model["prompt_chars"] / 1000, "kchar"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "ok_share": (1 - failed / attempted, "share"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_share": "ratio"}


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    layers["trace.overhead_share"] = (
        statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
    )
    layers["bench.wall_s"] = untraced_wall
    layers["bench.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    layers["bench.ref_s"] = statistics.median(r["ref_s"] for r in untraced)
    out = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # one directory per invocation, so concurrent invocations cannot collide;
    # a traced run keeps its directory for the last repetition's spans.jsonl
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    try:
        reps = run_reps(workload, args.seed, workdir, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    problems = check(workload, reps)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    expected = workload.expected_predictions()
    attempted = expected * len(reps)
    failed = sum(
        expected if r["exit_code"] != 0
        else r["unparseable"] + max(0, expected - r["records"])
        for r in reps
    )
    if args.trace:
        metrics = per_layer(reps)
    else:
        metrics = end_to_end(workload, reps, failed, attempted)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
