"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR TRACE

Imports stagepipe from the checkout's ``src``, writes the workload inputs,
plugs the synthetic model in where the CLI builds its ``--script`` backend,
runs ``stagepipe.cli.main`` once in-process (traced when TRACE is 1) and
prints one JSON line describing the repetition. A fresh process per
repetition makes import time part of set-up and keeps the peak RSS figure
per repetition. A fixed reference loop timed just before and just after the
invocation records the machine's CPU speed at that moment. Exits non-zero,
without a result, when set-up fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def reference_s() -> float:
    """Time of a fixed mix of interpreter loops and small numpy operations,
    the kind of work stagepipe does: the machine's current CPU speed."""
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(2_500_000):
        x += i * i % 7
    a = np.arange(2048, dtype=np.int64)
    b = a[::-1].copy()
    for _ in range(10_000):
        a = np.minimum(np.minimum(a[1:] + 1, b[:-1] + 1), (a[:-1] != b[1:]).astype(np.int64))
        a = np.concatenate((a, a[-1:]))
    return time.perf_counter() - start


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _outputs(workload, out: Path, model) -> dict:
    """Record counts and gate outcomes read from the output tree."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if workload.command == "sweep":
        rows = (out / "sweep_metrics.csv").read_text(encoding="utf-8").splitlines()
        c = model.counters
        records = c.inference_requests
        unparseable = c.invalid_replies - c.corrective_requests
        metric_rows = len(rows) - 1
    else:
        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        preds = [json.loads(line)["predicted"] for line in lines]
        records = len(preds)
        unparseable = preds.count("unparseable")
        metric_rows = None
    gate = [0, 0]  # rejected, accepted gated steps (the first step is never gated)
    for trace_csv in out.glob("trace_split*.csv"):
        for row in trace_csv.read_text(encoding="utf-8").splitlines()[2:]:
            gate[row.endswith(",true")] += 1
    return {
        "status": manifest.get("status"),
        "records": records,
        "unparseable": unparseable,
        "metric_rows": metric_rows,
        "gate_rejects": gate[0],
        "gate_accepts": gate[1],
    }


def main(argv: list[str]) -> int:
    name, seed, workdir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stagepipe
    from stagepipe import cli, llm

    if Path(stagepipe.__file__).resolve().parent != SRC / "stagepipe":
        raise RuntimeError(f"imported stagepipe from {stagepipe.__file__}, not {SRC}")
    import spans as tracing
    from synthetic_model import SyntheticModel
    from workloads import OUT, SPEC, WORKLOADS, write_inputs

    workload = WORKLOADS[name]
    write_inputs(workload, seed, workdir)
    os.chdir(workdir)
    shutil.rmtree(OUT, ignore_errors=True)
    model = SyntheticModel.from_spec_file(SPEC)
    if tracing.replace_everywhere(llm.scripted_backend, lambda path: model) == 0:
        raise RuntimeError("no stagepipe module binds llm.scripted_backend")
    run = cli.main
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer, model)
        run = tracer.wrap("cli.main", cli.main)
    setup_s = time.perf_counter() - started

    ref_before = reference_s()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        code = run(workload.argv())
    except Exception:
        traceback.print_exc()
        code = -1
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    ref_s = (ref_before + reference_s()) / 2

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "model": vars(model.counters),
        "digest": None,
    }
    out = Path(OUT)
    if code == 0:
        result["digest"] = _digest(out)
        result.update(_outputs(workload, out, model))
    if tracer is not None:
        result["layers"], result["span_counts"] = tracing.summarize(tracer.spans)
        with open("spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(vars(span)) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
