"""Measured process of one benchmark run, started fresh by ``run.py``.

Loads the inputs that set-up wrote, checks a first untimed pass in full,
runs the closed timed loop and writes what it measured as JSON.  Being a
fresh process keeps set-up out of ``peak_rss_mb``: its high-water RSS is
the inputs plus vtcomp's own working set.

Usage: python measure.py SPEC_JSON
(SPEC_JSON holds workload, params, workdir, seconds, trace, spans_out, result.)
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (this script's directory is sys.path[1])
from workloads import WORKLOADS  # noqa: E402


def timed_loop(workload, seconds: float, tracer=None) -> tuple[dict, int]:
    """Run operations back to back for ``seconds``; return op ms by kind and failures.

    Without a tracer every operation is untraced.  With one, successive
    rounds over the workload's inputs alternate untraced and traced, so
    drift over the run hits both kinds alike; the wrappers go on before
    the clock starts and come off after it stops.
    """
    times = {"untraced": [], "traced": []}
    failed, i = 0, 0
    rounds = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while i < rounds * workload.inputs or time.perf_counter() < deadline:
        traced = tracer is not None and (i // workload.inputs) % 2 == 1
        if traced:
            tracer.op = i
        with workload.traced(tracer) if traced else contextlib.nullcontext():
            start = time.perf_counter_ns()
            try:
                output = workload.op(i)
                end = time.perf_counter_ns()
            except Exception:
                end = time.perf_counter_ns()
                traceback.print_exc()
                output = None
        times["traced" if traced else "untraced"].append((end - start) / 1e6)
        failed += output is None or not workload.check(i, output)
        del output  # freed here, outside the timed span
        i += 1
    return times, failed


def main(spec: dict) -> None:
    workload = WORKLOADS[spec["workload"]](Path(spec["workdir"]), **spec["params"])
    start = time.perf_counter()
    workload.load()
    load_s = time.perf_counter() - start
    try:
        errors = workload.reference()
    except Exception:
        errors = [traceback.format_exc()]
    tracer = spans.Tracer() if spec["trace"] else None
    times, failed = timed_loop(workload, spec["seconds"], tracer)
    out = {"load_s": load_s, "reference_errors": errors,
           "expected": getattr(workload, "expected", None),
           "op_ms": times, "failed": failed}
    if tracer is None:
        out["peak_rss_kb"] = workload.peak_rss_kb()
    else:
        out["layer_metrics"] = spans.layer_metrics(tracer.spans, len(times["traced"]))
        out["spans"] = len(tracer.spans)
        tracer.dump(spec["spans_out"])
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
