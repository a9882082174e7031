"""vtcomp benchmark: three closed-loop workloads, checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 vtbench/run.py --workload clip-stream --seed 1 --seconds 20 --trace 0

This process builds the inputs (set-up); a fresh ``measure.py`` process
loads them and runs the checked, timed loop.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced rounds
with rounds that have span wrappers installed on vtcomp's public
functions, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (samples,
percentiles, machine, input sizes, output digests) goes to
``vtbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import RATIOS, SUMMED, layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 3
CHILD_SLACK_S = 120  # load, reference pass and the last operation, past --seconds
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

END_TO_END = {
    "op_ms.p50": "ms",
    "tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import vtcomp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vtcomp" / "__init__.py").is_file():
        raise ProgramMissing(f"no vtcomp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vtcomp
    if Path(vtcomp.__file__).resolve().parent != (SRC / "vtcomp").resolve():
        raise ProgramMissing(f"vtcomp imported from {vtcomp.__file__}, not {SRC}")
    return vtcomp


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timing_summary(samples: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    ordered = sorted(samples)
    out = {"samples": len(ordered), "p50": statistics.median(ordered), "all": samples}
    for p in (99.9, 99, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = percentile(ordered, p)
            break
    return out


def machine_record(vtcomp) -> dict:
    import numpy
    caches = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "vtcomp": vtcomp.__version__,
            "machine": platform.machine(), "caches": caches}


def llc_bytes(caches: dict) -> int | None:
    """Size of the last-level cache from the sysfs strings, such as '307200K'."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    sizes = [int(v[:-1]) * units[v[-1]] if v[-1] in units else int(v)
             for v in caches.values()]
    return max(sizes) if sizes else None


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``measure.py`` in a fresh process on the inputs set-up wrote."""
    result = workload.workdir / "measured.json"
    spec = {"workload": workload.name, "params": workload.params,
            "workdir": str(workload.workdir), "seconds": seconds, "trace": trace,
            "spans_out": str(OUT / f"{workload.name}-seed{seed}.spans.jsonl"),
            "result": str(result)}
    OUT.mkdir(exist_ok=True)
    # The child's standard output goes to our standard error, so that the
    # result line stays the last line of ours.
    subprocess.run([sys.executable, str(HERE / "measure.py"), json.dumps(spec)],
                   stdout=sys.stderr.fileno(), check=True,
                   timeout=seconds + CHILD_SLACK_S)
    return json.loads(result.read_text())


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then measure in a fresh process; return the full record."""
    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    measured = measure(workload, seed, seconds, trace)
    errors = measured["reference_errors"]
    if seed == DEFAULT_SEED and workload.shape == workload.default_shape:
        committed = json.loads(DIGESTS.read_text())[workload.name]
        if measured["expected"] != committed:
            errors.append("outputs differ from the committed digests")
    untraced, traced = measured["op_ms"]["untraced"], measured["op_ms"]["traced"]
    attempted = workload.inputs + len(untraced) + len(traced)
    failed = (1 if errors else 0) + measured["failed"]

    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "shape": list(workload.shape),
              "input_bytes": workload.input_bytes, "setup_s_samples": setup_s,
              "load_s": measured["load_s"], "reference_errors": errors,
              "expected": measured["expected"]}
    if trace:
        metrics = measured["layer_metrics"]
        metrics["trace.untraced_op_ms.p50"] = statistics.median(untraced)
        metrics["trace.traced_op_ms.p50"] = statistics.median(traced)
        metrics["trace.overhead_ms"] = (metrics["trace.traced_op_ms.p50"]
                                        - metrics["trace.untraced_op_ms.p50"])
        record["op_ms"] = {"untraced": timing_summary(untraced),
                           "traced": timing_summary(traced)}
        record["spans"] = measured["spans"]
    else:
        metrics = {
            # generation and writes here, plus reading back in the measured process
            "setup_s": statistics.median(setup_s) + measured["load_s"],
            "op_ms.p50": statistics.median(untraced),
            "tokens_per_s": len(untraced) * workload.tokens_per_op / (sum(untraced) / 1e3),
            "peak_rss_mb": measured["peak_rss_kb"] / 1024,
        }
        record["op_ms"] = timing_summary(untraced)
    record.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  metrics=metrics)
    return record


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END
    out = {name: unit for name, (unit, _) in layer_metric_units().items()}
    out.update({"trace.untraced_op_ms.p50": "ms", "trace.traced_op_ms.p50": "ms",
                "trace.overhead_ms": "ms"})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("clip-stream", "cli-wide", "ablate-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        vtcomp = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir)
        record = run(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["machine"] = machine_record(vtcomp)
    llc = llc_bytes(record["machine"]["caches"])
    record["llc_bytes"] = llc
    record["input_over_llc"] = record["input_bytes"] / llc if llc else None
    record["computed_not_measured"] = [f"{n}.{k}" for n, k in SUMMED] + list(RATIOS)
    unit_of = units(bool(args.trace))
    record["units"] = unit_of
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for error in record["reference_errors"]:
        print(f"reference check failed: {error}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in unit_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
