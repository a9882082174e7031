"""Tests of the benchmark itself, at tiny shapes.

Run from the root of the repository: ``python -m pytest vtbench``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import vtcomp  # noqa: E402
from vtcomp import CompressedSelection  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "clip-stream": {"shape": (4, 12, 8), "clips": 2},
    "cli-wide": {"shape": (4, 12, 16)},
    "ablate-sweep": {"shape": (8, 8, 8)},
}
# Per-layer functions each workload calls, so each must leave a span.
CALLED = {
    "clip-stream": ["accum.token_reductions", "accum.transpose_tokens",
                    "accum.frame_token_sums", "accum.clamped_cosines",
                    "budget.pools_from_frame_sums", "budget.frame_uniqueness",
                    "budget.softmax_weights", "budget.allocate", "compress.compress",
                    "compress.combine_scores", "compress.topk_select"],
    "cli-wide": ["formats.read_vtok", "formats.write_vtok", "formats.export_indices",
                 "model.validate", "model.from_array", "model.padded", "policies.run",
                 "cli.import", "cli.main", "compress.compress", "accum.token_reductions"],
    "ablate-sweep": ["budget.allocate_uniform", "formats.read_vtok", "cli.main",
                     "compress.compress", "accum.token_reductions"],
}


def make(name, tmp_path):
    return workloads.WORKLOADS[name](tmp_path, **TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_is_emitted(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    record = run.run(make(name, tmp_path), seed=5, seconds=0.2, trace=bool(trace))
    assert record["failed"] == 0, record["reference_errors"]

    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert run.units(bool(trace)) == declared
    assert set(record["metrics"]) == set(declared)
    if trace:
        for fn in CALLED[name]:
            assert record["metrics"][f"{fn}.ms"] > 0, fn
    else:
        assert all(v > 0 for v in record["metrics"].values())


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    tree = [
        S("root", 0, 100, None, 1, 0),
        S("a", 10, 40, 0, 1, 0),    # child on the caller's thread
        S("b", 30, 60, 0, 2, 0),    # worker-thread child overlapping a
        S("c", 15, 25, 1, 1, 0),    # grandchild, covered by a only
        S("d", 90, 120, 0, 2, 0),   # child running past the root's end
    ]
    # root: children cover [10, 60] and [90, 100] -> 60 of 100
    assert spans.self_times(tree) == [40, 20, 30, 10, 30]


def _flip_clip(workload, result):
    blocks = [np.array(b) for b in result.selection.compressed]
    blocks[0].view(np.uint8)[0] ^= 1
    selection = CompressedSelection(result.selection.kept_indices, tuple(blocks))
    return result._replace(selection=selection)


def _flip_file(path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def _flip_cli(workload, code):
    _flip_file(workload.out)
    return code


def _flip_matrix(workload, output):
    _flip_file(workload.matrix)
    text = workload.matrix.read_text()
    rows = len(text.splitlines()) - 1
    return output[0], f"{rows} configurations written to {workload.matrix}\n{text}"


@pytest.mark.parametrize("name, flip", [
    ("clip-stream", _flip_clip), ("cli-wide", _flip_cli), ("ablate-sweep", _flip_matrix)])
def test_one_flipped_output_byte_is_a_failure(name, flip, tmp_path, monkeypatch):
    workload = make(name, tmp_path)
    workload.setup(5)
    workload.load()
    assert workload.reference() == []
    op = workload.op
    monkeypatch.setattr(workload, "op", lambda i: flip(workload, op(i)))
    times, failed = measure.timed_loop(workload, 0.0)
    assert failed == len(times["untraced"]) == workload.inputs


def test_traced_rounds_alternate_with_untraced_ones(tmp_path):
    workload = make("clip-stream", tmp_path)
    workload.setup(5)
    workload.load()
    workload.reference()
    tracer = spans.Tracer()
    times, failed = measure.timed_loop(workload, 0.0, tracer)
    assert failed == 0
    assert len(times["untraced"]) == len(times["traced"]) == workload.inputs
    # only the second round over the inputs ran with the wrappers on
    assert {s.op for s in tracer.spans} == {2, 3}
    assert not hasattr(vtcomp.compress, "__wrapped__")  # and off again after it


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "vtbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "vtbench/run.py", "--workload", "clip-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
