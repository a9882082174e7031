"""The in-process kernel A/B of ``scripts/ab_kernels.py``, loaded from its path."""

import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_kernels.py"
# One tiny shape whose token and channel counts both leave 8x8 tails.
GRID = {(3, 10, 11): 2}

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def load():
    spec = importlib.util.spec_from_file_location("ab_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_source_on_both_sides_gives_equal_bytes(tmp_path):
    out = tmp_path / "ab.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = load().main(["--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)],
                           grid=GRID)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["isa"]["baseline"] == {"parent": "baseline", "change": "baseline"}
    for body in ("loaded", "baseline"):
        for side in ("parent", "change"):
            assert set(report["bodies"][body]["3x10x11"][side]) == {
                "compress_ms", "transpose_ms", "reduce_p1_ms", "reduce_p2_ms", "reduce_p4_ms"}


def test_a_mutated_tail_copy_exits_1(tmp_path, capsys):
    source = (ROOT / "src" / "vtcomp" / "_accum.c").read_text()
    tail = "dst[c * cols + m] = src[m * dim + c];"
    cut = source.rindex(tail)  # the token tail, past the last full 8 tokens
    mutant = tmp_path / "mutant" / "src" / "vtcomp" / "_accum.c"
    mutant.parent.mkdir(parents=True)
    mutant.write_text(source[:cut] + tail.replace(";", " ^ 1u;") + source[cut + len(tail):])
    code = load().main(["--parent", str(ROOT), "--change", str(mutant.parents[2])], grid=GRID)
    assert code == 1
    assert "change gives other bytes at 3x10x11" in capsys.readouterr().err
