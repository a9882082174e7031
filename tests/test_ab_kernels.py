"""The in-process A/B of two whole checkouts, ``scripts/ab_kernels.py``, loaded from its path."""

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
                "compress_ms", "from_array_ms", "score_p1_ms", "score_p2_ms", "score_p4_ms"}
        assert set(report["bodies"][body]["3x10x11"]["compress_over_from_array"]) == {
            "parent", "change"}
        ratios = report["bodies"][body]["3x10x11"]["pair_ratio"]
        assert set(ratios) == set(report["bodies"][body]["3x10x11"]["parent"])
        assert all(set(r) == {"median", "q1", "q3"} and r["q1"] <= r["median"] <= r["q3"]
                   for r in ratios.values())


def test_pair_ratio_summarizes_the_rounds_change_over_parent():
    pair_ratio = load().pair_ratio
    # Ratios 2.0, 0.5, 1.0, 1.5, 3.0: inclusive quartiles 1.0 and 2.0.
    assert pair_ratio([1.0, 4.0, 2.0, 2.0, 1.0], [2.0, 2.0, 2.0, 3.0, 3.0]) == {
        "median": 1.5, "q1": 1.0, "q3": 2.0}
    assert pair_ratio([4.0], [3.0]) == {"median": 0.75, "q1": 0.75, "q3": 0.75}


def mutant(tmp_path, file, old, new):
    """A checkout whose ``src/vtcomp`` is this one's with the last ``old``
    in ``file`` replaced by ``new``."""
    package = tmp_path / "mutant" / "src" / "vtcomp"
    shutil.copytree(ROOT / "src" / "vtcomp", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / file).read_text()
    cut = source.rindex(old)
    (package / file).write_text(source[:cut] + new + source[cut + len(old):])
    return package.parents[1]


def test_a_mutated_tail_copy_exits_1(tmp_path, capsys):
    tail = "dst[c * cols + m] = src[m * dim + c];"  # the token tail, past the last full 8 tokens
    change = mutant(tmp_path, "_accum.c", tail, tail.replace(";", " ^ 1u;"))
    code = load().main(["--parent", str(ROOT), "--change", str(change)], grid=GRID)
    assert code == 1
    assert "change gives other bytes at 3x10x11" in capsys.readouterr().err


def test_a_python_only_change_is_measured(tmp_path, capsys):
    change = mutant(tmp_path, "compress.py", "np.argsort(-grid,", "np.argsort(grid,")
    code = load().main(["--parent", str(ROOT), "--change", str(change)], grid=GRID)
    assert code == 1
    assert "change gives other bytes at 3x10x11" in capsys.readouterr().err


def test_a_loaded_body_that_does_not_build_raises_oserror(tmp_path):
    # The import falls back to the numpy bodies; load_tree then builds the
    # loaded body itself, and fails instead of timing numpy as compiled.
    change = mutant(tmp_path, "_accum.c", "}", "} not C")
    with pytest.raises(OSError, match="cc could not build"):
        load().load_tree(change, "vtcomp_broken_loaded", (), str(tmp_path / "build"))
