#!/usr/bin/env python3
"""In-process A/B of two whole checkouts, with every output byte compared.

Usage, with both commits checked out side by side:

    python3 scripts/ab_kernels.py --parent ../parent --change . --out ab.json

Each checkout's whole ``src/vtcomp`` is imported once per body as its own
package (``vtcomp_parent_loaded`` ... ``vtcomp_change_baseline``), so a
change to the Python code is measured too.  At load, each package's
``accum._lib`` is bound once to its own ``accum._build`` of its own
``_accum.c``: the build its import loads (with the AVX2 dispatch where the
host has it) for ``loaded``, one with ``-DVTCOMP_BASELINE_ONLY`` (the
bodies every other host runs) for ``baseline``.  The parent makes the inputs.

For each body and each shape of the fixed grid (``SyntheticSpec(...,
model="iid", seed=0)``), rounds alternate the sides, the parent first in
even rounds.  A round times the calls the workloads make, each once and
through that tree's own function: the plug-in call ``compress(tensor,
threads=1)`` on the parent's tensor (the ``compress`` stage), the validated
copy's call ``compress(TokenTensor.from_array(a), threads=1)`` on its array
``a`` (the ``from_array`` stage), and at each pool count P in ``POOLS`` the
scoring pass ``accum.uniqueness_grids(a, pools[:P])`` that ``compress``
makes (the ``score_p{P}`` stages), against the first P of four seeded
(T, D') pool matrices.  The sha256 of every output (the compress report,
budgets, kept indices and rows, and every (P, T, M) score grid, in
``POOLS`` order) must be the same for both sides and both bodies in every
round, and the two compress calls of a round must give the same bytes;
on a mismatch the script names it on stderr and exits 1.
Otherwise it prints one JSON object, the best and median ms per body,
side and shape, and writes it to ``--out`` when given.  Both sides run in
every round, so each round is a pair: beside the sides, ``pair_ratio``
records for every stage the median and quartiles (inclusive method) of the
rounds' change/parent ratios, which a host that changes speed between
rounds moves less than the side medians, and ``compress_over_from_array``
the same summary of each side's per-round ``compress``/``from_array`` ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BODIES = {"loaded": (), "baseline": ("-DVTCOMP_BASELINE_ONLY",)}
# The fixed shape grid, each with its rounds per body.
# 64x196x3584 takes 16: the page faults of from_array's 180 MB copy make that
# stage bimodal there.
FIXED_GRID = {(32, 196, 896): 40, (128, 64, 896): 40, (8, 576, 1024): 40,
              (64, 196, 3584): 16}
# Pool counts of the timed scoring stages: one window, the two of every
# workload (video and frame pools) and four.
POOLS = (1, 2, 4)
SCORE_STAGES = tuple(f"score_p{p}_ms" for p in POOLS)
COMPRESS_STAGES = ("compress_ms", "from_array_ms")


def load_tree(checkout: Path, name: str, defines: tuple, build_dir: str):
    """``checkout``'s ``src/vtcomp`` imported afresh as ``name``, with its
    ``accum._lib`` its own ``accum._build`` of its ``_accum.c`` with ``defines``.

    With no defines that is the library the import just bound, which is kept;
    it is built only when the import left none, so a failed build raises
    ``OSError`` instead of timing the numpy bodies."""
    for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[key]
    package = checkout / "src" / "vtcomp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[name] = tree
    spec.loader.exec_module(tree)
    if defines or tree.accum._lib is None:
        tree.accum._lib = tree.accum._build(package / "_accum.c", build_dir, defines)
    return tree


def timed_compress(tree, make) -> tuple[float, str]:
    """ms of one ``tree.compress(make(), threads=1)``, ``make`` included, and
    the sha256 of its outputs."""
    begin = time.perf_counter()
    result = tree.compress(make(), threads=1)
    ms = (time.perf_counter() - begin) * 1e3
    digest = hashlib.sha256()
    for array in (*vars(result.report).values(), result.allocation.per_frame_ratio,
                  result.allocation.per_frame_count, *result.selection.kept_indices,
                  *result.selection.compressed):
        digest.update(np.ascontiguousarray(array).tobytes())
    return ms, digest.hexdigest()


def timed_scores(accum, values: np.ndarray, pools: np.ndarray) -> tuple[dict, str]:
    """ms of ``accum.uniqueness_grids(values, pools[:P])`` at every P in
    ``POOLS``, and the sha256 of every (P, T, M) grid."""
    ms, digest = {}, hashlib.sha256()
    for p, stage in zip(POOLS, SCORE_STAGES):
        begin = time.perf_counter()
        grids = accum.uniqueness_grids(values, pools[:p])
        ms[stage] = (time.perf_counter() - begin) * 1e3
        digest.update(grids.tobytes())
    return ms, digest.hexdigest()


def summary(times: list[float]) -> dict:
    return {"best": round(min(times), 3), "median": round(statistics.median(times), 3)}


def pair_ratio(parent: list[float], change: list[float]) -> dict:
    """Median and quartiles of the per-round change/parent ratios (every
    timed stage takes a positive time)."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None, grid: dict | None = None) -> int:
    """Run the A/B over ``grid`` ((frames, tokens, dim) -> rounds, the fixed
    grid by default); returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    grid = FIXED_GRID if grid is None else grid
    checkouts = {"parent": args.parent, "change": args.change}

    report = {"host": platform.machine(), "rounds": {}, "bodies": {}}
    with tempfile.TemporaryDirectory() as build_dir:
        trees = {body: {side: load_tree(path, f"vtcomp_{side}_{body}", defines, build_dir)
                        for side, path in checkouts.items()} for body, defines in BODIES.items()}
        report["isa"] = {body: {side: tree.accum._lib.kernel_isa().decode()
                                for side, tree in sides.items()}
                         for body, sides in trees.items()}
        maker = trees["loaded"]["parent"]
        for shape, rounds in grid.items():
            name = "x".join(map(str, shape))
            report["rounds"][name] = rounds
            tensor = maker.generate(maker.SyntheticSpec(*shape, model="iid", seed=0))
            frames, _, dim = shape
            pools = np.random.default_rng(0).standard_normal((max(POOLS), frames, dim))
            expected = None
            for body, sides in trees.items():
                times = {side: {stage: [] for stage in (*COMPRESS_STAGES, *SCORE_STAGES)}
                         for side in SIDES}
                for r in range(rounds):
                    for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                        tree = sides[side]
                        makers = (lambda: tensor,
                                  lambda: tree.TokenTensor.from_array(tensor.values))
                        compressed = [timed_compress(tree, make) for make in makers]
                        score_ms, s_digest = timed_scores(tree.accum, tensor.values, pools)
                        digests = [digest for _, digest in compressed] + [s_digest]
                        if expected is None:
                            expected = digests
                        if digests != expected or len(set(digests[:-1])) != 1:
                            print(f"ab_kernels: {body} body of {side} gives other bytes "
                                  f"at {name} in round {r}", file=sys.stderr)
                            return 1
                        compress_ms = dict(zip(COMPRESS_STAGES, (ms for ms, _ in compressed)))
                        for stage, ms in {**compress_ms, **score_ms}.items():
                            times[side][stage].append(ms)
                report["bodies"].setdefault(body, {})[name] = {
                    **{side: {stage: summary(ms) for stage, ms in stages.items()}
                       for side, stages in times.items()},
                    "pair_ratio": {stage: pair_ratio(ms, times["change"][stage])
                                   for stage, ms in times["parent"].items()},
                    "compress_over_from_array": {
                        side: pair_ratio(stages["from_array_ms"], stages["compress_ms"])
                        for side, stages in times.items()}}

    text = json.dumps(report, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
