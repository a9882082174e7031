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
even rounds.  A round times the side's ``compress(tensor, threads=1)``, the
transpose stage (``transpose_tokens`` over every frame, in blocks of
``BLOCK_BYTES`` as the scoring pass walks them) and the reduction stage
at each pool count P in ``POOLS`` (``token_reductions`` of every block
against the first P of four seeded (T, D') pool matrices).  Before each P
the block is transposed again, so every P reads a block just written, as the
scoring pass reads its block; only the first transpose is timed and
hashed.  The sha256 of every output (the compress report, budgets, kept
indices and rows, every transposed block and every norm and dot grid, in
``POOLS`` order) must be the same for both sides and both bodies in every
round; on a mismatch the script names it on stderr and exits 1.
Otherwise it prints one JSON object, the best and median ms per body,
side and shape, and writes it to ``--out`` when given.  Both sides run in
every round, so each round is a pair: beside the sides, ``pair_ratio``
records for every stage the median and quartiles (inclusive method) of the
rounds' change/parent ratios, which a host that changes speed between
rounds moves less than the side medians.
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
FIXED_GRID = {(32, 196, 896): 40, (128, 64, 896): 40, (8, 576, 1024): 40,
              (64, 196, 3584): 8}
# Pool counts of the timed reduction stage: one window, the two of every
# workload (video and frame pools) and four.
POOLS = (1, 2, 4)
BLOCK_STAGES = ("transpose_ms", *(f"reduce_p{p}_ms" for p in POOLS))
# Bytes of the channel-major block the block stages walk: the scoring pass's
# size, fixed here so that both trees walk the same blocks.
BLOCK_BYTES = 1 << 20


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


def timed_compress(tree, tensor) -> tuple[float, str]:
    """ms of one ``tree.compress`` at ``threads=1``, and the sha256 of its outputs."""
    begin = time.perf_counter()
    result = tree.compress(tensor, threads=1)
    ms = (time.perf_counter() - begin) * 1e3
    digest = hashlib.sha256()
    for array in (*vars(result.report).values(), result.allocation.per_frame_ratio,
                  result.allocation.per_frame_count, *result.selection.kept_indices,
                  *result.selection.compressed):
        digest.update(np.ascontiguousarray(array).tobytes())
    return ms, digest.hexdigest()


def timed_blocks(accum, values: np.ndarray, pools: np.ndarray) -> tuple[dict, str]:
    """ms of ``accum``'s block-wise transpose of every frame and of its
    reduction of each block at every P in ``POOLS`` (against ``pools[:P]``,
    each on a block the transpose has just written), and the sha256 of every
    block and reduction output."""
    frames, tokens, dim = values.shape
    frame_size = tokens * dim
    step = max(1, BLOCK_BYTES // (4 * frame_size))
    buf = np.empty(step * frame_size, dtype=np.float32)
    ms, digest = dict.fromkeys(BLOCK_STAGES, 0.0), hashlib.sha256()
    for t0 in range(0, frames, step):
        t1 = min(t0 + step, frames)
        block = buf[: (t1 - t0) * frame_size].reshape(dim, (t1 - t0) * tokens)
        for p in POOLS:
            begin = time.perf_counter()
            accum.transpose_tokens(values, out=block, start=t0, stop=t1)
            written = time.perf_counter()
            sq, dots = accum.token_reductions(block, frames, tokens, pools[:p], t0, t1)
            ms[f"reduce_p{p}_ms"] += (time.perf_counter() - written) * 1e3
            if p == POOLS[0]:  # every rewrite gives the same block
                ms["transpose_ms"] += (written - begin) * 1e3
                digest.update(block.tobytes())
            digest.update(sq.tobytes())
            digest.update(dots.tobytes())
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
                times = {side: {stage: [] for stage in ("compress_ms", *BLOCK_STAGES)}
                         for side in SIDES}
                for r in range(rounds):
                    for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                        compress_ms, c_digest = timed_compress(sides[side], tensor)
                        block_ms, b_digest = timed_blocks(sides[side].accum, tensor.values,
                                                          pools)
                        digests = [c_digest, b_digest]
                        if expected is None:
                            expected = digests
                        if digests != expected:
                            print(f"ab_kernels: {body} body of {side} gives other bytes "
                                  f"at {name} in round {r}", file=sys.stderr)
                            return 1
                        for stage, ms in {"compress_ms": compress_ms, **block_ms}.items():
                            times[side][stage].append(ms)
                report["bodies"].setdefault(body, {})[name] = {
                    **{side: {stage: summary(ms) for stage, ms in stages.items()}
                       for side, stages in times.items()},
                    "pair_ratio": {stage: pair_ratio(ms, times["change"][stage])
                                   for stage, ms in times["parent"].items()}}

    text = json.dumps(report, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
