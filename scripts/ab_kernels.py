#!/usr/bin/env python3
"""In-process A/B of two checkouts' C kernels, with every output byte compared.

Usage, with both commits checked out side by side:

    python3 scripts/ab_kernels.py --parent ../parent --change . --out ab.json

Each checkout's ``src/vtcomp/_accum.c`` is built twice with ``accum._build``:
once as the package loads it (with the AVX2 dispatch where the host has
it) and once with ``-DVTCOMP_BASELINE_ONLY``, the baseline bodies every
other host runs.  Each build is declared as this package declares it, so
both sources must keep the same entry points.

Only ``accum._lib`` is swapped between the sides: the Python layer that
runs is the one beside this script, so the A/B compares C sources only and
a change to the Python code is not measured.

For each body and each shape of the fixed grid (``SyntheticSpec(...,
model="iid", seed=0)``), rounds alternate the sides, the parent first in
even rounds.  A round times ``compress(tensor, threads=1)``, the
transpose stage (``transpose_tokens`` over every frame, in blocks of
``_BLOCK_BYTES`` as a scoring worker walks them) and the reduction stage
at each pool count P in ``POOLS`` (``token_reductions`` of every block
against the first P of four seeded (T, D') pool matrices).  Before each P
the block is transposed again, so every P reads a block just written, as a
scoring worker reads its block; only the first transpose is timed and
hashed.  The sha256 of every output (the compress report, budgets, kept
indices and rows, every transposed block and every norm and dot grid, in
``POOLS`` order) must be the same for both sides and both bodies in every
round; on a mismatch the script names it on stderr and exits 1.
Otherwise it prints one JSON object, the best and median ms per body,
side and shape, and writes it to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from vtcomp import SyntheticSpec, accum, compress, generate  # noqa: E402

SIDES = ("parent", "change")
BODIES = {"loaded": (), "baseline": ("-DVTCOMP_BASELINE_ONLY",)}
# The fixed shape grid, each with its rounds per body.
FIXED_GRID = {(32, 196, 896): 40, (128, 64, 896): 40, (8, 576, 1024): 40,
              (64, 196, 3584): 8}
# Pool counts of the timed reduction stage: one window, the two of every
# workload (video and frame pools) and four.
POOLS = (1, 2, 4)
BLOCK_STAGES = ("transpose_ms", *(f"reduce_p{p}_ms" for p in POOLS))


def timed_compress(tensor) -> tuple[float, str]:
    """ms of one single-thread compress, and the sha256 of all its outputs."""
    begin = time.perf_counter()
    result = compress(tensor, threads=1)
    ms = (time.perf_counter() - begin) * 1e3
    digest = hashlib.sha256()
    for array in (*vars(result.report).values(), result.allocation.per_frame_ratio,
                  result.allocation.per_frame_count, *result.selection.kept_indices,
                  *result.selection.compressed):
        digest.update(np.ascontiguousarray(array).tobytes())
    return ms, digest.hexdigest()


def timed_blocks(values: np.ndarray, pools: np.ndarray) -> tuple[dict, str]:
    """ms of the block-wise transpose of every frame and of the reduction of
    each block at every P in ``POOLS`` (against ``pools[:P]``, each on a
    block the transpose has just written), and the sha256 of every block and
    reduction output."""
    frames, tokens, dim = values.shape
    frame_size = tokens * dim
    step = max(1, accum._BLOCK_BYTES // (4 * frame_size))
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

    report = {"host": platform.machine(), "threads": 1, "rounds": {}, "bodies": {}}
    loaded = accum._lib
    try:
        with tempfile.TemporaryDirectory() as build_dir:
            libs = {body: {side: accum._build(checkouts[side] / "src" / "vtcomp" / "_accum.c",
                                              build_dir, defines)
                           for side in SIDES} for body, defines in BODIES.items()}
            report["isa"] = {body: {side: lib.kernel_isa().decode()
                                    for side, lib in sides.items()}
                             for body, sides in libs.items()}
            for shape, rounds in grid.items():
                name = "x".join(map(str, shape))
                report["rounds"][name] = rounds
                tensor = generate(SyntheticSpec(*shape, model="iid", seed=0))
                frames, _, dim = shape
                pools = np.random.default_rng(0).standard_normal((max(POOLS), frames, dim))
                expected = None
                for body, sides in libs.items():
                    times = {side: {stage: [] for stage in ("compress_ms", *BLOCK_STAGES)}
                             for side in SIDES}
                    for r in range(rounds):
                        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                            accum._lib = sides[side]
                            c_ms, c_digest = timed_compress(tensor)
                            stage_ms, b_digest = timed_blocks(tensor.values, pools)
                            if expected is None:
                                expected = (c_digest, b_digest)
                            if (c_digest, b_digest) != expected:
                                print(f"ab_kernels: {body} body of {side} gives other bytes "
                                      f"at {name} in round {r}", file=sys.stderr)
                                return 1
                            for stage, ms in {"compress_ms": c_ms, **stage_ms}.items():
                                times[side][stage].append(ms)
                    report["bodies"].setdefault(body, {})[name] = {
                        side: {stage: summary(ms) for stage, ms in stages.items()}
                        for side, stages in times.items()}
    finally:
        accum._lib = loaded

    text = json.dumps(report, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
