#!/usr/bin/env python3
"""In-process A/B of two checkouts' C kernels, with every output byte compared.

Usage, with both commits checked out side by side:

    python3 scripts/ab_kernels.py --parent ../parent --change . --out ab.json

Each checkout's ``src/vtcomp/_accum.c`` is built twice with ``accum._FLAGS``:
once as the package loads it (with the AVX2 dispatch where the host has
it) and once with ``-DVTCOMP_BASELINE_ONLY``, the baseline bodies every
other host runs.  Each build is loaded with ``accum._declare``, so both
sources must keep the entry points this package declares.

Only ``accum._lib`` is swapped between the sides: the Python layer that
runs is the one beside this script, so the A/B compares C sources only and
a change to the Python code is not measured.

For each body and each shape of the fixed grid (``SyntheticSpec(...,
model="iid", seed=0)``), rounds alternate the sides, the parent first in
even rounds.  A round times ``compress(tensor, threads=1)`` and the
transpose stage: ``transpose_tokens`` over every frame, in blocks of
``_BLOCK_BYTES`` as a scoring worker walks them.  The sha256 of every
output (the compress report, budgets, kept indices and rows, and every
transposed block) must be the same for both sides and both bodies in
every round; on a mismatch the script names it on stderr and exits 1.
Otherwise it prints one JSON object, the best and median ms per body,
side and shape, and writes it to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import statistics
import subprocess
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


def build(checkout: Path, defines: tuple, build_dir: Path) -> ctypes.CDLL:
    """Compile a checkout's ``_accum.c`` (once per source and flags) and load it."""
    source = checkout / "src" / "vtcomp" / "_accum.c"
    flags = (*accum._FLAGS, *defines)
    key = hashlib.sha256(source.read_bytes() + " ".join(flags).encode()).hexdigest()[:16]
    target = build_dir / f"_accum.{key}.so"
    if not target.exists():
        subprocess.run(["cc", *flags, "-o", str(target), str(source)], check=True,
                       capture_output=True, timeout=300)
    return accum._declare(ctypes.CDLL(str(target)))


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


def timed_transpose(values: np.ndarray) -> tuple[float, str]:
    """ms of the block-wise transpose of every frame, and the sha256 of its blocks."""
    frames, tokens, dim = values.shape
    frame_size = tokens * dim
    step = max(1, accum._BLOCK_BYTES // (4 * frame_size))
    buf = np.empty(step * frame_size, dtype=np.float32)
    ms, digest = 0.0, hashlib.sha256()
    for t0 in range(0, frames, step):
        t1 = min(t0 + step, frames)
        block = buf[: (t1 - t0) * frame_size].reshape(dim, (t1 - t0) * tokens)
        begin = time.perf_counter()
        accum.transpose_tokens(values, out=block, start=t0, stop=t1)
        ms += (time.perf_counter() - begin) * 1e3
        digest.update(block.tobytes())
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
            libs = {body: {side: build(checkouts[side], defines, Path(build_dir))
                           for side in SIDES} for body, defines in BODIES.items()}
            report["isa"] = {body: {side: lib.kernel_isa().decode()
                                    for side, lib in sides.items()}
                             for body, sides in libs.items()}
            for shape, rounds in grid.items():
                name = "x".join(map(str, shape))
                report["rounds"][name] = rounds
                tensor = generate(SyntheticSpec(*shape, model="iid", seed=0))
                expected = None
                for body, sides in libs.items():
                    times = {side: {"compress_ms": [], "transpose_ms": []} for side in SIDES}
                    for r in range(rounds):
                        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                            accum._lib = sides[side]
                            c_ms, c_digest = timed_compress(tensor)
                            t_ms, t_digest = timed_transpose(tensor.values)
                            if expected is None:
                                expected = (c_digest, t_digest)
                            if (c_digest, t_digest) != expected:
                                print(f"ab_kernels: {body} body of {side} gives other bytes "
                                      f"at {name} in round {r}", file=sys.stderr)
                                return 1
                            times[side]["compress_ms"].append(c_ms)
                            times[side]["transpose_ms"].append(t_ms)
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
