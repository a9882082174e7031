"""The benchmark's three workloads: set-up, one operation, and output checks.

Each workload builds its inputs from the seed with ``vtcomp.synthetic``
and writes them to files (``setup``, in ``run.py``'s process).  The
measured process, ``measure.py``, reads them back (``load``), runs a first
untimed pass whose outputs it checks in full (``reference``), and then
checks every timed operation by comparing the SHA-256 of its output with
the reference pass.

* ``clip-stream`` -- one in-process caller, closed loop: ``vtcomp.compress``
  on distinct 32x196x896 clips held in memory.  The paper's call in front of
  the LLM at the working shape; ``formats`` and ``cli`` are bypassed.
* ``cli-wide`` -- one child process at a time, closed loop: ``python -m
  vtcomp compress --threads auto`` on a 64x196x3584 file.  The end-to-end
  CLI path (read, validate, pad, write) and the only multi-worker workload.
* ``ablate-sweep`` -- one in-process caller, closed loop: ``vtcomp.cli.main
  ablate`` over the default 60-configuration matrix on a 128x64x896 file.
  One input scored 60 times through windows, uniform budgets and max
  aggregation, which the other workloads never reach.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import vtcomp
import vtcomp.cli
from vtcomp import (Adjustment, Aggregation, RetentionConfig, ScoreMode,
                    SyntheticSpec, TokenTensor, generate, validate, write_vtok)

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
VTOK_HEADER = struct.Struct("<4sHIII")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


def selection_errors(source, kept, blocks, budgets) -> list[str]:
    """Structural invariants of one compressed output, as error strings.

    ``source`` is the (T, M, D') input, ``kept`` the kept indices of each
    frame, ``blocks`` the output rows of each frame (rows past the kept
    ones are padding) and ``budgets`` the per-frame token budgets.  Indices
    must be strictly ascending and in range, each frame must keep exactly
    its budget, kept rows must be bit-equal to the source rows and padding
    rows must be zero.  Checked frame by frame, so that no copy of the
    whole output is made.
    """
    frames, tokens, dim = source.shape
    if not len(kept) == len(blocks) == len(budgets) == frames:
        return [f"{len(kept)} index lists, {len(blocks)} blocks and "
                f"{len(budgets)} budgets for {frames} frames"]
    errors = []
    for t, (idx, block) in enumerate(zip(kept, blocks)):
        k = len(idx)
        if k != int(budgets[t]):
            errors.append(f"frame {t}: kept {k} tokens, budget {int(budgets[t])}")
        if block.ndim != 2 or block.shape[0] < k or block.shape[1] != dim:
            errors.append(f"frame {t}: output rows {block.shape} for {k} kept tokens")
        elif k and (idx[0] < 0 or idx[-1] >= tokens or np.any(np.diff(idx) <= 0)):
            errors.append(f"frame {t}: indices not ascending within 0..{tokens - 1}")
        elif not np.array_equal(_bits(block[:k]), _bits(source[t, idx])):
            errors.append(f"frame {t}: kept rows differ from the source")
        elif np.any(_bits(block[k:])):
            errors.append(f"frame {t}: padding rows are not zero")
    return errors


def _frozen(values: np.ndarray) -> TokenTensor:
    """A validated tensor on ``values``, without the copy ``from_array`` makes."""
    values.flags.writeable = False
    tensor = TokenTensor(values)
    validate(tensor)
    return tensor


class Workload:
    """Defaults for a workload that calls vtcomp inside the measured process."""

    shape: tuple[int, int, int]
    inputs = 1  # distinct inputs the operations cycle through

    def __init__(self, workdir: Path, shape):
        self.workdir = workdir
        self.shape = tuple(shape)
        self.params = {"shape": self.shape}  # rebuilds this workload in measure.py

    @property
    def tokens_per_op(self) -> int:
        return self.shape[0] * self.shape[1]

    def load(self) -> None:
        """Read the inputs ``setup`` wrote; nothing to do for file-based operations."""

    def traced(self, tracer):
        return tracer.installed(spans.targets())

    def peak_rss_kb(self) -> float:
        """High-water RSS of the measured process: inputs plus vtcomp's working set."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ClipStream(Workload):
    name = "clip-stream"
    default_shape = (32, 196, 896)

    def __init__(self, workdir: Path, shape=default_shape, clips: int = 8):
        super().__init__(workdir, shape)
        self.inputs = clips
        self.params["clips"] = clips
        self.paths = [workdir / f"clip{j}.npy" for j in range(clips)]
        self.config = RetentionConfig()
        self.tensors = []

    def specs(self, seed: int) -> list[SyntheticSpec]:
        rng = np.random.default_rng(seed)
        frames, tokens, dim = self.shape
        out = []
        for j in range(self.inputs):
            sub = int(rng.integers(2**31))
            if j % 2 == 0:
                out.append(SyntheticSpec(
                    frames, tokens, dim, "clustered", seed=sub,
                    num_clusters=int(rng.integers(1, min(frames, 8) + 1)),
                    noise_sigma=float(rng.uniform(0.2, 1.0))))
            else:
                out.append(SyntheticSpec(
                    frames, tokens, dim, "outlier", seed=sub,
                    outlier_index=int(rng.integers(frames)),
                    noise_sigma=float(rng.uniform(0.02, 0.2))))
        return out

    def setup(self, seed: int) -> None:
        for spec, path in zip(self.specs(seed), self.paths):
            np.save(path, generate(spec).values)

    def load(self) -> None:
        self.tensors = [_frozen(np.load(path)) for path in self.paths]

    @property
    def input_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.paths)

    def op(self, i: int):
        return vtcomp.compress(self.tensors[i % self.inputs], self.config, threads=1)

    def _digest(self, result) -> str:
        """SHA-256 of the kept indices, the zero-padded (T, max k, D') block
        and the budgets, fed frame by frame rather than from a padded copy."""
        selection = result.selection
        digest = hashlib.sha256()
        for idx in selection.kept_indices:
            digest.update(np.asarray(idx, dtype="<i8").tobytes())
        width = max((b.shape[0] for b in selection.compressed), default=0)
        row = 4 * self.shape[2]
        zeros = memoryview(bytes(width * row))
        for block in selection.compressed:
            digest.update(np.ascontiguousarray(block, dtype="<f4"))
            digest.update(zeros[:(width - block.shape[0]) * row])
        digest.update(np.asarray(result.allocation.per_frame_count, dtype="<i8").tobytes())
        return digest.hexdigest()

    def reference(self) -> list[str]:
        self.expected = {}
        errors = []
        for j, tensor in enumerate(self.tensors):
            result = self.op(j)
            errors += [f"clip {j}: {e}" for e in selection_errors(
                tensor.values, result.selection.kept_indices,
                result.selection.compressed, result.allocation.per_frame_count)]
            self.expected[f"clip{j}"] = self._digest(result)
        return errors

    def check(self, i: int, result) -> bool:
        return self._digest(result) == self.expected[f"clip{i % self.inputs}"]


class CliWide(Workload):
    name = "cli-wide"
    default_shape = (64, 196, 3584)

    def __init__(self, workdir: Path, shape=default_shape):
        super().__init__(workdir, shape)
        self.src = workdir / "wide.vtok"
        self.out = workdir / "out.vtok"
        self.sidecar = workdir / "out.vtok.indices.csv"
        self.err = workdir / "child.err"
        self.spans_path = workdir / "child.spans.jsonl"
        self.tensor = None
        self.tracer = None
        self.rss_kb: list[int] = []
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        frames, tokens, dim = self.shape
        spec = SyntheticSpec(frames, tokens, dim, "clustered",
                             seed=int(rng.integers(2**31)),
                             num_clusters=int(rng.integers(2, min(frames, 8) + 1)),
                             noise_sigma=float(rng.uniform(0.3, 1.0)))
        write_vtok(generate(spec), self.src)

    def load(self) -> None:
        """The tensor for the in-process reference, read without vtcomp's reader."""
        values = np.fromfile(self.src, dtype="<f4", offset=VTOK_HEADER.size)
        self.tensor = _frozen(values.reshape(self.shape))

    @property
    def input_bytes(self) -> int:
        return self.src.stat().st_size

    @contextlib.contextmanager
    def traced(self, tracer):
        """Run the traced child, ``cli_child.py``, and merge its spans."""
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = None

    def op(self, i: int) -> int:
        args = ["compress", "-i", str(self.src), "-o", str(self.out), "--threads", "auto"]
        if self.tracer is None:
            argv = [sys.executable, "-m", "vtcomp", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"),
                    str(self.spans_path), str(i), *args]
        with open(self.err, "wb") as err, subprocess.Popen(
                argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.merge(spans.load_spans(self.spans_path))
        return proc.returncode

    def peak_rss_kb(self) -> float:
        """Median of the children's ``ru_maxrss``."""
        return statistics.median(self.rss_kb)

    def _digests(self) -> dict[str, str]:
        return {"vtok": _sha256_file(self.out), "indices": _sha256_file(self.sidecar)}

    def _errors(self, code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}: {self.err.read_text().strip()}"]
        blob = self.out.read_bytes()
        _, _, frames, width, dim = VTOK_HEADER.unpack_from(blob)
        wanted = (self.shape[0], max(int(b) for b in self.budgets), self.shape[2])
        if (frames, width, dim) != wanted:
            return [f"output block {(frames, width, dim)}, expected {wanted}"]
        block = np.frombuffer(blob, dtype="<f4", offset=VTOK_HEADER.size)
        block = block.reshape(frames, width, dim)
        lines = self.sidecar.read_text().splitlines()
        if lines[0] != "frame,kept_index":
            return [f"sidecar header {lines[0]!r}"]
        per_frame = [[] for _ in range(self.shape[0])]
        for line in lines[1:]:
            t, m = line.split(",")
            per_frame[int(t)].append(int(m))
        kept = [np.array(idx, dtype=np.int64) for idx in per_frame]
        errors = []
        if any(not np.array_equal(a, b) for a, b in zip(kept, self.kept)):
            errors.append("sidecar indices differ from in-process compress")
        source = np.memmap(self.src, dtype="<f4", mode="r",
                           offset=VTOK_HEADER.size, shape=self.shape)
        try:
            errors += selection_errors(source, kept, block, self.budgets)
        finally:
            del source
        return errors

    def reference(self) -> list[str]:
        # Budgets and indices from an in-process run, before the tensor is
        # dropped: the children read the file and this process stays small.
        result = vtcomp.compress(self.tensor, RetentionConfig(), threads=1)
        self.budgets = result.allocation.per_frame_count
        self.kept = result.selection.kept_indices
        self.tensor = result = None
        errors = self._errors(self.op(0))
        self.expected = self._digests()
        return errors

    def check(self, i: int, code: int) -> bool:
        return code == 0 and self._digests() == self.expected


class AblateSweep(Workload):
    name = "ablate-sweep"
    default_shape = (128, 64, 896)

    def __init__(self, workdir: Path, shape=default_shape):
        super().__init__(workdir, shape)
        self.src = workdir / "long.vtok"
        self.matrix = workdir / "matrix.csv"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        frames, tokens, dim = self.shape
        spec = SyntheticSpec(frames, tokens, dim, "outlier",
                             seed=int(rng.integers(2**31)),
                             outlier_index=int(rng.integers(frames)),
                             noise_sigma=float(rng.uniform(0.02, 0.2)))
        write_vtok(generate(spec), self.src)

    @property
    def input_bytes(self) -> int:
        return self.src.stat().st_size

    def op(self, i: int):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = vtcomp.cli.main(["ablate", "-i", str(self.src), "-o", str(self.matrix)])
        return code, printed.getvalue()

    def _digest(self, output) -> str | None:
        code, printed = output
        text = self.matrix.read_text()
        rows = len(text.splitlines()) - 1
        if code != 0 or printed != f"{rows} configurations written to {self.matrix}\n{text}":
            return None
        return hashlib.sha256(text.encode()).hexdigest()

    def matrix_errors(self, text: str) -> list[str]:
        """Structural checks on the ablation matrix CSV."""
        frames, tokens, _ = self.shape
        lines = text.splitlines()
        header = "score_mode,aggregation,adjustment,window,total_kept,budget_spread,jaccard_vs_default"
        if not lines or lines[0] != header:
            return ["matrix header differs"]
        rows = [line.split(",") for line in lines[1:]]
        windows = ("global", str(frames // 2), str(frames // 4))
        wanted = {(m.value, a.value, adj.value, w) for m in ScoreMode
                  for a in Aggregation for adj in Adjustment for w in windows}
        got = [tuple(r[:4]) for r in rows]
        errors = []
        if len(got) != len(wanted) or set(got) != wanted:
            errors.append(f"{len(got)} rows do not cover the {len(wanted)}-config matrix")
        uniform_kept = frames * math.ceil(0.25 * tokens)
        for r in rows:
            kept, spread, jaccard = int(r[4]), int(r[5]), float(r[6])
            if not frames <= kept <= frames * tokens or not 0.0 <= jaccard <= 1.0:
                errors.append(f"row {r}: value out of range")
            if r[2] == "uniform" and (kept != uniform_kept or spread != 0):
                errors.append(f"row {r}: uniform budgets not {uniform_kept} with spread 0")
            if tuple(r[:4]) == ("combined", "mean", "adaptive", "global") and jaccard != 1.0:
                errors.append(f"row {r}: default config differs from itself")
        return errors

    def reference(self) -> list[str]:
        output = self.op(0)
        digest = self._digest(output)
        self.expected = {"matrix": digest}
        if digest is None:
            return [f"ablate exit {output[0]} or printed matrix differs from the file"]
        return self.matrix_errors(self.matrix.read_text())

    def check(self, i: int, output) -> bool:
        return self._digest(output) == self.expected["matrix"]


WORKLOADS = {w.name: w for w in (ClipStream, CliWide, AblateSweep)}
