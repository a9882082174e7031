"""Span tracing of vtcomp's public functions, installed from outside.

vtcomp has no tracing of its own, so the benchmark wraps the module and
class attributes that vtcomp's callers look up at call time (for example
``vtcomp.accum.token_reductions``, which ``compress`` reaches through
``accum.``, and ``vtcomp.compress.allocate``, which ``compress`` imported by
name).  Each wrapper records one span: name, start, end, parent span,
thread and operation id, plus counters computed from the call's shapes.
Spans stay in memory until the run ends.

Every counter here is computed from shapes, sizes or spans; none is read
from hardware performance counters.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "attrs")

    def __init__(self, name, start, end, parent, thread, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.op = op
        self.attrs = attrs or {}

    def to_json(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "thread": self.thread, "op": self.op,
                "attrs": self.attrs}

    @classmethod
    def from_json(cls, d: dict) -> "Span":
        return cls(d["name"], d["start_ns"], d["end_ns"], d["parent"],
                   d["thread"], d["op"], d["attrs"])


class Tracer:
    """Collects spans from wrapped functions; ``op`` tags the current operation.

    Spans on one thread nest through a per-thread stack.  A span opened on
    a thread with an empty stack (a worker started by ``compress``) takes
    the innermost open span of the thread that created the tracer as its
    parent, since that thread is blocked inside the call that started it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span: Span) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def record(self, name: str, start: int, end: int, attrs=None) -> None:
        """Add a finished top-level span timed by the caller."""
        self._add(Span(name, start, end, None, threading.get_ident(), self.op, attrs))

    def wrap(self, name: str, func, counters=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._main_stack
            parent = outer[-1] if outer else None
            span = Span(name, 0, 0, parent, threading.get_ident(), tracer.op)
            stack.append(tracer._add(span))
            span.start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counters is not None:
                span.attrs = counters(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace each (owner, attribute, span name) with a wrapper, then restore."""
        try:
            for owner, attr, name in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                counters = COUNTERS.get(name)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, counters))
                else:
                    new = self.wrap(name, raw, counters)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            while self._undo:
                owner, attr, raw = self._undo.pop()
                setattr(owner, attr, raw)

    def merge(self, spans: list[Span]) -> None:
        """Append spans recorded by another process, keeping their tree."""
        with self._lock:
            base = len(self.spans)
            for s in spans:
                if s.parent is not None:
                    s.parent += base
                self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span.from_json(json.loads(line)) for line in fh if line.strip()]


def targets() -> list[tuple]:
    """The attributes vtcomp's callers look up, with the span name of each."""
    import vtcomp
    import vtcomp.cli  # the package does not import its CLI

    accum, cli, comp, model, policies = (
        sys.modules[f"vtcomp.{m}"] for m in ("accum", "cli", "compress", "model", "policies"))
    out = [(accum, f, f"accum.{f}") for f in
           ("frame_token_sums", "transpose_tokens", "token_reductions", "clamped_cosines")]
    out += [(comp, f, f"budget.{f}") for f in
            ("pools_from_frame_sums", "frame_uniqueness", "softmax_weights",
             "allocate", "allocate_uniform")]
    out += [(comp, f, f"compress.{f}") for f in ("combine_scores", "topk_select")]
    # The package attribute ``vtcomp.compress`` is the function, not the module.
    out += [(owner, "compress", "compress.compress")
            for owner in (vtcomp, comp, cli, policies)]
    out += [(cli, f, f"formats.{f}") for f in ("read_vtok", "write_vtok", "export_indices")]
    out += [
        (model, "validate", "model.validate"),
        (model.TokenTensor, "from_array", "model.from_array"),
        (model.CompressedSelection, "padded", "model.padded"),
        (policies.Policy, "run", "policies.run"),
        (cli, "main", "cli.main"),
    ]
    return out


def _token_reductions(result, channel_major, frames, tokens, pool_rows,
                      start=0, stop=None):
    stop = frames if stop is None else stop
    # one multiply and one add per token, channel and accumulator
    # (the squared norm plus one dot per pool matrix)
    flop = 2 * channel_major.shape[0] * (stop - start) * tokens * (1 + len(pool_rows))
    return {"start": start, "stop": stop, "flop": flop}


def _transpose_tokens(result, values, out=None, start=0, stop=None):
    stop = values.shape[0] if stop is None else stop
    moved = (stop - start) * values.shape[1] * values.shape[2] * values.itemsize
    return {"bytes": 2 * moved}  # each element read once and written once


def _compress(result, tensor, config=None, threads=1):
    window = "global" if config is None else config.window
    data = tensor.values.__array_interface__["data"][0]
    return {"input": [data, str(window)],
            "workers": min(max(1, threads), tensor.values.shape[0])}


def _file_size(result, first, path):
    return {"bytes": os.path.getsize(path)}


def _padded(result, selection):
    block, counts = result
    rows = block.shape[0] * block.shape[1]
    return {"rows": rows, "zero_rows": rows - int(counts.sum())}


COUNTERS = {
    "accum.token_reductions": _token_reductions,
    "accum.transpose_tokens": _transpose_tokens,
    "compress.compress": _compress,
    "formats.write_vtok": _file_size,
    "formats.export_indices": _file_size,
    "formats.read_vtok": lambda result, path: {"bytes": os.path.getsize(path)},
    "model.padded": _padded,
}

# Per-layer metric names, in BENCHMARK.json order.  ``.ms`` is span time
# per operation, ``.calls`` calls per operation, ``.self_ms`` span time not
# covered by child spans, per operation.
TIMED = (
    "accum.token_reductions", "accum.transpose_tokens", "accum.frame_token_sums",
    "accum.clamped_cosines",
    "formats.read_vtok", "formats.write_vtok", "formats.export_indices",
    "model.validate", "model.from_array", "model.padded",
    "budget.pools_from_frame_sums", "budget.frame_uniqueness",
    "budget.softmax_weights", "budget.allocate", "budget.allocate_uniform",
    "compress.compress", "compress.combine_scores", "compress.topk_select",
    "policies.run", "cli.import", "cli.main",
)
COUNTED = ("accum.token_reductions", "accum.transpose_tokens", "accum.frame_token_sums",
           "accum.clamped_cosines", "model.validate", "compress.topk_select")
SELF = ("compress.compress", "cli.main")
SUMMED = (("accum.token_reductions", "flop"), ("accum.transpose_tokens", "bytes"),
          ("formats.read_vtok", "bytes"), ("formats.write_vtok", "bytes"),
          ("formats.export_indices", "bytes"))
RATIOS = ("accum.reuse_ratio", "model.padding_ratio", "compress.worker_busy_ratio")
# Functions that compress runs inside its frame-chunked worker phases.
PHASES = {"accum.frame_token_sums", "accum.transpose_tokens",
          "accum.token_reductions", "compress.topk_select"}

UNITS = {"ms": ("ms", "lower"), "self_ms": ("ms", "lower"), "calls": ("count", "lower"),
         "flop": ("flop", "lower"), "bytes": ("B", "lower")}
RATIO_BETTER = {"accum.reuse_ratio": "higher", "model.padding_ratio": "lower",
                "compress.worker_busy_ratio": "higher"}


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name mapped to (unit, better)."""
    out = {}
    for name in TIMED:
        out[f"{name}.ms"] = UNITS["ms"]
        if name in COUNTED:
            out[f"{name}.calls"] = UNITS["calls"]
        if name in SELF:
            out[f"{name}.self_ms"] = UNITS["self_ms"]
    for name, key in SUMMED:
        out[f"{name}.{key}"] = UNITS[key]
    for name in RATIOS:
        out[name] = ("ratio", RATIO_BETTER[name])
    return out


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, cursor = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union_ns(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _ancestor(spans: list[Span], index: int, name: str):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations."""
    total = defaultdict(int)
    calls = defaultdict(int)
    own = defaultdict(int)
    sums = defaultdict(int)
    for s, self_ns in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        own[s.name] += self_ns
        for key, value in s.attrs.items():
            if isinstance(value, int):
                sums[(s.name, key)] += value

    out = {}
    for name in TIMED:
        out[f"{name}.ms"] = total[name] / 1e6 / ops
        if name in COUNTED:
            out[f"{name}.calls"] = calls[name] / ops
        if name in SELF:
            out[f"{name}.self_ms"] = own[name] / 1e6 / ops
    for name, key in SUMMED:
        out[f"{name}.{key}"] = sums[(name, key)] / ops

    # Distinct (tensor, window, frame) rows reduced per row reduced.
    seen = set()
    for i, s in enumerate(spans):
        if s.name == "accum.token_reductions":
            owner = _ancestor(spans, i, "compress.compress")
            key = (s.op, tuple(owner.attrs["input"]) if owner else i)
            seen.update((key, f) for f in range(s.attrs["start"], s.attrs["stop"]))
    rows = sum(s.attrs["stop"] - s.attrs["start"] for s in spans
               if s.name == "accum.token_reductions")
    out["accum.reuse_ratio"] = _ratio(len(seen), rows)
    out["model.padding_ratio"] = _ratio(sums[("model.padded", "zero_rows")],
                                        sums[("model.padded", "rows")])

    # Worker-phase span time, per thread, over (workers x compress wall).
    phase = defaultdict(list)
    for s in spans:
        if s.name in PHASES and s.parent is not None \
                and spans[s.parent].name == "compress.compress":
            phase[(s.parent, s.thread)].append((s.start, s.end))
    busy = defaultdict(int)
    for (parent, _thread), intervals in phase.items():
        p = spans[parent]
        busy[parent] += _union_ns(intervals, p.start, p.end)
    capacity = sum(s.attrs["workers"] * (s.end - s.start)
                   for s in spans if s.name == "compress.compress")
    out["compress.worker_busy_ratio"] = _ratio(sum(busy.values()), capacity)
    return out
