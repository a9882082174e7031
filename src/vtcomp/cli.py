"""Command-line front end: generate, analyze, compress, ablate, bench.

Identical flags and inputs always produce byte-identical file outputs
(timing numbers from ``bench`` excepted).  Errors print one line to stderr
as ``error: <kind>: <message>`` with a stable kind per error class; exit
status is 0 on success, 2 for flag problems, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import accum
from .budget import window_edges
from .compress import (
    budget_key,
    combine_scores,
    compress,
    grid_key,
    keep_top,
    score_windows,
    select_budgets,
    select_mask,
    token_ranks,
)
from .errors import ConfigError, VtcompError
from .formats import (
    export_indices,
    export_scores,
    export_token_scores,
    read_vtok,
    write_vtok,
)
from .model import (
    Adjustment,
    Aggregation,
    BudgetAllocation,
    RetentionConfig,
    ScoreMode,
    ScoreReport,
    TokenTensor,
    int_in,
)
from .policies import POLICY_NAMES, Policy
from .synthetic import MODELS, SyntheticSpec, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str, word: str, name: str) -> int:
    """``text`` as an int >= 1 for the flag ``name``, which also takes ``word``."""
    try:  # ArgumentTypeError is not a ValueError
        return int_in(name, int(text), 1, error=argparse.ArgumentTypeError)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or {word!r}, got {text!r}")


def _window_value(text: str):
    return "global" if text == "global" else _positive_int(text, "global", "window")


def _window_list(text: str) -> list:
    windows = [_window_value(w.strip()) for w in text.split(",") if w.strip()]
    if not windows:
        raise argparse.ArgumentTypeError(f"expected at least one window, got {text!r}")
    return list(dict.fromkeys(windows))  # a repeated window would repeat its rows


def _threads_value(text: str) -> int:
    # Scoring runs on the calling thread, so 'auto' is one thread.
    return 1 if text == "auto" else _positive_int(text, "auto", "threads")


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """One flag per ``RetentionConfig`` field: dest is the field, default its default."""
    defaults = RetentionConfig()
    sub.add_argument("--ratio", dest="ratio", type=float, default=defaults.ratio,
                     help="average retention ratio in (0, 1] (default %(default)s)")
    sub.add_argument("--tau", dest="temperature", metavar="TAU", type=float,
                     default=defaults.temperature,
                     help="softmax temperature for frame weights (default %(default)s)")
    sub.add_argument("--epsilon", dest="epsilon", type=float, default=defaults.epsilon,
                     help="softmax denominator stabilizer (default %(default)s)")
    sub.add_argument("--window", dest="window", type=_window_value, default=defaults.window,
                     help="pooling window: frame count or 'global' (default %(default)s)")
    sub.add_argument("--adjustment", dest="adjustment", choices=[a.value for a in Adjustment],
                     default=defaults.adjustment.value,
                     help="budget adjustment (default %(default)s)")
    sub.add_argument("--aggregation", dest="frame_aggregation",
                     choices=[a.value for a in Aggregation],
                     default=defaults.frame_aggregation.value,
                     help="frame score aggregation (default %(default)s)")
    sub.add_argument("--score-mode", dest="score_mode", choices=[m.value for m in ScoreMode],
                     default=defaults.score_mode.value,
                     help="token selection score (default %(default)s)")
    sub.add_argument("--alpha", dest="alpha", type=float, default=defaults.alpha,
                     help="weight on the frame-level score (default %(default)s)")
    sub.add_argument("--beta", dest="beta", type=float, default=defaults.beta,
                     help="weight on the video-level score (default %(default)s)")
    sub.add_argument("--min-tokens", dest="min_tokens_per_frame", metavar="MIN_TOKENS",
                     type=int, default=defaults.min_tokens_per_frame,
                     help="floor on tokens kept per frame (default %(default)s)")
    sub.add_argument("--threads", type=_threads_value, default=1,
                     help="an int >= 1, or 'auto' (1); no effect, as scoring runs "
                          "on one thread")


def _config_from(args) -> RetentionConfig:
    return RetentionConfig(**{f.name: getattr(args, f.name) for f in fields(RetentionConfig)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vtcomp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    # One flag per SyntheticSpec field, as in _add_config_flags.
    gen = subs.add_parser("gen", help="generate a synthetic .vtok tensor")
    gen.add_argument("--frames", type=int, required=True)
    gen.add_argument("--tokens", dest="tokens_per_frame", metavar="TOKENS", type=int,
                     required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--model", choices=MODELS, default="iid")
    gen.add_argument("--clusters", dest="num_clusters", metavar="CLUSTERS", type=int,
                     default=1, help="scene count for the clustered model")
    gen.add_argument("--noise", dest="noise_sigma", metavar="NOISE", type=float,
                     default=0.0, help="Gaussian noise sigma")
    gen.add_argument("--outlier", dest="outlier_index", metavar="OUTLIER", type=int,
                     default=0, help="distinct frame index for the outlier model")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", required=True)
    gen.set_defaults(func=_cmd_gen)

    analyze = subs.add_parser("analyze", help="per-frame budget table and score CSV")
    analyze.add_argument("--input", "-i", required=True)
    analyze.add_argument("--output", "-o", default=None,
                         help="score CSV path (default: <input>.scores.csv)")
    analyze.add_argument("--full", action="store_true",
                         help="also write per-token scores to <output>.tokens.csv")
    _add_config_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    comp = subs.add_parser("compress", help="compress a .vtok tensor")
    comp.add_argument("--input", "-i", required=True)
    comp.add_argument("--output", "-o", required=True)
    comp.add_argument("--policy", choices=POLICY_NAMES, default="vidcom2")
    comp.add_argument("--seed", type=int, default=0,
                      help="seed for the random policy")
    _add_config_flags(comp)
    comp.set_defaults(func=_cmd_compress)

    ablate = subs.add_parser("ablate", help="sweep configuration axes on one input")
    ablate.add_argument("--input", "-i", required=True)
    ablate.add_argument("--output", "-o", default=None, help="matrix CSV path")
    ablate.add_argument("--windows", type=_window_list, default=None,
                        help="comma list of window sizes/'global' to sweep")
    _add_config_flags(ablate)
    ablate.set_defaults(func=_cmd_ablate)

    bench = subs.add_parser("bench", help="time compress on a generated tensor")
    bench.add_argument("--frames", type=int, default=32)
    bench.add_argument("--tokens", type=int, default=196)
    bench.add_argument("--dim", type=int, default=896)
    bench.add_argument("--iters", type=int, default=10,
                       help="timed iterations after one untimed warmup")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("text", "csv"), default="text")
    _add_config_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    return parser


def _cmd_gen(args) -> None:
    tensor = generate(SyntheticSpec(**{f.name: getattr(args, f.name)
                                       for f in fields(SyntheticSpec)}))
    _write_together([(args.output, lambda path: write_vtok(tensor, path))])
    size = os.path.getsize(args.output)
    print(f"wrote {args.output}: {tensor.frames}x{tensor.tokens_per_frame}x"
          f"{tensor.dim} ({args.model}, seed {args.seed}, {size} bytes)")


def _analyze_table(alloc: BudgetAllocation, report: ScoreReport) -> str:
    lines = [f"{'frame':>5} {'u_t':>12} {'sigma_t':>12} {'r_t':>12} {'k_t':>6}"]
    for t in range(alloc.frames):
        lines.append(
            f"{t:>5} {report.frame_uniqueness[t]:>12.6g} {report.frame_weight[t]:>12.6g} "
            f"{alloc.per_frame_ratio[t]:>12.6g} {int(alloc.per_frame_count[t]):>6}"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> None:
    config = _config_from(args)  # reject bad flags before touching files
    tensor = read_vtok(args.input)
    # compress's scoring and budget path, without gathering the kept rows
    grids = score_windows(tensor, [1, config.window])
    _, allocation, report = select_mask(config, grids)
    out = args.output if args.output else f"{args.input}.scores.csv"
    token_out = f"{out}.tokens.csv"
    writes = [(out, lambda path: export_scores(report, allocation, path))]
    if args.full:
        writes.append((token_out, lambda path: export_token_scores(report, path)))
    _write_together(writes)
    print(_analyze_table(allocation, report))
    print(f"scores written to {out}")
    if args.full:
        print(f"token scores written to {token_out}")


def _cmd_compress(args) -> None:
    policy = Policy(args.policy, _config_from(args), args.seed)
    tensor = read_vtok(args.input)
    total = tensor.frames * tensor.tokens_per_frame
    selection = policy.run(tensor)
    del tensor  # so the input and the padded block are never resident together
    padded, counts = selection.padded()
    sidecar = f"{args.output}.indices.csv"
    # The padded block holds bit copies of validated rows plus zero rows,
    # so it is wrapped as is rather than copied and validated again.
    _write_together([
        (args.output, lambda path: write_vtok(TokenTensor(padded), path)),
        (sidecar, lambda path: export_indices(selection, path)),
    ])
    print(f"{policy.descriptor}: kept {selection.total_kept} of {total} tokens "
          f"(padded width {padded.shape[1]}); indices in {sidecar}")


def _write_together(writes) -> None:
    """Run each write(temp) beside its path, then replace all paths or none.

    Every CLI output goes through here, so no output is left half-written:
    a reader of a path sees the whole old file or the whole new one, never
    a file truncated in place.  On failure the temporaries and any path
    already replaced are removed, and an OSError on a temporary is raised
    again, same errno and class, naming the path it stands for.
    """
    temps = [f"{path}.{os.getpid()}.tmp" for path, _ in writes]
    moved = []
    try:
        for (path, write), temp in zip(writes, temps):
            write(temp)
        for (path, _), temp in zip(writes, temps):
            os.replace(temp, path)
            moved.append(path)
    except BaseException as exc:
        for leftover in temps + moved:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename == temp:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def _default_windows(frames: int, base_window) -> list:
    windows = [base_window]
    for w in (frames // 2, frames // 4):
        if w >= 1 and w not in windows:
            windows.append(w)
    if "global" not in windows:
        windows.insert(0, "global")
    return windows


def _cmd_ablate(args) -> None:
    base = _config_from(args)
    tensor = read_vtok(args.input)
    if args.windows:
        windows = args.windows
        if base.window not in windows:
            windows.insert(0, base.window)
    else:
        windows = _default_windows(tensor.frames, base.window)
    for window in windows:  # checked before any scoring
        window_edges(tensor.frames, window)
    # The base run scores windows 1 and base.window, one more pass the rest.
    # Its result dies on this line, so its kept rows are freed before that pass.
    report = compress(tensor, base).report
    grids = {1: report.frame_score, base.window: report.video_score}
    grids.update(score_windows(tensor, [w for w in windows if w not in grids]))

    # Aggregation and adjustment change only the counts and the score mode
    # only the ranking, so each distinct budget and grid is built once, and
    # each cell, the base included, is its ranking cut at its budget.
    cells = [(mode, agg, adj, window) for mode in ScoreMode for agg in Aggregation
             for adj in Adjustment for window in windows]
    budgets = {key: select_budgets(replace(base, frame_aggregation=key[0], adjustment=key[1],
                                           window=key[2]), grids)[0]
               for key in dict.fromkeys(budget_key(agg, adj, w) for _, agg, adj, w in cells)}
    ranks = {key: token_ranks(combine_scores(grids[1], grids[key[1]], key[0],
                                             base.alpha, base.beta))
             for key in dict.fromkeys(grid_key(mode, w) for mode, _, _, w in cells)}

    def cut(mode, agg, adj, window):
        allocation = budgets[budget_key(agg, adj, window)]
        return allocation, keep_top(ranks[grid_key(mode, window)], allocation.per_frame_count)

    # A mask keeps exactly its counts, so its union with the base is both
    # sizes less their overlap.
    base_mask = cut(base.score_mode, base.frame_aggregation, base.adjustment, base.window)[1]
    base_kept = int(np.count_nonzero(base_mask))
    header = "score_mode,aggregation,adjustment,window,total_kept,budget_spread,jaccard_vs_default"
    rows = []
    for mode, agg, adj, window in cells:
        allocation, mask = cut(mode, agg, adj, window)
        counts = allocation.per_frame_count
        overlap = int(np.count_nonzero(mask & base_mask))
        union = allocation.total_kept + base_kept - overlap
        rows.append(
            f"{mode.value},{agg.value},{adj.value},{window},"
            f"{allocation.total_kept},"
            f"{int(counts.max() - counts.min())},"
            f"{overlap / union if union else 1.0:.6g}"
        )
    text = "\n".join([header] + rows) + "\n"
    if args.output:
        _write_together([(args.output, lambda path: Path(path).write_bytes(text.encode()))])
        print(f"{len(rows)} configurations written to {args.output}")
    print(text, end="")


def _cmd_bench(args) -> None:
    config = _config_from(args)  # reject bad flags before generating
    int_in("--iters", args.iters, 1)
    spec = SyntheticSpec(frames=args.frames, tokens_per_frame=args.tokens,
                         dim=args.dim, model="iid", seed=args.seed)
    tensor = generate(spec)
    compress(tensor, config)  # warmup, untimed
    samples = []
    for _ in range(args.iters):
        start = time.perf_counter()
        compress(tensor, config)
        samples.append((time.perf_counter() - start) * 1000.0)
    ordered = sorted(samples)
    mean = sum(ordered) / len(ordered)
    p50 = ordered[(len(ordered) - 1) // 2]
    p95 = ordered[min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)]
    tokens_per_s = args.frames * args.tokens / (mean / 1000.0)
    peak_kb = _peak_rss_kb()
    if args.format == "csv":
        print("frames,tokens,dim,iters,threads,mean_ms,p50_ms,p95_ms,tokens_per_s,"
              "peak_rss_kb,kernel")
        peak = "" if peak_kb is None else peak_kb
        print(f"{args.frames},{args.tokens},{args.dim},{args.iters},{args.threads},"
              f"{mean:.3f},{p50:.3f},{p95:.3f},{tokens_per_s:.1f},{peak},{accum.KERNEL}")
    else:
        print(f"shape {args.frames}x{args.tokens}x{args.dim}, "
              f"{args.iters} iters, {args.threads} thread(s)")
        print(f"per-compress: mean {mean:.3f} ms, p50 {p50:.3f} ms, p95 {p95:.3f} ms")
        print(f"throughput: {tokens_per_s:.0f} tokens/s")
        if peak_kb is not None:
            print(f"peak rss: {peak_kb} KB")
        print(f"kernel: {accum.KERNEL}")
        print(f"isa: {accum.KERNEL_ISA}")


def _peak_rss_kb():
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_parser = None  # built on the first call, then shared: parsing leaves it unchanged


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: flag: {exc}", file=sys.stderr)
        return 2
    except VtcompError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
