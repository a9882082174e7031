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
from .compress import CompressResult, compress, score_windows, select_mask, topk_select
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
    RetentionConfig,
    ScoreMode,
    TokenTensor,
)
from .policies import POLICY_NAMES, Policy
from .synthetic import MODELS, SyntheticSpec, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _window_value(text: str):
    if text == "global":
        return "global"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'global', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"window must be >= 1, got {value}")
    return value


def _window_list(text: str) -> list:
    return [_window_value(w.strip()) for w in text.split(",") if w.strip()]


def _threads_value(text: str) -> int:
    if text == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"threads must be >= 1, got {value}")
    return value


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
                     help="worker threads, or 'auto'; output is identical for any count")


def _config_from(args) -> RetentionConfig:
    return RetentionConfig(**{f.name: getattr(args, f.name) for f in fields(RetentionConfig)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vtcomp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic .vtok tensor")
    gen.add_argument("--frames", type=int, required=True)
    gen.add_argument("--tokens", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--model", choices=MODELS, default="iid")
    gen.add_argument("--clusters", type=int, default=1,
                     help="scene count for the clustered model")
    gen.add_argument("--noise", type=float, default=0.0,
                     help="Gaussian noise sigma")
    gen.add_argument("--outlier", type=int, default=0,
                     help="distinct frame index for the outlier model")
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
    spec = SyntheticSpec(
        frames=args.frames,
        tokens_per_frame=args.tokens,
        dim=args.dim,
        model=args.model,
        num_clusters=args.clusters,
        noise_sigma=args.noise,
        outlier_index=args.outlier,
        seed=args.seed,
    )
    tensor = generate(spec)
    _write_together([(args.output, lambda path: write_vtok(tensor, path))])
    size = os.path.getsize(args.output)
    print(f"wrote {args.output}: {tensor.frames}x{tensor.tokens_per_frame}x"
          f"{tensor.dim} ({args.model}, seed {args.seed}, {size} bytes)")


def _analyze_table(result: CompressResult) -> str:
    lines = [f"{'frame':>5} {'u_t':>12} {'sigma_t':>12} {'r_t':>12} {'k_t':>6}"]
    alloc = result.allocation
    report = result.report
    for t in range(alloc.frames):
        lines.append(
            f"{t:>5} {report.frame_uniqueness[t]:>12.6g} {report.frame_weight[t]:>12.6g} "
            f"{alloc.per_frame_ratio[t]:>12.6g} {int(alloc.per_frame_count[t]):>6}"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> None:
    config = _config_from(args)  # reject bad flags before touching files
    tensor = read_vtok(args.input)
    result = compress(tensor, config, threads=args.threads)
    out = args.output if args.output else f"{args.input}.scores.csv"
    token_out = f"{out}.tokens.csv"
    writes = [(out, lambda path: export_scores(result.report, result.allocation, path))]
    if args.full:
        writes.append((token_out, lambda path: export_token_scores(result.report, path)))
    _write_together(writes)
    print(_analyze_table(result))
    print(f"scores written to {out}")
    if args.full:
        print(f"token scores written to {token_out}")


def _cmd_compress(args) -> None:
    policy = Policy(args.policy, _config_from(args), args.seed)
    tensor = read_vtok(args.input)
    selection = policy.run(tensor, threads=args.threads)
    padded, counts = selection.padded()
    sidecar = f"{args.output}.indices.csv"
    # The padded block holds bit copies of validated rows plus zero rows,
    # so it is wrapped as is rather than copied and validated again.
    _write_together([
        (args.output, lambda path: write_vtok(TokenTensor(padded), path)),
        (sidecar, lambda path: export_indices(selection, path)),
    ])
    print(f"{policy.descriptor}: kept {selection.total_kept} of "
          f"{tensor.frames * tensor.tokens_per_frame} tokens "
          f"(padded width {padded.shape[1]}); indices in {sidecar}")


def _write_together(writes) -> None:
    """Run each write(temp) beside its path, then replace all paths or none.

    Every CLI output goes through here, so no output is left half-written
    and no file is truncated in place while another process may map it.
    On failure the temporaries and any path already replaced are removed.
    """
    temps = [f"{path}.{os.getpid()}.tmp" for path, _ in writes]
    moved = []
    try:
        for (_, write), temp in zip(writes, temps):
            write(temp)
        for (path, _), temp in zip(writes, temps):
            os.replace(temp, path)
            moved.append(path)
    except BaseException:
        for leftover in temps + moved:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise


def _jaccard(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    inter = int(np.count_nonzero(mask_a & mask_b))
    union = int(np.count_nonzero(mask_a | mask_b))
    return inter / union if union else 1.0


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
    # Every window is validated and scored in one pass up front, so each
    # cell below only selects.
    u_frame, u_videos = score_windows(tensor, windows, threads=args.threads)
    result = compress(tensor, base, threads=args.threads)
    base_mask = topk_select(result.report.combined_score, result.allocation.per_frame_count)

    header = "score_mode,aggregation,adjustment,window,total_kept,budget_spread,jaccard_vs_default"
    rows = []
    for mode in ScoreMode:
        for agg in Aggregation:
            for adj in Adjustment:
                for window in windows:
                    cfg = replace(base, window=window, adjustment=adj,
                                  frame_aggregation=agg, score_mode=mode)
                    mask, allocation, _ = select_mask(cfg, u_frame, u_videos[window])
                    counts = allocation.per_frame_count
                    rows.append(
                        f"{mode.value},{agg.value},{adj.value},{window},"
                        f"{allocation.total_kept},"
                        f"{int(counts.max() - counts.min())},"
                        f"{_jaccard(mask, base_mask):.6g}"
                    )
    text = "\n".join([header] + rows) + "\n"
    if args.output:
        _write_together([(args.output, lambda path: Path(path).write_bytes(text.encode()))])
        print(f"{len(rows)} configurations written to {args.output}")
    print(text, end="")


def _cmd_bench(args) -> None:
    config = _config_from(args)  # reject bad flags before generating
    if args.iters < 1:
        raise ConfigError(f"--iters must be >= 1, got {args.iters}")
    spec = SyntheticSpec(frames=args.frames, tokens_per_frame=args.tokens,
                         dim=args.dim, model="iid", seed=args.seed)
    tensor = generate(spec)
    compress(tensor, config, threads=args.threads)  # warmup, untimed
    samples = []
    for _ in range(args.iters):
        start = time.perf_counter()
        compress(tensor, config, threads=args.threads)
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


def _peak_rss_kb():
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
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
