import errno
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vtcomp
from vtcomp import accum
from vtcomp import (Adjustment, Aggregation, RetentionConfig, ScoreMode, TokenTensor,
                    compress, read_vtok, write_vtok)
from vtcomp.cli import _config_from, _threads_value, _write_together, build_parser, main
from vtcomp.formats import export_scores, export_token_scores
from vtcomp.model import CompressedSelection
from vtcomp.policies import POLICY_NAMES, Policy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, name="v.vtok", frames=6, tokens=8, dim=5, **extra):
    path = tmp_path / name
    argv = ["gen", "--frames", str(frames), "--tokens", str(tokens),
            "--dim", str(dim), "-o", str(path)]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return path


class TestGen:
    def test_file_size_formula(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, frames=4, tokens=3, dim=7)
        assert path.stat().st_size == 18 + 4 * 4 * 3 * 7

    def test_same_command_same_bytes(self, capsys, tmp_path):
        a = gen(capsys, tmp_path, "a.vtok", model="outlier", outlier=2, seed=7)
        b = gen(capsys, tmp_path, "b.vtok", model="outlier", outlier=2, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_outlier_out_of_bounds_is_flag_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--frames", "4", "--tokens", "2",
                           "--dim", "2", "--model", "outlier", "--outlier", "9",
                           "-o", str(tmp_path / "x.vtok"))
        assert code == 2
        assert err.startswith("error: flag:")


class TestAnalyze:
    def test_writes_csv_and_table(self, capsys, tmp_path):
        path = gen(capsys, tmp_path)
        code, out, err = run(capsys, "analyze", "-i", str(path))
        assert code == 0, err
        assert "frame" in out and "sigma_t" in out
        csv = tmp_path / "v.vtok.scores.csv"
        assert csv.exists()
        assert csv.read_text().startswith("frame,u_t,sigma_t,r_t,k_t\n")

    def test_uniform_input_gives_equal_rows(self, capsys, tmp_path):
        path = tmp_path / "u.vtok"
        write_vtok(TokenTensor.from_array(
            np.tile(np.array([1.0, 2.0], dtype=np.float32), (5, 4, 1))), path)
        out_csv = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "analyze", "-i", str(path), "-o", str(out_csv))
        assert code == 0
        rows = [r.split(",", 1)[1] for r in out_csv.read_text().strip().split("\n")[1:]]
        assert len(set(rows)) == 1

    def test_window_equal_frames_matches_global_csv(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, frames=16)
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert run(capsys, "analyze", "-i", str(path), "-o", str(a_csv),
                   "--window", "16")[0] == 0
        assert run(capsys, "analyze", "-i", str(path), "-o", str(b_csv),
                   "--window", "global")[0] == 0
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_full_writes_token_scores(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, frames=2, tokens=3)
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "analyze", "-i", str(path), "-o", str(out_csv), "--full")
        assert code == 0
        token_csv = tmp_path / "s.csv.tokens.csv"
        assert token_csv.exists()
        assert len(token_csv.read_text().strip().split("\n")) == 1 + 2 * 3

    def test_outlier_row_is_maximal(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, frames=8, tokens=12, dim=16,
                   model="outlier", outlier=5, noise=0.05, seed=3)
        out_csv = tmp_path / "s.csv"
        assert run(capsys, "analyze", "-i", str(path), "-o", str(out_csv))[0] == 0
        rows = [r.split(",") for r in out_csv.read_text().strip().split("\n")[1:]]
        u = [float(r[1]) for r in rows]
        k = [int(r[4]) for r in rows]
        assert max(range(8), key=lambda i: u[i]) == 5
        assert max(range(8), key=lambda i: k[i]) == 5


    @pytest.mark.parametrize("shape, window", [((6, 8, 5), "global"), ((12, 10, 7), "4")])
    def test_csvs_equal_the_exports_of_compress(self, capsys, tmp_path, shape, window):
        frames, tokens, dim = shape
        path = gen(capsys, tmp_path, frames=frames, tokens=tokens, dim=dim,
                   model="outlier", outlier=frames // 2, noise=0.2, seed=frames)
        config = RetentionConfig(window=window if window == "global" else int(window))
        result = compress(read_vtok(path), config)
        export_scores(result.report, result.allocation, tmp_path / "want.csv")
        export_token_scores(result.report, tmp_path / "want.tokens.csv")
        out_csv = tmp_path / "s.csv"
        code, _, err = run(capsys, "analyze", "-i", str(path), "-o", str(out_csv),
                           "--full", "--window", window)
        assert code == 0, err
        assert out_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "s.csv.tokens.csv").read_bytes() == \
            (tmp_path / "want.tokens.csv").read_bytes()

    def test_never_gathers_rows(self, capsys, tmp_path, monkeypatch):
        path = gen(capsys, tmp_path, frames=8, tokens=12, dim=6)
        code, before, err = run(capsys, "analyze", "-i", str(path), "--full")
        assert code == 0, err

        def gather(*args):
            raise AssertionError("analyze gathered the kept rows")

        monkeypatch.setattr(CompressedSelection, "from_mask", gather)
        code, after, err = run(capsys, "analyze", "-i", str(path), "--full")
        assert code == 0, err
        assert after == before


class TestCompress:
    def test_ratio_one_round_trips_payload(self, capsys, tmp_path):
        # Full ratio with no budget adjustment keeps every token, so the
        # padded output is byte-identical to the input.
        src = gen(capsys, tmp_path, frames=3, tokens=4, dim=5)
        out = tmp_path / "c.vtok"
        code, _, _ = run(capsys, "compress", "-i", str(src), "-o", str(out),
                         "--ratio", "1.0", "--adjustment", "uniform")
        assert code == 0
        original = read_vtok(src)
        compressed = read_vtok(out)
        assert compressed.values.tobytes() == original.values.tobytes()
        sidecar = (tmp_path / "c.vtok.indices.csv").read_text().strip().split("\n")
        assert len(sidecar) == 1 + 3 * 4

    def test_padded_width_is_max_count(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=6, tokens=10, dim=4,
                  model="outlier", outlier=1, seed=5)
        out = tmp_path / "c.vtok"
        assert run(capsys, "compress", "-i", str(src), "-o", str(out),
                   "--ratio", "0.3")[0] == 0
        result = compress(read_vtok(src), RetentionConfig(ratio=0.3))
        compressed = read_vtok(out)
        counts = result.allocation.per_frame_count
        assert compressed.tokens_per_frame == int(counts.max())
        # padding rows past each frame's own count are exactly zero
        for t in range(6):
            pad = compressed.values[t, int(counts[t]):, :]
            assert np.array_equal(pad, np.zeros_like(pad))
        # kept positions carry exact copies in kept order
        src_values = read_vtok(src).values
        for t, idx in enumerate(result.selection.kept_indices):
            assert np.array_equal(compressed.values[t, : len(idx)], src_values[t, idx])

    def test_random_policy_seeded_twice_identical(self, capsys, tmp_path):
        src = gen(capsys, tmp_path)
        outs = []
        for name in ("r1.vtok", "r2.vtok"):
            out = tmp_path / name
            assert run(capsys, "compress", "-i", str(src), "-o", str(out),
                       "--policy", "random", "--seed", "7")[0] == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "r1.vtok.indices.csv").read_bytes() == \
            (tmp_path / "r2.vtok.indices.csv").read_bytes()

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=9, tokens=11, dim=6)
        one = tmp_path / "one.vtok"
        auto = tmp_path / "auto.vtok"
        assert run(capsys, "compress", "-i", str(src), "-o", str(one),
                   "--threads", "1")[0] == 0
        assert run(capsys, "compress", "-i", str(src), "-o", str(auto),
                   "--threads", "auto")[0] == 0
        assert one.read_bytes() == auto.read_bytes()
        assert (tmp_path / "one.vtok.indices.csv").read_bytes() == \
            (tmp_path / "auto.vtok.indices.csv").read_bytes()

    def test_auto_threads_are_one_whatever_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _threads_value("auto") == 1

    def test_uniform_policy_budget(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=2, tokens=196, dim=3)
        out = tmp_path / "u.vtok"
        assert run(capsys, "compress", "-i", str(src), "-o", str(out),
                   "--policy", "uniform", "--ratio", "0.25")[0] == 0
        sidecar = (tmp_path / "u.vtok.indices.csv").read_text().strip().split("\n")
        assert len(sidecar) == 1 + 2 * 49

    def test_random_policy_honours_min_tokens(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=4, tokens=3, dim=2)
        out = tmp_path / "r.vtok"
        assert run(capsys, "compress", "-i", str(src), "-o", str(out), "--policy", "random",
                   "--ratio", "0.1", "--min-tokens", "3")[0] == 0
        assert read_vtok(out).values.shape == (4, 3, 2)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_summary_line_names_the_resolved_config(self, capsys, tmp_path, name):
        src = gen(capsys, tmp_path)
        argv = ["compress", "-i", str(src), "-o", str(tmp_path / "c.vtok"),
                "--policy", name, "--window", "2", "--score-mode", "frame_only", "--seed", "4"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        args = build_parser().parse_args(argv)
        descriptor = Policy(name, _config_from(args), 4).descriptor
        assert out.startswith(f"{descriptor}: kept ")
        assert "window=2" in descriptor and "score_mode=frame_only" in descriptor

    def test_summary_line_names_the_adjustment(self, capsys, tmp_path):
        src = gen(capsys, tmp_path)
        lines = []
        for extra in ([], ["--adjustment", "uniform"]):
            code, out, _ = run(capsys, "compress", "-i", str(src), "-o",
                               str(tmp_path / "c.vtok"), *extra)
            assert code == 0
            lines.append(out.split(": kept ")[0])
        assert "adjustment=adaptive" in lines[0] and "adjustment=uniform" in lines[1]

    def test_failed_sidecar_leaves_no_output(self, capsys, tmp_path):
        src = gen(capsys, tmp_path)
        out = tmp_path / "c.vtok"
        (tmp_path / "c.vtok.indices.csv").mkdir()
        code, _, err = run(capsys, "compress", "-i", str(src), "-o", str(out))
        assert code == 1
        assert err.startswith("error: io:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.vtok.indices.csv", "v.vtok"]


class TestWholeOutputs:
    """Every output is written beside its path and renamed into place, so a
    failed write leaves no output file."""

    @pytest.mark.parametrize("command, blocked", [
        ("gen", "out.vtok"),
        ("analyze", "out.csv"),
        ("analyze --full", "out.csv.tokens.csv"),
        ("ablate", "out.csv"),
    ])
    def test_failed_write_leaves_no_output(self, capsys, tmp_path, command, blocked):
        before = []
        if command == "gen":
            argv = ["gen", "--frames", "4", "--tokens", "6", "--dim", "3"]
        else:
            before = [gen(capsys, tmp_path).name]
            argv = command.split() + ["-i", str(tmp_path / "v.vtok")]
        # A directory where the temporary file goes makes that write fail.
        blocker = tmp_path / f"{blocked}.{os.getpid()}.tmp"
        blocker.mkdir()
        name = "out.vtok" if command == "gen" else "out.csv"
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / name))
        assert code == 1
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + [blocker.name])

    @pytest.mark.parametrize("command", ["gen", "analyze", "compress", "ablate"])
    def test_failed_write_names_the_output_path(self, capsys, tmp_path, monkeypatch,
                                                command):
        monkeypatch.chdir(tmp_path)
        if command == "gen":
            argv = ["gen", "--frames", "4", "--tokens", "6", "--dim", "3"]
        else:
            gen(capsys, tmp_path)
            argv = [command, "-i", "v.vtok"]
        code, _, err = run(capsys, *argv, "-o", "missing_dir/x.vtok")
        assert code == 1
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert "'missing_dir/x.vtok'" in err and ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ([] if command == "gen" else ["v.vtok"])

    def test_failed_write_keeps_its_errno_and_class(self, tmp_path):
        path = str(tmp_path / "missing_dir" / "x.vtok")
        with pytest.raises(FileNotFoundError) as caught:
            _write_together([(path, lambda temp: open(temp, "wb").close())])
        assert caught.value.errno == errno.ENOENT and caught.value.filename == path


class TestAblate:
    def test_matrix_covers_all_combinations(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=4, tokens=6, dim=4)
        out_csv = tmp_path / "m.csv"
        code, out, _ = run(capsys, "ablate", "-i", str(src), "-o", str(out_csv),
                           "--windows", "global,2")
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("score_mode,aggregation,adjustment,window")
        assert len(lines) == 1 + 5 * 2 * 2 * 2

    def test_default_cell_jaccard_is_one(self, capsys, tmp_path):
        src = gen(capsys, tmp_path)
        code, out, _ = run(capsys, "ablate", "-i", str(src), "--windows", "global")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        default = [r for r in rows
                   if r[:4] == ["combined", "mean", "adaptive", "global"]]
        assert len(default) == 1
        assert float(default[0][6]) == 1.0

    def test_uniform_and_adaptive_agree_on_uniform_content(self, capsys, tmp_path):
        # Constant content makes the softmax weights uniform, so adaptive
        # ratios collapse to (almost exactly) the preset and the ceiling
        # lands on the same integer budget as the uniform baseline.
        path = tmp_path / "const.vtok"
        write_vtok(TokenTensor.from_array(
            np.tile(np.array([0.5, -1.25, 2.0], dtype=np.float32), (6, 8, 1))), path)
        code, out, _ = run(capsys, "ablate", "-i", str(path), "--windows", "global")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        by_adjustment = {}
        for r in rows:
            if r[0] == "combined" and r[1] == "mean" and r[3] == "global":
                by_adjustment[r[2]] = (int(r[4]), int(r[5]))
        assert by_adjustment["adaptive"] == by_adjustment["uniform"]
        assert by_adjustment["adaptive"][1] == 0  # zero budget spread

    def test_repeated_invocations_are_byte_identical(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=5, tokens=7, dim=6, model="outlier",
                  outlier=2, noise=0.1, seed=13)
        outs = []
        for name in ("x", "y"):
            score_csv = tmp_path / f"{name}.scores.csv"
            matrix_csv = tmp_path / f"{name}.matrix.csv"
            assert run(capsys, "analyze", "-i", str(src), "-o", str(score_csv))[0] == 0
            assert run(capsys, "ablate", "-i", str(src), "-o", str(matrix_csv),
                       "--windows", "global,2")[0] == 0
            outs.append((score_csv.read_bytes(), matrix_csv.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("shape, flag, windows", [
        ((16, 50, 67), None, ["global", 8, 4]),  # D not a multiple of 4
        ((9, 1, 5), None, ["global", 4, 2]),  # one token per frame
        ((12, 10, 8), "global,8,8,3", ["global", 8, 3]),  # a duplicate window runs once
        ((10, 6, 12), "10,5", ["global", 10, 5]),  # window == frames
        ((6, 5, 7), "1,3", ["global", 1, 3]),  # the frame level as a window
    ])
    def test_matrix_equals_one_compress_per_cell(self, capsys, tmp_path, shape,
                                                 flag, windows, threads):
        frames, tokens, dim = shape
        src = gen(capsys, tmp_path, frames=frames, tokens=tokens, dim=dim,
                  model="outlier", outlier=frames // 3, noise=0.3, seed=sum(shape))
        out_csv = tmp_path / "m.csv"
        argv = ["ablate", "-i", str(src), "-o", str(out_csv), "--threads", threads]
        if flag is not None:
            argv += ["--windows", flag]
        code, _, err = run(capsys, *argv)
        assert code == 0, err

        tensor = read_vtok(src)
        base = RetentionConfig()
        base_kept = compress(tensor, base).selection.kept_indices
        rows = ["score_mode,aggregation,adjustment,window,total_kept,budget_spread,"
                "jaccard_vs_default"]
        for mode in ScoreMode:
            for agg in Aggregation:
                for adj in Adjustment:
                    for window in windows:
                        cfg = replace(base, window=window, adjustment=adj,
                                      frame_aggregation=agg, score_mode=mode)
                        result = compress(tensor, cfg)
                        counts = result.allocation.per_frame_count
                        inter = union = 0
                        for a, b in zip(result.selection.kept_indices, base_kept):
                            inter += np.intersect1d(a, b).size
                            union += np.union1d(a, b).size
                        jaccard = inter / union if union else 1.0
                        rows.append(f"{mode.value},{agg.value},{adj.value},{window},"
                                    f"{result.selection.total_kept},"
                                    f"{int(counts.max() - counts.min())},{jaccard:.6g}")
        assert out_csv.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.fixture
    def pools_scored(self, monkeypatch):
        """Sizes of the pool-matrix lists handed to ``uniqueness_grids``."""
        sizes = []
        real = accum.uniqueness_grids
        monkeypatch.setattr(accum, "uniqueness_grids",
                            lambda values, rows, *rest: sizes.append(len(rows))
                            or real(values, rows, *rest))
        return sizes

    @pytest.mark.parametrize("frames, flag, pools", [
        (4, "global,2", 3),  # frame level, global, 2
        (4, "1,global", 2),  # the base run scores both
        (8, None, 4),  # default windows global, 4 and 2, plus the frame level
    ])
    def test_each_pool_scored_once(self, capsys, tmp_path, pools_scored, frames, flag,
                                   pools):
        src = gen(capsys, tmp_path, frames=frames, tokens=6, dim=4)
        argv = ["ablate", "-i", str(src)] + ([] if flag is None else ["--windows", flag])
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert sum(pools_scored) == pools

    def test_repeated_window_runs_once(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=4, tokens=6, dim=4)
        code, out, err = run(capsys, "ablate", "-i", str(src), "--windows", "2,2")
        assert code == 0, err
        cells = [tuple(r.split(",")[:4]) for r in out.strip().split("\n")[1:]]
        assert len(cells) == len(set(cells)) == 40
        assert {c[3] for c in cells} == {"global", "2"}

    def test_each_grid_ranked_once_per_selection(self, capsys, tmp_path, monkeypatch):
        # One ranking per distinct grid plus the base compress's own; the
        # base mask is the base cell's cut of its grid's ranking.  combined, video_only and
        # positive_video rank one grid per window; frame_only and
        # positive_frame one grid each, the video modes' grids at window 1.
        # The 8-frame default sweep has the windows of the 128-frame
        # benchmark input (global, T/2, T/4).
        srcs = {frames: gen(capsys, tmp_path, name=f"v{frames}.vtok", frames=frames,
                            tokens=6, dim=4) for frames in (4, 8)}
        cases = [(4, [], {"global", "2", "1"}, 10),
                 (4, ["--windows", "global,1,2,3"], {"global", "1", "2", "3"}, 13),
                 (8, [], {"global", "4", "2"}, 12)]
        before = []
        for frames, flags, windows, _ in cases:
            code, out, err = run(capsys, "ablate", "-i", str(srcs[frames]), *flags)
            assert code == 0, err
            assert {line.split(",")[3] for line in out.splitlines()[1:]} == windows
            before.append(out)
        calls = []

        def spy(real):
            return lambda *args: calls.append(1) or real(*args)

        # vtcomp.compress is the function; cli may hold a name of its own
        for module in (sys.modules["vtcomp.compress"], vtcomp.cli):
            if hasattr(module, "token_ranks"):
                monkeypatch.setattr(module, "token_ranks", spy(module.token_ranks))
        for (frames, flags, windows, rankings), out in zip(cases, before):
            calls.clear()
            code, after, err = run(capsys, "ablate", "-i", str(srcs[frames]), *flags)
            assert code == 0, err
            distinct = 3 * len(windows) + 2 - 2 * ("1" in windows)
            assert len(calls) == distinct + 1 == rankings
            assert after == out

    @pytest.mark.parametrize("flags", [
        [],
        ["--window", "2", "--score-mode", "positive_frame", "--adjustment", "uniform",
         "--aggregation", "max"],
        ["--window", "4", "--score-mode", "video_only", "--aggregation", "max"],
    ])
    def test_never_reads_the_base_selection(self, capsys, tmp_path, monkeypatch, flags):
        src = gen(capsys, tmp_path, frames=8, tokens=6, dim=4, model="outlier", outlier=2,
                  noise=0.3, seed=4)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        code, _, err = run(capsys, "ablate", "-i", str(src), "-o", str(want), *flags)
        assert code == 0, err
        real = vtcomp.cli.compress
        monkeypatch.setattr(vtcomp.cli, "compress",
                            lambda *args, **kw: real(*args, **kw)._replace(selection=None))
        code, _, err = run(capsys, "ablate", "-i", str(src), "-o", str(got), *flags)
        assert code == 0, err
        assert got.read_bytes() == want.read_bytes()
        # The base cell is the base config's own cut: Jaccard 1 against itself.
        parsed = build_parser().parse_args(["ablate", "-i", "x", *flags])
        cell = [parsed.score_mode, parsed.frame_aggregation, parsed.adjustment,
                str(parsed.window)]
        rows = [line.split(",") for line in want.read_text().splitlines()[1:]]
        assert [float(r[6]) for r in rows if r[:4] == cell] == [1.0]

    def test_out_of_range_window_scores_nothing(self, capsys, tmp_path, pools_scored):
        src = gen(capsys, tmp_path, frames=4, tokens=6, dim=4)
        code, out, err = run(capsys, "ablate", "-i", str(src), "--windows", "global,2,9")
        assert (code, out, pools_scored) == (1, "", [])
        assert err.startswith("error: window-out-of-range:") and err.count("\n") == 1

    def test_uniform_spread_zero_adaptive_positive_on_outlier(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=8, tokens=12, dim=16,
                  model="outlier", outlier=2, seed=9)
        code, out, _ = run(capsys, "ablate", "-i", str(src), "--windows", "global")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        for r in rows:
            spread = int(r[5])
            if r[2] == "uniform":
                assert spread == 0
            if r[:4] == ["combined", "mean", "adaptive", "global"]:
                assert spread > 0


class TestBench:
    def test_single_iteration_runs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--frames", "3", "--tokens", "6",
                           "--dim", "8", "--iters", "1")
        assert code == 0
        assert "per-compress" in out

    def test_csv_format_parses(self, capsys):
        code, out, _ = run(capsys, "bench", "--frames", "2", "--tokens", "4",
                           "--dim", "4", "--iters", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("frames,tokens,dim,iters")
        cells = row.split(",")
        assert float(cells[5]) > 0.0  # mean_ms

    def test_reports_which_kernel_ran(self, capsys):
        code, out, _ = run(capsys, "bench", "--frames", "2", "--tokens", "4",
                           "--dim", "4", "--iters", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[lines.index(f"kernel: {accum.KERNEL}") + 1] == f"isa: {accum.KERNEL_ISA}"
        code, out, _ = run(capsys, "bench", "--frames", "2", "--tokens", "4",
                           "--dim", "4", "--iters", "1", "--format", "csv")
        header, row = out.strip().split("\n")
        assert header.split(",")[-1] == "kernel"
        assert row.split(",")[-1] == accum.KERNEL


class TestErrorSurface:
    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "-i", str(tmp_path / "nope.vtok"))
        assert code == 1
        assert err.startswith("error: io:")

    def test_directory_input_is_io_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "compress", "-i", str(tmp_path), "-o",
                             str(tmp_path / "c.vtok"))
        assert code == 1
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_prefix(self, capsys, tmp_path):
        path = tmp_path / "bad.vtok"
        path.write_bytes(b"XXXXjunkjunkjunkjunk")
        code, _, err = run(capsys, "analyze", "-i", str(path))
        assert code == 1
        assert err.startswith("error: bad-magic:")

    def test_dimension_mismatch_prefix(self, capsys, tmp_path):
        import struct
        path = tmp_path / "dim.vtok"
        path.write_bytes(struct.pack("<4sHIII", b"VTK1", 1, 0, 2, 2))
        code, _, err = run(capsys, "analyze", "-i", str(path))
        assert code == 1
        assert err.startswith("error: dimension-mismatch:")

    def test_bad_flag_value(self, capsys, tmp_path):
        code, _, err = run(capsys, "compress", "-i", "x", "-o", "y",
                           "--ratio", "2.0")
        assert code == 2
        assert err.startswith("error: flag:")

    def test_non_finite_flag_value(self, capsys, tmp_path):
        src = gen(capsys, tmp_path)
        code, _, err = run(capsys, "compress", "-i", str(src), "-o",
                           str(tmp_path / "c.vtok"), "--tau", "inf")
        assert code == 2
        assert err.startswith("error: flag:")
        assert not (tmp_path / "c.vtok").exists()

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "bench", "--bogus", "1")
        assert code == 2
        assert err.startswith("error: flag:")

    def test_unknown_window_string(self, capsys, tmp_path):
        path = gen(capsys, tmp_path)
        code, _, err = run(capsys, "analyze", "-i", str(path), "--window", "wat")
        assert code == 2
        assert err.startswith("error: flag:")

    @pytest.mark.parametrize("windows", ["0", "x", "global,-2"])
    def test_bad_ablate_windows_is_flag_error(self, capsys, tmp_path, windows):
        path = gen(capsys, tmp_path)
        code, out, err = run(capsys, "ablate", "-i", str(path), "--windows", windows)
        assert code == 2
        assert err.startswith("error: flag:") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("threads", ["0", "2.5", "True", "1" + "0" * 5000],
                             ids=["zero", "float", "bool", "huge"])
    def test_bad_threads_is_flag_error_before_any_read(self, capsys, threads):
        # --threads is checked when parsed, so the missing input is never read.
        code, out, err = run(capsys, "compress", "-i", "missing.vtok", "-o", "y.vtok",
                             "--threads", threads)
        assert code == 2
        assert err.startswith("error: flag: argument --threads:")
        assert out == ""

    def test_file_shrunk_during_the_read_is_one_line(self, capsys, tmp_path, monkeypatch):
        import vtcomp.formats

        src = gen(capsys, tmp_path, frames=2, tokens=3, dim=4)
        declared = src.stat()
        src.write_bytes(src.read_bytes()[:-8])
        monkeypatch.setattr(vtcomp.formats.os, "fstat", lambda fd: declared)
        code, out, err = run(capsys, "compress", "-i", str(src), "-o", str(tmp_path / "c.vtok"))
        assert (code, out) == (1, "")
        assert err.startswith("error: truncated-payload:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vtok"]

    def test_memory_error_is_one_line(self, capsys, tmp_path, monkeypatch):
        import vtcomp.cli

        def exhausted(path):
            raise MemoryError("cannot allocate the payload")

        monkeypatch.setattr(vtcomp.cli, "read_vtok", exhausted)
        code, out, err = run(capsys, "analyze", "-i", str(tmp_path / "v.vtok"))
        assert code == 1
        assert err == "error: memory: cannot allocate the payload\n"
        assert out == ""

    def test_overflowing_weights_are_flag_error(self, capsys, tmp_path):
        path = gen(capsys, tmp_path)
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "analyze", "-i", str(path), "-o", str(out_csv),
                             "--alpha", "1e308", "--beta", "1e308", "--full")
        assert (code, out) == (2, "")
        assert err.startswith("error: flag: alpha + beta") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vtok"]

    def test_overflowing_noise_is_one_error_line(self, tmp_path):
        # A child process, so nothing filters what a user would see on stderr.
        env = dict(os.environ, PYTHONPATH=str(Path(vtcomp.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "vtcomp", "gen", "--frames", "2", "--tokens", "2",
             "--dim", "2", "--model", "clustered", "--clusters", "2", "--noise", "1e300",
             "-o", str(tmp_path / "v.vtok")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: non-finite:") and proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_window_out_of_range_at_runtime(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, frames=4)
        code, _, err = run(capsys, "analyze", "-i", str(path), "--window", "9")
        assert code == 1
        assert err.startswith("error: window-out-of-range:")


class TestFlagsCheckedFirst:
    """Bad seeds, noise and bench flags are flag errors raised before any
    input is read or generated."""

    @pytest.fixture
    def generated(self, monkeypatch):
        import vtcomp.cli

        calls = []
        real = vtcomp.cli.generate
        monkeypatch.setattr(vtcomp.cli, "generate", lambda spec: calls.append(spec) or real(spec))
        return calls

    def test_gen_negative_seed(self, capsys, tmp_path, generated):
        code, out, err = run(capsys, "gen", "--frames", "2", "--tokens", "3", "--dim", "2",
                             "--seed", "-1", "-o", str(tmp_path / "x.vtok"))
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag: seed") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bench_negative_seed(self, capsys, generated):
        code, out, err = run(capsys, "bench", "--frames", "2", "--tokens", "3", "--dim", "2",
                             "--iters", "1", "--seed", "-1")
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag: seed") and err.count("\n") == 1

    def test_compress_random_negative_seed(self, capsys, tmp_path):
        # The input does not exist: reading it first would be an io error.
        code, out, err = run(capsys, "compress", "-i", str(tmp_path / "missing.vtok"),
                             "-o", str(tmp_path / "c.vtok"), "--policy", "random",
                             "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: flag: seed") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("windows", ["", ",", " , "])
    def test_ablate_window_list_naming_no_window(self, capsys, tmp_path, windows):
        # The input does not exist: reading it first would be an io error.
        code, out, err = run(capsys, "ablate", "-i", str(tmp_path / "missing.vtok"),
                             "--windows", windows)
        assert (code, out) == (2, "")
        assert err.startswith("error: flag:") and err.count("\n") == 1

    @pytest.mark.parametrize("model", ["iid", "clustered", "outlier"])
    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_gen_non_finite_noise(self, capsys, tmp_path, generated, model, noise):
        code, out, err = run(capsys, "gen", "--frames", "2", "--tokens", "3", "--dim", "2",
                             "--model", model, f"--noise={noise}", "-o", str(tmp_path / "x.vtok"))
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag: noise_sigma") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # Shapes past sys.maxsize bytes: numpy refuses them before allocating.
    UNADDRESSABLE = [["100000000000000000000", "1", "1"], ["3", str(2**62), "1"]]

    @pytest.mark.parametrize("shape", UNADDRESSABLE)
    def test_gen_unaddressable_shape(self, capsys, tmp_path, generated, shape):
        frames, tokens, dim = shape
        code, out, err = run(capsys, "gen", "--frames", frames, "--tokens", tokens,
                             "--dim", dim, "-o", str(tmp_path / "x.vtok"))
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", UNADDRESSABLE)
    def test_bench_unaddressable_shape(self, capsys, tmp_path, generated, shape):
        frames, tokens, dim = shape
        code, out, err = run(capsys, "bench", "--frames", frames, "--tokens", tokens,
                             "--dim", dim, "--iters", "1")
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [[str(2**32), "1", "1"], ["1", "1", str(2**32)]])
    def test_gen_axis_past_the_vtok_header(self, capsys, tmp_path, generated, shape):
        frames, tokens, dim = shape
        code, out, err = run(capsys, "gen", "--frames", frames, "--tokens", tokens,
                             "--dim", dim, "-o", str(tmp_path / "x.vtok"))
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag:") and "4294967295" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--ratio", "2"], ["--iters", "0"], ["--tau", "nan"]])
    def test_bench_flags_before_generating(self, capsys, generated, flags):
        code, out, err = run(capsys, "bench", "--frames", "2", "--tokens", "3", "--dim", "2",
                             *flags)
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag:") and err.count("\n") == 1


class TestConfigFlags:
    @pytest.mark.parametrize("argv", [["analyze", "-i", "x"], ["compress", "-i", "x", "-o", "y"],
                                      ["ablate", "-i", "x"], ["bench"]])
    def test_parsed_defaults_are_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        default = RetentionConfig()
        assert _config_from(args) == default
        for name, value in vars(default).items():
            assert getattr(args, name) == value, name


def _readme_cli_commands():
    """The ``vtcomp`` lines of the README's ``## CLI`` bash block, with
    continued lines joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    commands = _readme_cli_commands()
    assert commands and all(argv[0] == "vtcomp" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, f"{shlex.join(argv)}: {err}"


class TestParserPerProcess:
    """``main`` builds its parser once and reuses it: no call may see
    anything a previous call parsed."""

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []
        real = vtcomp.cli.build_parser
        monkeypatch.setattr(vtcomp.cli, "build_parser", lambda: made.append(1) or real())
        monkeypatch.setattr(vtcomp.cli, "_parser", None)
        return made

    def _outputs(self, capsys, call):
        argv, files = call
        code, out, err = run(capsys, *argv)
        return code, out, err, [Path(f).read_bytes() for f in files]

    def _same_as_alone(self, capsys, monkeypatch, builds, calls):
        together = [self._outputs(capsys, call) for call in calls]
        assert len(builds) == 1
        for call, shared in zip(calls, together):
            monkeypatch.setattr(vtcomp.cli, "_parser", None)
            assert self._outputs(capsys, call) == shared
        assert len(builds) == 1 + len(calls)
        return together

    def test_ablate_windows_then_default(self, capsys, tmp_path, monkeypatch, builds):
        src = gen(capsys, tmp_path, frames=8, tokens=6, dim=4)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        together = self._same_as_alone(capsys, monkeypatch, builds, [
            (["ablate", "-i", str(src), "-o", str(first), "--windows", "2"], [first]),
            (["ablate", "-i", str(src), "-o", str(second)], [second]),
        ])
        assert {row.split(",")[3] for row in together[1][1].splitlines()[2:]} == \
            {"global", "4", "2"}

    def test_random_policy_then_default_compress(self, capsys, tmp_path, monkeypatch,
                                                 builds):
        src = gen(capsys, tmp_path)
        calls = []
        for name, extra in (("r", ["--policy", "random", "--seed", "3"]), ("d", [])):
            out = tmp_path / f"{name}.vtok"
            calls.append((["compress", "-i", str(src), "-o", str(out), *extra],
                          [out, f"{out}.indices.csv"]))
        together = self._same_as_alone(capsys, monkeypatch, builds, calls)
        assert together[0][1].startswith("random(") and together[1][1].startswith("vidcom2(")

    def test_threads_flags_then_default_compress(self, capsys, tmp_path, monkeypatch,
                                                 builds):
        # --threads has no effect: every call writes the same bytes.
        src = gen(capsys, tmp_path)
        calls = []
        for name, extra in (("t2", ["--threads", "2"]), ("a", ["--threads", "auto"]),
                            ("d", [])):
            out = tmp_path / f"{name}.vtok"
            calls.append((["compress", "-i", str(src), "-o", str(out), *extra],
                          [out, f"{out}.indices.csv"]))
        together = self._same_as_alone(capsys, monkeypatch, builds, calls)
        assert together[0][3] == together[1][3] == together[2][3]
