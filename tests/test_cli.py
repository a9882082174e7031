import os
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
from vtcomp.cli import _config_from, build_parser, main


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

    def test_uniform_policy_budget(self, capsys, tmp_path):
        src = gen(capsys, tmp_path, frames=2, tokens=196, dim=3)
        out = tmp_path / "u.vtok"
        assert run(capsys, "compress", "-i", str(src), "-o", str(out),
                   "--policy", "uniform", "--ratio", "0.25")[0] == 0
        sidecar = (tmp_path / "u.vtok.indices.csv").read_text().strip().split("\n")
        assert len(sidecar) == 1 + 2 * 49


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
        ((12, 10, 8), "global,8,8,3", ["global", 8, 8, 3]),  # a duplicate window
        ((10, 6, 12), "10,5", ["global", 10, 5]),  # window == frames
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
        assert f"kernel: {accum.KERNEL}" in out.splitlines()
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

    @pytest.mark.parametrize("model", ["iid", "clustered", "outlier"])
    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_gen_non_finite_noise(self, capsys, tmp_path, generated, model, noise):
        code, out, err = run(capsys, "gen", "--frames", "2", "--tokens", "3", "--dim", "2",
                             "--model", model, f"--noise={noise}", "-o", str(tmp_path / "x.vtok"))
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: flag: noise_sigma") and err.count("\n") == 1
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
