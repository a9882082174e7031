"""The pairs verdict of ``scripts/bench_pairs.py``, loaded from its path."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(median, q1, q3, low, high):
    return {"median": median, "q1": q1, "q3": q3, "min": low, "max": high}


def test_verdict_calls_a_spread_wider_than_the_bound_unresolved():
    verdict = load().verdict
    # Parent quartiles 2.0-3.0 around a 2.5 median: a spread of 40%, past a 25% bound.
    wide = side(2.5, 2.0, 3.0, 1.8, 3.4)
    overlapping = {"parent": wide, "change": side(2.4, 2.2, 2.9, 2.0, 3.1),
                   "change_better_pairs": 6}
    disjoint = {"parent": wide, "change": side(1.5, 1.4, 1.6, 1.3, 1.7),
                "change_better_pairs": 10}
    narrow = {"parent": side(2.5, 2.45, 2.55, 2.4, 2.6),
              "change": side(2.45, 2.4, 2.5, 2.35, 2.6), "change_better_pairs": 7}

    assert "unresolved" in verdict("setup_s", overlapping, "lower", 0.25, 10)
    assert "unresolved" not in verdict("setup_s", disjoint, "lower", 0.25, 10)
    assert "unresolved" not in verdict("setup_s", narrow, "lower", 0.25, 10)
    assert "unresolved" not in verdict("setup_s", overlapping, "lower", None, 10)
    # For a higher-is-better metric, every change run must read above the parent's best.
    higher = {"parent": wide, "change": side(3.6, 3.5, 3.8, 3.5, 4.0),
              "change_better_pairs": 10}
    assert "unresolved" not in verdict("tokens_per_s", higher, "higher", 0.25, 10)
    assert "unresolved" in verdict("tokens_per_s", overlapping, "higher", 0.25, 10)


def test_failed_share_pools_each_side_and_flags_a_higher_change_share():
    script = load()

    def run(side, attempted, failed):
        return {"side": side, "attempted": attempted, "failed": failed}

    runs = [run("parent", 100, 0), run("change", 100, 1),
            run("parent", 50, 1), run("change", 300, 0)]
    shares = script.failed_shares(runs)
    assert shares == {"parent": 1 / 150, "change": 1 / 400}
    assert "LARGER SHARE" not in script.failure_verdict(shares)

    runs.append(run("change", 100, 2))  # now 3 of 500 against 1 of 150
    assert "LARGER SHARE" not in script.failure_verdict(script.failed_shares(runs))
    runs.append(run("change", 100, 1))  # 4 of 600 equals 1 of 150: not higher
    assert "LARGER SHARE" not in script.failure_verdict(script.failed_shares(runs))
    runs.append(run("change", 1, 1))
    assert "LARGER SHARE" in script.failure_verdict(script.failed_shares(runs))
    assert script.failed_shares([]) == {"parent": 0.0, "change": 0.0}


# A stand-in for vtbench/run.py: prints one result line per call, its
# op_ms.p50 the call's number, and exits 3 on its second call.
FAKE_RUN = """
import json, pathlib, sys
calls = pathlib.Path("calls")
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
if n == 2:
    print("first line", file=sys.stderr)
    print("run failed", file=sys.stderr)
    sys.exit(3)
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"op_ms.p50": {"value": float(n)}}}))
"""


# A stand-in on a host that slows down: every run reads 1.0 until the fifth
# run of both checkouts together, then 2.0.
STEP_RUN = """
import json, pathlib
clock = pathlib.Path("..", "clock")
n = int(clock.read_text()) + 1 if clock.exists() else 1
clock.write_text(str(n))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"op_ms.p50": {"value": 1.0 if n <= 5 else 2.0}}}))
"""


def fake_checkouts(tmp_path, run=FAKE_RUN):
    spec = {"end_to_end": [{"name": "op_ms.p50", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "compress.compress.ms", "better": "lower"}]}
    for side in ("parent", "change"):
        (tmp_path / side / "vtbench").mkdir(parents=True)
        (tmp_path / side / "vtbench" / "run.py").write_text(run)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))


def test_failed_run_stops_the_pairs_and_keeps_the_finished_runs(tmp_path, capsys):
    fake_checkouts(tmp_path)
    out = tmp_path / "BENCH.json"

    code = load().main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--workload", "w", "--pairs", "3",
                        "--seconds", "1", "--out", str(out), "--claim", "op_ms.p50"])

    # Pair 0 runs parent then change; pair 1 runs the change first, its second call.
    assert code == 1
    section = json.loads(out.read_text())["w"]
    assert [(r["pair"], r["side"], r["op_ms.p50"]) for r in section["runs"]] == \
        [(0, "parent", 1.0), (0, "change", 1.0)]
    assert section["pairs"] == 1
    assert section["metrics"]["op_ms.p50"]["change"]["median"] == 1.0
    assert "claim" in section
    stopped = section["stopped"]
    assert (stopped["pair"], stopped["side"], stopped["exit_code"]) == (1, "change", 3)
    assert stopped["stderr_tail"] == ["first line", "run failed"]
    assert "STOPPED at pair 1 change" in capsys.readouterr().out


@pytest.mark.parametrize("claim", ["op_ms_p50", "compress.compress.ms"])
def test_unknown_claim_is_a_usage_error_before_any_run(tmp_path, capsys, claim):
    # A typo, and a per-layer metric, which has no bound to judge a claim by.
    fake_checkouts(tmp_path)
    with pytest.raises(SystemExit) as exc:
        load().main(["--parent", str(tmp_path / "parent"), "--change",
                     str(tmp_path / "change"), "--workload", "w", "--pairs", "3",
                     "--seconds", "1", "--out", str(tmp_path / "BENCH.json"),
                     "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim '{claim}'" in capsys.readouterr().err
    assert not any((tmp_path / side / "calls").exists() for side in ("parent", "change"))
    assert not (tmp_path / "BENCH.json").exists()


def test_pair_ratio_reads_through_a_step_inside_one_pair(tmp_path, capsys):
    fake_checkouts(tmp_path, STEP_RUN)
    out = tmp_path / "BENCH.json"

    code = load().main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--workload", "w", "--pairs", "5",
                        "--seconds", "1", "--out", str(out)])

    # Pair 2 runs the parent fifth, at 1.0, and the change sixth, at 2.0: the
    # parent reads 1 1 1 2 2 and the change 1 1 2 2 2, so the medians differ,
    # while four of the five pairs read a ratio of 1.
    assert code == 0
    metric = json.loads(out.read_text())["w"]["metrics"]["op_ms.p50"]
    assert (metric["parent"]["median"], metric["change"]["median"]) == (1.0, 2.0)
    assert metric["pair_ratio"]["median"] == 1.0
    assert metric["pair_ratio"]["max"] == 2.0
    assert "(+100.0%), median pair ratio 1, change better in 0/5" in capsys.readouterr().out
