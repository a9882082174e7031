"""The pairs verdict of ``scripts/bench_pairs.py``, loaded from its path."""

import importlib.util
from pathlib import Path

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
