#!/usr/bin/env python3
"""Alternating parent/change runs of one vtbench workload, with the pairs verdict.

Usage, with both commits checked out side by side:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ablate-sweep --seed 0 --pairs 10 --seconds 30 \\
        --out BENCH.json --section ablate-sweep --claim op_ms.p50 \\
        --previous BENCH_13.json

Each pair runs ``python3 <checkout>/vtbench/run.py --workload W --seed S
--seconds T --trace X`` once per checkout, one run at a time; even pairs
run the parent first, odd pairs the change first.  For every metric a run
prints, the section records each side's median, quartiles (inclusive
method) and range.  For each metric the change's BENCHMARK.json declares,
it also records in how many pairs the change was better, and the same
summary of each pair's change/parent ratio (``pair_ratio``, over the pairs
whose parent value is not 0).  The verdict line prints the median ratio:
when the host changes speed between pairs, the two runs of a pair still
share a speed, so that median moves less than the side medians.

For each end-to-end metric it prints the pairs rule: a gain holds when the
change is better in at least 9 of every 10 pairs and its median beats the
parent's by more than the parent's interquartile range.  It also flags a
median that is worse than the parent's by more than the metric's bound,
and calls a metric unresolved when the parent's interquartile range is
wider than that bound, unless every change run beats every parent run.
It prints each side's failed share, the failed operations over the
attempted ones of all its runs, and flags the change when its share is
higher.  ``--previous`` prints the same section's medians from an earlier
file beside this run's.

A run that exits non-zero (or prints nothing) stops the comparison: the
section keeps every finished run, the medians of the complete pairs, and a
``stopped`` record of the failed run (pair, side, exit code, the last lines
of its stderr); it is still written to ``--out``, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# What each run record holds besides its metric values.
RUN_FIELDS = ("pair", "side", "ran_first", "correct", "attempted", "failed")
# Lines of a failed run's stderr kept in its ``stopped`` record.
STDERR_LINES = 20


class RunFailed(Exception):
    """A vtbench run that exited non-zero or printed no result."""

    def __init__(self, exit_code: int, stderr: str):
        super().__init__(f"exited {exit_code}")
        self.exit_code = exit_code
        self.stderr_tail = stderr.strip().splitlines()[-STDERR_LINES:]


def run_once(checkout: Path, args) -> dict:
    """One vtbench run; returns the JSON object on its last stdout line."""
    cmd = [sys.executable, str(checkout / "vtbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * args.seconds + 900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(done.returncode, done.stderr)
    return json.loads(lines[-1])


def run_pairs(checkouts: dict, args, shown) -> tuple[list[dict], dict | None]:
    """The alternating runs, up to the first failed one; returns the
    finished runs and the failed run's record (None when every run ended)."""
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            try:
                result = run_once(checkouts[side], args)
            except RunFailed as exc:
                print(f"pair {pair} {side}: {exc}, stopping\n" + "\n".join(exc.stderr_tail),
                      file=sys.stderr, flush=True)
                return runs, {"pair": pair, "side": side, "exit_code": exc.exit_code,
                              "stderr_tail": exc.stderr_tail}
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"pair": pair, "side": side, "ran_first": position == 0,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], **values})
            print(f"pair {pair} {side}: correct {result['correct']}, " + ", ".join(
                f"{n} {values[n]:.6g}" for n in shown if n in values), flush=True)
    return runs, None


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "min": round(min(values), 4), "max": round(max(values), 4)}


def directions(checkout: Path) -> tuple[dict, dict]:
    """Each declared metric's better direction, and the end-to-end bounds."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec.get("per_layer", [])
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def better(value: float, than: float, direction: str) -> bool:
    return value < than if direction == "lower" else value > than


def verdict(name: str, stats: dict, direction: str, bound: float | None, pairs: int) -> str:
    parent, change = stats["parent"], stats["change"]
    gap = parent["median"] - change["median"]
    if direction == "higher":
        gap = -gap
    spread = parent["q3"] - parent["q1"]
    wins = stats["change_better_pairs"]
    rel = (change["median"] / parent["median"] - 1) * 100 if parent["median"] else 0.0
    holds = wins >= math.ceil(0.9 * pairs) and gap > spread
    ratio = (f", median pair ratio {stats['pair_ratio']['median']:.4g}"
             if "pair_ratio" in stats else "")
    text = (f"{name}: parent {parent['median']:.6g} [{parent['q1']:.6g}-{parent['q3']:.6g}]"
            f" -> change {change['median']:.6g} [{change['q1']:.6g}-{change['q3']:.6g}]"
            f" ({rel:+.1f}%){ratio}, change better in {wins}/{pairs} pairs,"
            f" gain {gap:.6g} vs parent spread {spread:.6g}:"
            f" gain {'holds' if holds else 'not shown'}")
    if bound is None:
        return text
    if -gap > bound * abs(parent["median"]):
        text += f"; WORSE BY MORE THAN THE {bound:.0%} BOUND"
    # A spread wider than the bound cannot show "no worse", unless the
    # change's worst run beats the parent's best.
    worst, best = ((change["max"], parent["min"]) if direction == "lower"
                   else (change["min"], parent["max"]))
    if spread > bound * abs(parent["median"]) and not better(worst, best, direction):
        text += f"; unresolved: parent spread wider than the {bound:.0%} bound"
    return text


def failed_shares(runs: list[dict]) -> dict:
    """Each side's failed operations over its attempted ones, over all its runs."""
    shares = {}
    for s in SIDES:
        attempted = sum(r["attempted"] for r in runs if r["side"] == s)
        failed = sum(r["failed"] for r in runs if r["side"] == s)
        shares[s] = failed / attempted if attempted else 0.0
    return shares


def failure_verdict(shares: dict) -> str:
    text = f"failed share: parent {shares['parent']:.4g} -> change {shares['change']:.4g}"
    if shares["change"] > shares["parent"]:
        text += "; THE CHANGE FAILS A LARGER SHARE OF OPERATIONS"
    return text


def previous_median(section: dict, side: str, name: str):
    if "metrics" in section:
        return section["metrics"].get(name, {}).get(side, {}).get("median")
    return section.get(side, {}).get(name)  # a traced section: one value per side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="JSON file to add the section to")
    parser.add_argument("--section", help="section name (default: the workload)")
    parser.add_argument("--note", default="", help="note stored with the section")
    parser.add_argument("--claim", help="end-to-end metric this section claims a gain on "
                        "(one the change's BENCHMARK.json declares)")
    parser.add_argument("--previous", type=Path, help="earlier JSON file to compare with")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    section_name = args.section or args.workload
    better_of, bounds = directions(checkouts["change"])
    if args.claim is not None and args.claim not in bounds:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of the change's "
                     f"BENCHMARK.json: {', '.join(bounds)}")

    runs, stopped = run_pairs(checkouts, args, bounds)
    # Medians and the verdict read complete pairs only; a stopped run's
    # partner is kept in ``runs`` but compared with nothing.
    pairs = len(runs) // 2
    paired = [r for r in runs if r["pair"] < pairs]
    names = [n for n in paired[0] if n not in RUN_FIELDS] if paired else []

    metrics = {}
    for name in names:
        side_values = {s: [r[name] for r in paired if r["side"] == s] for s in SIDES}
        stats = {s: summary(v) for s, v in side_values.items()}
        if name in better_of:
            both = list(zip(side_values["parent"], side_values["change"]))
            stats["change_better_pairs"] = sum(better(c, p, better_of[name]) for p, c in both)
            ratios = [c / p for p, c in both if p]
            if ratios:
                stats["pair_ratio"] = summary(ratios)
        metrics[name] = stats

    print(f"\n{section_name}: {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {pairs} pairs, "
          f"all correct: {all(r['correct'] for r in runs)}")
    if stopped:
        print(f"STOPPED at pair {stopped['pair']} {stopped['side']}: "
              f"exit code {stopped['exit_code']}")
    shares = failed_shares(runs)
    print(failure_verdict(shares))
    for name in bounds:
        if name in metrics:
            line = verdict(name, metrics[name], better_of[name], bounds[name], pairs)
            print(("CLAIM " if name == args.claim else "") + line)

    if args.previous:
        old = json.loads(args.previous.read_text())
        prior = old.get(section_name) or old.get(args.workload)
        print(f"\nagainst {args.previous} [{section_name if section_name in old else args.workload}]:")
        for name in metrics:
            if prior is None:
                print("  no such section")
                break
            was = [previous_median(prior, s, name) for s in SIDES]
            if None in was:
                continue
            now = [metrics[name][s]["median"] for s in SIDES]
            delta = (now[1] / was[1] - 1) * 100 if was[1] else 0.0
            print(f"  {name}: then {was[0]:.6g} -> {was[1]:.6g}, now {now[0]:.6g} -> "
                  f"{now[1]:.6g} (change side {delta:+.1f}%)")

    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {
            "command": "python3 vtbench/run.py --workload <name> --seed <seed> "
                       "--trace <0|1> --seconds <seconds>",
            "method": "parent and change checked out side by side; alternating pairs "
                      "(even pairs run the parent first, odd pairs the change first); "
                      "medians and inclusive quartiles over the runs of each side",
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
        }
        section = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "pairs": pairs,
                   "all_correct": all(r["correct"] for r in runs),
                   "failed_share": shares, "metrics": metrics,
                   "runs": runs}
        if args.note:
            section = {"note": args.note, **section}
        if stopped:
            section["stopped"] = stopped
        if args.claim in metrics:
            section["claim"] = verdict(args.claim, metrics[args.claim], better_of[args.claim],
                                       bounds.get(args.claim), pairs)
        record[section_name] = section
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if stopped else 0


if __name__ == "__main__":
    sys.exit(main())
