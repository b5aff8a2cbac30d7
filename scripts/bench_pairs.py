"""Compare the benchmark's end-to-end metrics of two source checkouts.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30] [--seed 17]

Runs ``python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
from the root of each checkout, PAIRS times on each side, one pair after
another. The side that goes first alternates: the parent in even pairs,
the change in odd ones, so slow drift of the host falls on both sides.
The end-to-end metrics and their directions are those of the parent's
``BENCHMARK.json``.

Prints one JSON line: per metric, the median of each side, the parent's
quartiles and interquartile range, and the number of pairs in which the
change's run is better; and every run's ``correct``, ``attempted`` and
``failed``. A claimed gain needs a win in nearly every pair and a median
better than the parent's by more than its interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run from ``root``: its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per metric of ``metrics`` (BENCHMARK.json's ``end_to_end`` entries),
    the medians of both sides' results, the parent's quartiles and the
    change's wins over the pairs ``zip(parent, change)``."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        lower = metric["better"] == "lower"
        out[name] = {
            "parent_median": statistics.median(a),
            "change_median": statistics.median(b),
            "parent_quartiles": [q1, q3],
            "parent_iqr": q3 - q1,
            "change_wins": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            "better": metric["better"],
            "bound": metric["bound"],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            results[side].append(result)
            runs.append({"pair": pair, "side": side,
                         **{key: result[key] for key in ("correct", "attempted", "failed")}})
    metrics = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "metrics": summarize(metrics, results["parent"], results["change"]),
        "runs": runs,
    }))


if __name__ == "__main__":
    main()
