"""Steadiness check: run workloads on several seeds and print each
end-to-end metric's run-to-run spread next to its bound.

    python3 perfbench/steady.py --runs 10 [--workload closure ...] [--sets 2]

Runs are sequential, one process at a time, each with the command, the
window and the bounds of ``BENCHMARK.json``; the seeds count up from 1.
The spread of a metric is the
distance between the first and third quartile of its per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median; a
bound is met with room when the spread stays below a third of it. With
``--sets 2`` the seeds of the second set follow those of the first, and
the second median's change against the first is printed next to the
bound as well. Exits 1 if any run fails, any spread exceeds its bound or
a second median is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workload or names:
        sets: List[Dict[str, List[float]]] = []
        seed = 1
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {}
            for _ in range(args.runs):
                result = run_once(bench["command"], workload, seed, seconds)
                seed += 1
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed - 1}: {result['failed']} failed operations")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        print(f"  {'metric':<14}{'median':>12}{'spread':>9}{'bound':>8}{'bound/3':>9}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for index, values in enumerate(sets):
                s = spread(values[name])
                verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if s > bound:
                    ok = False
                print(
                    f"  {name:<14}{statistics.median(values[name]):>12.4f}{s:>9.2%}"
                    f"{bound:>8.2f}{bound / 3:>9.3f}  {verdict} (set {index + 1})"
                )
                print("    runs: " + " ".join(f"{v:.4g}" for v in values[name]))
            if len(sets) == 2:
                first = statistics.median(sets[0][name])
                second = statistics.median(sets[1][name])
                change = (second - first) / first
                worse = change if metric["better"] == "lower" else -change
                if worse > bound:
                    ok = False
                print(f"  {name:<14}second median vs first: {change:+.2%} (bound {bound:.2f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
