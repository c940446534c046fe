"""Diff two benchmark trajectory files (BENCH_*.json) and flag regressions.

The trajectory files are what ``run_all.py --json`` writes:
``{experiment: {size: seconds}}``. This tool compares the series point by
point over the keys both files share::

    python benchmarks/compare.py BENCH_PR2.json BENCH_PR3.json
    python benchmarks/compare.py BENCH_SMOKE.json            # auto baseline
    python benchmarks/compare.py OLD.json NEW.json --threshold 2.0
    python benchmarks/compare.py OLD.json NEW.json --warn-only   # CI guard

With a single file argument the baseline is auto-selected: the
``BENCH_PR<n>.json`` with the highest ``n`` next to the candidate (the
candidate itself excluded), so CI never hardcodes the previous PR's
filename. The chosen baseline is always printed.

Speedup is old/new: >1 means the new run is faster. A point regresses when
``new > threshold * old``; any regression makes the exit status 1 unless
``--warn-only`` (the CI bench-smoke job runs warn-only — a noisy shared
runner should flag, not fail).

Keys starting with ``__`` are metadata, not series — ``run_all.py`` writes
``__host__`` (the usable CPU count). Older trajectories (BENCH_PR10,
BENCH_PR13) also name host-gated experiments there: the retired
parallel-execution series E22/E22p, whose numbers scale with usable CPUs.
When both files carry host metadata and the CPU counts differ, those
series are skipped with a note instead of producing spurious regression
warnings — e.g. a 1-CPU CI runner diffed against a 4-CPU baseline host.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple


def load_trajectory(path: str) -> Dict[str, Dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected {{experiment: {{size: seconds}}}}")
    return data


def _size_key(size: str):
    try:
        return (0, float(size))
    except ValueError:
        return (1, size)


def compare(
    old: Dict[str, Dict[str, float]],
    new: Dict[str, Dict[str, float]],
    threshold: float,
) -> Tuple[List[Tuple[str, str, float, float, float]], List[Tuple[str, str, float]]]:
    """Point-by-point comparison over the shared (experiment, size) keys.

    Returns (rows, regressions); each row is (experiment, size, old_s,
    new_s, speedup) with speedup = old/new.
    """
    rows = []
    regressions = []
    for exp in sorted(set(old) & set(new)):
        if exp.startswith("__"):  # metadata, not a series
            continue
        shared = set(old[exp]) & set(new[exp])
        for size in sorted(shared, key=_size_key):
            old_s, new_s = old[exp][size], new[exp][size]
            speedup = old_s / new_s if new_s else float("inf")
            rows.append((exp, size, old_s, new_s, speedup))
            if new_s > threshold * old_s:
                regressions.append((exp, size, speedup))
    return rows, regressions


def skip_host_gated(
    old: Dict[str, Dict[str, float]],
    new: Dict[str, Dict[str, float]],
) -> List[str]:
    """Drop host-gated series when the two hosts are not comparable.

    A series is host-gated when either file's ``__host__.backend`` names
    it (BENCH_PR10 and BENCH_PR13 record E22/E22p there). Points are dropped — mutating
    ``old``/``new`` in place — only when both files carry a ``__host__``
    with a ``cpu_count`` and the counts differ; trajectories from the
    same host, or legacy files without metadata, compare as before.
    Returns the sorted experiment ids that were skipped.
    """
    old_host = old.get("__host__") or {}
    new_host = new.get("__host__") or {}
    old_cpus = old_host.get("cpu_count")
    new_cpus = new_host.get("cpu_count")
    if old_cpus is None or new_cpus is None or old_cpus == new_cpus:
        return []
    gated = set(old_host.get("backend") or {}) | set(new_host.get("backend") or {})
    skipped = sorted(exp for exp in gated if exp in old and exp in new)
    for exp in skipped:
        old.pop(exp, None)
        new.pop(exp, None)
    return skipped


_PR_FILE = re.compile(r"^BENCH_PR(\d+)\.json$")


def newest_baseline(candidate: str) -> Optional[str]:
    """The ``BENCH_PR<n>.json`` with the highest n beside ``candidate``.

    The candidate file itself is excluded, so comparing a freshly
    regenerated ``BENCH_PR5.json`` auto-selects ``BENCH_PR4.json``.
    """
    directory = os.path.dirname(os.path.abspath(candidate))
    best: Optional[Tuple[int, str]] = None
    for entry in os.listdir(directory):
        match = _PR_FILE.match(entry)
        if not match:
            continue
        path = os.path.join(directory, entry)
        if os.path.abspath(candidate) == path:
            continue
        key = (int(match.group(1)), path)
        if best is None or key > best:
            best = key
    return best[1] if best else None


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="+",
        metavar="TRAJECTORY",
        help="OLD.json NEW.json, or just NEW.json to auto-select the "
        "newest BENCH_PR*.json beside it as the baseline",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="a point regresses when new > threshold * old (default 1.5)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for noisy CI runners)",
    )
    args = parser.parse_args(argv)

    if len(args.files) == 2:
        old_path, new_path = args.files
        print(f"baseline: {old_path}", file=sys.stderr)
    elif len(args.files) == 1:
        new_path = args.files[0]
        old_path = newest_baseline(new_path)
        if old_path is None:
            print(
                f"error: no BENCH_PR*.json baseline found beside {new_path}",
                file=sys.stderr,
            )
            return 0 if args.warn_only else 1
        print(f"baseline: {old_path} (auto-selected)", file=sys.stderr)
    else:
        parser.error("expected OLD.json NEW.json or just NEW.json")

    old = load_trajectory(old_path)
    new = load_trajectory(new_path)
    skipped = skip_host_gated(old, new)
    if skipped:
        print(
            "note: skipping host-gated experiment(s) "
            + ", ".join(skipped)
            + " — the two trajectories were recorded on hosts with "
            "different usable CPU counts",
            file=sys.stderr,
        )
    rows, regressions = compare(old, new, args.threshold)
    if not rows:
        print("no overlapping (experiment, size) points to compare", file=sys.stderr)
        return 0 if args.warn_only else 1

    print(f"{'experiment':<12}{'size':>8}{'old':>12}{'new':>12}{'speedup':>10}")
    for exp, size, old_s, new_s, speedup in rows:
        flag = "  <-- regression" if new_s > args.threshold * old_s else ""
        print(
            f"{exp:<12}{size:>8}{old_s * 1000:>10.1f}ms{new_s * 1000:>10.1f}ms"
            f"{speedup:>9.2f}x{flag}"
        )

    if regressions:
        label = "warning" if args.warn_only else "FAIL"
        print(
            f"\n{label}: {len(regressions)} point(s) slowed past "
            f"{args.threshold:.2f}x: "
            + ", ".join(f"{exp}[{size}] ({s:.2f}x)" for exp, size, s in regressions),
            file=sys.stderr,
        )
        return 0 if args.warn_only else 1
    print(f"\nok: no point slowed past {args.threshold:.2f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
